"""Evaluation and invariants of embeddings encoded by two-column graphs.

A DiagonalEmbedding pairs a valid EGraph with a source flag type in Q^m
and evaluates flags into Q^n, n = d*m, by filling each target member with
block copies of source members as the graph dictates; `_from_valid`
embeds `build_from_alpha`'s graphs unchecked.  `evaluate`, the one
production route, uses the closed formula: one direct sum over colours per
target member.  The cumulative formula (a running sum over right vertices)
is the independent reference the tests compare `evaluate` against.

The module also computes the induced matrix on Picard generators (from the
graph alone, `graph_pullback`), the combinatorial linearity and
standard-extension criteria, the closed-form chain of constant spaces,
classification in closed form (`classify`: the criterion is the verdict,
and one colour's block gives the witness), the unipotent-radical inclusion
test on the graph (`unipotent_inclusion(g)`), and the exhaustive sweep that
compares every combinatorial verdict against the exact oracle, with one
restriction analysis and one stabilizer per case.  The coordinate flags it
compares are flagcore's `level_flag` of the level values and of the
block-level tuples.
"""

from __future__ import annotations

import random
from functools import cached_property
from math import comb
from typing import Callable, Iterable

from .egraph import (
    EGraph,
    NotParabolic,
    ParabolicRestriction,
    SurjectionAlpha,
    build_from_alpha,
    partition_edges,
    require_valid,
    surjections,
)
from .errors import DomainError, InternalCheckError, Record, ScaleError, is_int, reading, strict_int, strict_list
from .flagcore import Classification, FlagType, PicardPullback, StandardExtensionData, check_flag_type, level_flag, random_flag
from .ratlin import (
    Flag,
    RatSubspace,
    block_diagonal,
    nilradical_inclusion_oracle,
    random_invertible_ints,
    stabilizer_oracle,
)


class DiagonalEmbedding(Record):
    """A valid graph together with the source flag type it acts on."""

    graph: EGraph
    source_type: FlagType

    def __post_init__(self) -> None:
        require_valid(self.graph)
        if self.source_type.length != self.graph.q - 1:
            raise DomainError(
                f"source type must have {self.graph.q - 1} members, got {self.source_type.length}"
            )

    @classmethod
    def _from_valid(cls, graph: EGraph, source_type: FlagType) -> "DiagonalEmbedding":
        """`build_from_alpha`'s graph and its flag type (FlagType(m, ()) when
        q = 1), valid together by construction: nothing is checked."""
        emb = object.__new__(cls)
        object.__setattr__(emb, "graph", graph)
        object.__setattr__(emb, "source_type", source_type)
        return emb

    @property
    def m(self) -> int:
        return self.source_type.ambient

    @property
    def n(self) -> int:
        return self.graph.d * self.m

    @cached_property
    def target_type(self) -> FlagType:
        ext = (0, *self.source_type.dims, self.m)
        dims = tuple(sum(ext[i] for i in row) for row in self.graph.closed_indices)
        return FlagType(self.n, dims)

    def evaluate(self, flag: Flag) -> Flag:
        """Image flag by the closed formula: target member j is the direct
        sum over colours c of source member `closed_indices[j][c]` in block c
        (`_block_sums`, which runs no elimination).  Each closed index is
        nondecreasing in j and the source members are nested, so the image
        members are nested and no containment test runs.
        """
        check_flag_type(flag, self.source_type)
        return Flag._from_nested(self.n, _block_sums(self.graph, self.m, flag.member))

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph.to_json_obj(),
            "source_type": self.source_type.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DiagonalEmbedding":
        with reading("embedding"):
            if "alpha" in obj:
                m = strict_int(obj["m"], "m")
                return embedding_from_alpha(SurjectionAlpha.of(strict_list(obj["alpha"], "alpha")), m)
            graph = EGraph.from_json_obj(obj["graph"])
            source = FlagType.from_json_obj(obj["source_type"])
        return cls(graph, source)


def embedding_from_alpha(alpha: SurjectionAlpha, m: int) -> DiagonalEmbedding:
    """The embedding of the restricted flag variety; DomainError when the
    restriction is not parabolic."""
    result = build_from_alpha(alpha, m)
    if isinstance(result, NotParabolic):
        raise DomainError(f"restriction is not parabolic; witness {result.witness}")
    source = result.flag_type or FlagType(m, ())
    return DiagonalEmbedding._from_valid(result.graph, source)


def _block_sums(
    g: EGraph, m: int, member: Callable[[int], RatSubspace]
) -> tuple[RatSubspace, ...]:
    """For each row of `closed_indices`, the direct sum over colours c of
    `member(i)` in block c, for the row's nonzero entries i.

    The blocks are disjoint coordinate ranges taken in colour order, so the
    concatenated canonical block bases, each row zero-padded to its block,
    are already canonical RREF (pivots increase block by block, and each
    pivot column is zero in the other blocks' rows); no elimination runs.
    Each (member, colour) block is padded once.
    """
    n = g.d * m
    padded: dict[tuple[int, int], tuple] = {}
    members = []
    for row in g.closed_indices:
        rows: tuple = ()
        for c, i in enumerate(row):
            if i:
                block = padded.get((i, c))
                if block is None:
                    left, right = (0,) * (c * m), (0,) * (n - (c + 1) * m)
                    block = padded[i, c] = tuple(left + v + right for v in member(i).int_rows)
                rows += block
        members.append(RatSubspace(n, rows))
    return tuple(members)


def graph_pullback(g: EGraph) -> PicardPullback:
    """Matrix of the induced map on preferred Picard generators.

    Row j sums, over colours, the source generator at the left endpoint of
    the last same-colour edge at or above r_j; endpoints 0 and q
    contribute nothing.  The graph is trusted to be valid.
    """
    rows = tuple(tuple(row.count(i) for i in range(1, g.q)) for row in g.closed_indices)
    return PicardPullback(g.q - 1, rows)


def picard_pullback(emb: DiagonalEmbedding) -> PicardPullback:
    """The pullback matrix of the embedding's graph (`graph_pullback`)."""
    return graph_pullback(emb.graph)


def is_linear_graph(g: EGraph) -> bool:
    """Between consecutive right endpoints of any one colour, every ordinary
    edge must carry that colour.  One pass over the edges groups the right
    endpoints by colour."""
    _, ordinary = partition_edges(g)
    ordinary_colour: dict[int, set[int]] = {}
    for (i, j, c) in ordinary:
        ordinary_colour.setdefault(j, set()).add(c)
    right_ends: dict[int, list[int]] = {}
    for (_, j, c) in g.edges:
        right_ends.setdefault(c, []).append(j)
    for c, ends in right_ends.items():
        ends.sort()
        for j1, j2 in zip(ends, ends[1:]):
            for j in range(j1, j2):
                if ordinary_colour.get(j, set()) - {c}:
                    return False
    return True


def is_standard_extension_graph(g: EGraph) -> bool:
    """All ordinary edges of one colour: exactly when the embedding is a
    standard extension, and then a strict one (proofs in `classify`)."""
    _, ordinary = partition_edges(g)
    colours = {c for (_, _, c) in ordinary}
    return len(colours) <= 1


def constant_spaces(emb: DiagonalEmbedding) -> tuple[RatSubspace, ...]:
    """Closed-form chain of memberwise intersections over all images.

    The intersection at position j is the direct sum of the full blocks c
    whose closed index is q, i.e. whose bounding edge arrives at or above
    r_j: the closed formula of `evaluate` on the members full at q and
    zero below it.  The full block is built only if some member holds it,
    so the work is bounded by the target type's entries, n times the sum
    of its dimensions, of which a full block alone holds at least m^2.
    """
    q, m = emb.graph.q, emb.m
    zero = RatSubspace.zero(m)
    return _block_sums(emb.graph, m, lambda i: RatSubspace.full(m) if i == q else zero)


def classify(emb: DiagonalEmbedding) -> Classification:
    """Classification in closed form from the graph: `not_se` when the
    ordinary edges have two colours; else the strict witness with eps the
    unit inclusion of block c, for c their colour (for a point source,
    q = 1, the least colour at r_1), kappa column c of `closed_indices`,
    and Z_j the blocks of C_j but c.  Nothing is sampled or searched.

    Member j of the image of F sums, over colours c, F_i in block c for
    i = i_jc, the closed index (F_0 = 0, F_q = V = Q^m); C_j sums the
    blocks with i = q.  An entry with 0 < i < q varies, and colour c has
    an ordinary edge (i, j, c), i < q, exactly when its column varies, as
    the edge gives i_jc = i.  (i) The witness is correct.  Only column c
    varies, and each l_i, i <= k, meets an edge, of colour c, so kappa
    attains 1..k and the other blocks of member j are 0 or full.  Where
    kappa_j <= k, block c is not in C_j, so Z_j = C_j and member j is
    eps(F_kappa_j) + Z_j; elsewhere block c is in C_j, and member j is
    C_j = eps(V) + Z_j.  So the witness evaluates as emb does, and
    `check()` passes.  (ii) The criterion is the verdict: a strict witness
    (eps, Z, kappa) of emb makes it hold.  Let row j vary, so a = kappa_j
    lies in 1..k.  Intersecting member j over all F gives Z_j <= C_j;
    summing, r*m + dim C_j <= m + dim Z_j for r varying colours, so r = 1.
    Let rows j < j' vary on c != c'.  Then i_jc' = 0 (at most i_j'c' < q,
    and not varying), so eps(F_a), in member j, has no block c' part for
    any F, nor has eps, nor Z_j' <= C_j'; but block c' of member j' is
    F_i_j'c' != 0.  (iii) No dualized witness is missed.  Let duality .
    emb = S be strict, and k >= 1 (k = 0 meets the criterion).  Member j
    of S sums the ann(F_b) of the mirrored row, so as in (ii) one block A
    of eps varies, and A(F_a) = ann(F_b) for every F.  For a line L, the
    F_b of the flags with L <= F_a span V, so A(L) = 0, unless a = b and
    d_a = 1; then A(L) = ann(L) makes m = 2, k = 1.  There ann(F_i) =
    J F_(2-i) for a rotation J, so diag(J)^-1 S is the strict embedding of
    the mirrored table (rows reversed, i -> 2 - i), and (ii) on it gives
    the criterion, which the mirror keeps.  (iv) For k >= 1, and k = 0
    with m <= 2, the witness is the brute force's first accepted candidate
    on exact constants and eps solutions, so its JSON is the same.  The
    first kappa, read off the support, is column c: 0 before the varying
    rows, k + 1 after (all ones for k = 0).  `_build_z_chain` keeps C_j
    where kappa_j <= k, and after adds to Z_(j-1) the unit rows of C_j
    outside it and block c.  A block A of an eps solution maps F_a into
    F_b for every F (a = kappa_j >= 1, b = i_jc): A is 0 if b < a, as the
    F_b in F_a meet in 0; a scalar if a <= b < q, as the F_b holding a
    line meet in it; else free.  So block c is a scalar for k >= 1, and
    every other echelon basis row a matrix unit, of rank 1 < m; for k = 0
    the basis is the matrix units of C_1's blocks, c's first.  The stream
    tries basis rows, then signed pairs in order: its first injective eps
    is c's scalar (k >= 1), c's unit (m = 1) or c's two diagonal units
    (m = 2), the unit inclusion.  For m >= 3 a random one comes first."""
    g, m, n = emb.graph, emb.m, emb.n
    if not is_standard_extension_graph(g):
        return Classification(None)
    c = min(c for (i, j, c) in g.edges if i < g.q or (g.q == 1 and j == 1)) - 1
    kappa = tuple(row[c] for row in g.closed_indices)
    eps = tuple(tuple(int(r == c * m + s) for s in range(m)) for r in range(n))
    block = slice(c * m, (c + 1) * m)
    chain = tuple(RatSubspace(n, tuple(r for r in z.int_rows if not any(r[block]))) for z in constant_spaces(emb))
    return Classification(StandardExtensionData(emb.source_type, eps, 1, chain, kappa).check())


def unipotent_inclusion(g: EGraph) -> bool:
    """Whether, for the parabolic restriction with graph g, the unipotent
    radical of the restricted stabilizer lands in the unipotent radical of
    the ambient one.

    Holds exactly when every left vertex of the graph meets exactly one
    edge of each colour (equivalently, distinct block-level tuples differ
    in every coordinate; the tests compare the two characterizations).
    """
    degree = [0] * (g.q + 1)
    for (i, _, _) in g.edges:
        degree[i] += 1
    return degree[1:] == [g.d] * g.q


class EquivarianceReport(Record):
    trials: int
    failures: tuple[int, ...]  # indices of failed trials

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {"trials": self.trials, "failures": list(self.failures), "ok": self.ok}


def equivariance_check(emb: DiagonalEmbedding, trials: int, seed: int = 0) -> EquivarianceReport:
    """Evaluate(g . F) must equal diag(g, ..., g) . evaluate(F) for random
    invertible integer matrices g and random flags F."""
    if not is_int(trials, 1):
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    rng = random.Random(f"diagflag-equivariance-{seed}")
    failures = []
    for t in range(trials):
        g = random_invertible_ints(emb.m, rng)
        flag = random_flag(emb.source_type, rng)
        big = block_diagonal(g, emb.graph.d)
        if emb.evaluate(flag.apply(g)) != emb.evaluate(flag).apply(big):
            failures.append(t)
    return EquivarianceReport(trials=trials, failures=tuple(failures))


class SweepReport(Record):
    """Outcome of comparing combinatorial verdicts against the oracle; each
    case either agrees on parabolicity or is listed as a disagreement."""

    parabolic_agreements: int
    parabolic_disagreements: tuple[dict, ...]
    unipotent_agreements: int
    unipotent_disagreements: tuple[dict, ...]
    evaluation_checks: int

    @property
    def cases(self) -> int:
        return self.parabolic_agreements + len(self.parabolic_disagreements)

    @property
    def ok(self) -> bool:
        return not self.parabolic_disagreements and not self.unipotent_disagreements

    def to_json_obj(self) -> dict:
        return {
            "cases": self.cases,
            "parabolic_agreements": self.parabolic_agreements,
            "parabolic_disagreements": list(self.parabolic_disagreements),
            "unipotent_agreements": self.unipotent_agreements,
            "unipotent_disagreements": list(self.unipotent_disagreements),
            "evaluation_checks": self.evaluation_checks,
            "ok": self.ok,
        }


# The most work `oracle_sweep` takes on, in the units of `sweep_work`.  It
# admits every sweep with n_max <= 6 (block counts 1..6: 249,936, about
# 2.2 s in-process on a 2-vCPU Xeon VM) and every n = 7 block count but 1
# (block counts 2..7: 113,787, about 2.3 s); n = 7 at d = 1 is 2,500,799
# (about 29 s) and every n = 8 term is at least 545,835.
SWEEP_WORK_LIMIT = 300_000


def sweep_work(n_max: int, d_list: Iterable[int]) -> int:
    """Work estimate of `oracle_sweep(n_max, d_list)`, for n_max <= 8: the
    sum, over each n <= n_max and each block count d dividing it, of the
    number of level maps on n letters (the ordered Bell number) times the
    (n/d)^2 unknowns of each stabilizer system."""
    bell = [1]
    for n in range(1, n_max + 1):
        bell.append(sum(comb(n, k) * bell[n - k] for k in range(1, n + 1)))
    return sum(bell[n] * (n // d) ** 2 for n in range(2, n_max + 1) for d in d_list if n % d == 0)


def oracle_sweep(n_max: int, d_set: Iterable[int]) -> SweepReport:
    """Exhaustive comparison over every surjective level map with n <= n_max.

    For each map and each block count d dividing n, the combinatorial
    parabolicity verdict is compared with the stabilizer oracle; when both
    say parabolic, the unipotent-inclusion criterion is compared with the
    nilradical oracle, and the closed-formula image of the restricted
    coordinate flag is checked to be the ambient coordinate flag.  Sweeps
    run 2 <= n_max <= 8 and are limited to `SWEEP_WORK_LIMIT` (ScaleError
    above it, before any case runs).
    """
    if not 2 <= n_max <= 8:
        raise DomainError(f"sweeps need 2 <= n_max <= 8, got {n_max}")
    d_list = sorted(set(d_set))
    if d_list and d_list[0] < 1:
        raise DomainError(f"block counts must be at least 1, got {d_list[0]}")
    work = sweep_work(n_max, d_list)
    if work > SWEEP_WORK_LIMIT:
        raise ScaleError(f"sweeps are limited to {SWEEP_WORK_LIMIT} units of work; got {work}")
    par_agree = 0
    par_bad: list[dict] = []
    uni_agree = 0
    uni_bad: list[dict] = []
    eval_checks = 0
    # One memo per sweep: cases share members, whole constraint systems and
    # the nilradical oracle's descent tests.
    memo: dict = {}
    for n in range(2, n_max + 1):
        for d in d_list:
            if n % d != 0:
                continue
            m = n // d
            for alpha in surjections(n):
                result = build_from_alpha(alpha, m)
                combinatorial = isinstance(result, ParabolicRestriction)
                flag = level_flag(alpha.values)
                oracle = stabilizer_oracle(flag, m, memo)
                if combinatorial == oracle.is_parabolic:
                    par_agree += 1
                else:
                    par_bad.append({"alpha": list(alpha.values), "m": m})
                    continue
                if not combinatorial:
                    continue
                uni_comb = unipotent_inclusion(result.graph)
                uni_oracle = nilradical_inclusion_oracle(flag, oracle, memo)
                if uni_comb == uni_oracle:
                    uni_agree += 1
                else:
                    uni_bad.append({"alpha": list(alpha.values), "m": m})
                if result.flag_type is not None:
                    emb = DiagonalEmbedding._from_valid(result.graph, result.flag_type)
                    # The tuple image is totally ordered, so the coordinate
                    # flag of beta in tuple order is the restricted flag.
                    source = level_flag(result.beta)
                    if emb.evaluate(source) != flag:
                        raise InternalCheckError(
                            f"restricted coordinate flag does not map to the ambient one for alpha={alpha.values}"
                        )
                    eval_checks += 1
    return SweepReport(
        parabolic_agreements=par_agree,
        parabolic_disagreements=tuple(par_bad),
        unipotent_agreements=uni_agree,
        unipotent_disagreements=tuple(uni_bad),
        evaluation_checks=eval_checks,
    )
