"""Evaluation and invariants of embeddings encoded by two-column graphs.

A DiagonalEmbedding pairs a valid EGraph with a source flag type in Q^m
and evaluates flags into Q^n, n = d*m, by filling each target member with
block copies of source members as the graph dictates (the graphs that
`build_from_alpha` built go through `_from_valid`, not validated again).  `evaluate`, the one
production route, uses the closed formula: one direct sum over colours per
target member.  The cumulative formula (a running sum over right vertices)
is kept as `cumulative_evaluate`, the independent reference the tests
compare `evaluate` against.

The module also computes the induced matrix on Picard generators (from the
graph alone, `graph_pullback`), the combinatorial linearity and
standard-extension criteria, the closed-form chain of constant spaces, the
unipotent-radical inclusion test on the graph (`unipotent_inclusion(g)`),
and the exhaustive sweep that compares every combinatorial verdict against
the exact oracle, with one restriction analysis and one stabilizer per
case.  The coordinate flags it compares are flagcore's `level_flag` of the
level values and of the block-level tuples.
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
from .errors import DomainError, InternalCheckError, Record, ScaleError, strict_int
from .flagcore import FlagType, PicardPullback, check_flag_type, level_flag, random_flag
from .ratlin import (
    Flag,
    RatSubspace,
    block_diagonal,
    block_embed,
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
        self._check_source()

    @classmethod
    def _from_valid(cls, graph: EGraph, source_type: FlagType) -> "DiagonalEmbedding":
        """An embedding of a graph valid by construction: only the source length is checked."""
        emb = object.__new__(cls)
        object.__setattr__(emb, "graph", graph)
        object.__setattr__(emb, "source_type", source_type)
        emb._check_source()
        return emb

    def _check_source(self) -> None:
        if self.source_type.length != self.graph.q - 1:
            raise DomainError(
                f"source type must have {self.graph.q - 1} members, got {self.source_type.length}"
            )

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
        try:
            if "alpha" in obj:
                m = strict_int(obj["m"], "m")
                return embedding_from_alpha(SurjectionAlpha.of(obj["alpha"]), m)
            graph = EGraph.from_json_obj(obj["graph"])
            source = FlagType.from_json_obj(obj["source_type"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad embedding document: {exc}") from exc
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


def cumulative_evaluate(emb: DiagonalEmbedding, flag: Flag) -> Flag:
    """Reference image by the cumulative formula, which the tests compare
    `DiagonalEmbedding.evaluate` against: walk down the right column
    adding source member i in block c for each edge (l_i, r_j) of colour
    c; member j is the running sum after r_j."""
    g = emb.graph
    at_position = {(j, c): i for (i, j, c) in g.edges}
    acc = RatSubspace.zero(emb.n)
    members = []
    for j in range(1, g.p):
        for c in range(1, g.d + 1):
            i = at_position.get((j, c), 0)
            if i:
                acc = acc + block_embed(flag.member(i), c, g.d)
        members.append(acc)
    return Flag(emb.n, tuple(members))


def graph_pullback(g: EGraph) -> PicardPullback:
    """Matrix of the induced map on preferred Picard generators.

    Row j sums, over colours, the source generator at the left endpoint of
    the last same-colour edge at or above r_j; endpoints 0 and q
    contribute nothing.  The graph is trusted to be valid.
    """
    rows = tuple(tuple(row.count(i) for i in range(1, g.q)) for row in g.closed_indices)
    return PicardPullback(g.q - 1, g.p - 1, rows)


def picard_pullback(emb: DiagonalEmbedding) -> PicardPullback:
    """The pullback matrix of the embedding's graph (`graph_pullback`)."""
    return graph_pullback(emb.graph)


def is_linear_graph(g: EGraph) -> bool:
    """Between consecutive right endpoints of any one colour, every ordinary
    edge must carry that colour."""
    _, ordinary = partition_edges(g)
    ordinary_colour: dict[int, set[int]] = {}
    for (i, j, c) in ordinary:
        ordinary_colour.setdefault(j, set()).add(c)
    for c in range(1, g.d + 1):
        endpoints = sorted(j for (_, j) in g.colour_class(c))
        for j1, j2 in zip(endpoints, endpoints[1:]):
            for j in range(j1, j2):
                if ordinary_colour.get(j, set()) - {c}:
                    return False
    return True


def is_standard_extension_graph(g: EGraph) -> bool:
    """All ordinary edges of one colour (then the embedding is a strict
    standard extension)."""
    _, ordinary = partition_edges(g)
    colours = {c for (_, _, c) in ordinary}
    return len(colours) <= 1


def constant_spaces(emb: DiagonalEmbedding) -> tuple[RatSubspace, ...]:
    """Closed-form chain of memberwise intersections over all images.

    The intersection at position j is the direct sum of the full blocks c
    whose closed index is q, i.e. whose bounding edge arrives at or above
    r_j: the closed formula of `evaluate` on the members full at q and
    zero below it.
    """
    q, m = emb.graph.q, emb.m
    full, zero = RatSubspace.full(m), RatSubspace.zero(m)
    return _block_sums(emb.graph, m, lambda i: full if i == q else zero)


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
    """Outcome of comparing combinatorial verdicts against the oracle."""

    cases: int
    parabolic_agreements: int
    parabolic_disagreements: tuple[dict, ...]
    unipotent_agreements: int
    unipotent_disagreements: tuple[dict, ...]
    evaluation_checks: int

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
# 3.4 s on a 2-vCPU Xeon VM) and every n = 7 block count but 1 (block
# counts 2..7: 113,787, about 3.9 s); n = 7 at d = 1 is 2,500,799 (about
# 39 s) and every n = 8 term is at least 545,835.
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
    cases = 0
    par_agree = 0
    par_bad: list[dict] = []
    uni_agree = 0
    uni_bad: list[dict] = []
    eval_checks = 0
    # One memo per sweep: cases share members and whole constraint systems.
    memo: dict = {}
    for n in range(2, n_max + 1):
        for d in d_list:
            if n % d != 0:
                continue
            m = n // d
            for alpha in surjections(n):
                cases += 1
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
                uni_oracle = nilradical_inclusion_oracle(flag, oracle)
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
        cases=cases,
        parabolic_agreements=par_agree,
        parabolic_disagreements=tuple(par_bad),
        unipotent_agreements=uni_agree,
        unipotent_disagreements=tuple(uni_bad),
        evaluation_checks=eval_checks,
    )
