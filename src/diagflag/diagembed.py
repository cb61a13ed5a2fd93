"""Evaluation and invariants of embeddings encoded by two-column graphs.

A DiagonalEmbedding pairs a valid EGraph with a source flag type in Q^m
and evaluates flags into Q^n, n = d*m, by filling each target member with
block copies of source members as the graph dictates.  `evaluate` uses the
closed formula, one direct sum over colours per target member.  The
cumulative formula (a running sum over right vertices) is kept as the
independent reference `cumulative_evaluate`; `checked_evaluate` compares
the two, and the oracle sweep, the CLI `embed` command and the tests run it.

The module also computes the induced matrix on Picard generators (from the
graph alone, `graph_pullback`), the combinatorial linearity and
standard-extension criteria, the closed-form chain of constant spaces, the
unipotent-radical inclusion test on the graph (`unipotent_inclusion(g)`),
the coordinate flags `coordinate_flag_of_alpha(alpha)` and
`coordinate_flag_of_beta(restriction)`, and the exhaustive sweep that
compares every combinatorial verdict against the exact oracle, with one
restriction analysis and one stabilizer per case.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .egraph import (
    EGraph,
    NotParabolic,
    ParabolicRestriction,
    SurjectionAlpha,
    build_from_alpha,
    partition_edges,
    random_restriction,
    require_valid,
    surjections,
)
from .errors import DomainError, InternalCheckError, strict_int
from .flagcore import FlagType, PicardPullback, flag_type_of, level_flag, random_flag
from .ratlin import (
    Flag,
    RatSubspace,
    block_diagonal,
    block_embed,
    nilradical_inclusion_oracle,
    random_invertible,
    stabilizer_oracle,
)


@dataclass(frozen=True)
class DiagonalEmbedding:
    """A valid graph together with the source flag type it acts on."""

    graph: EGraph
    source_type: FlagType

    def __post_init__(self) -> None:
        require_valid(self.graph)
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
        sum over colours c of source member `closed_indices[j][c]` in block c.

        The blocks are disjoint coordinate ranges taken in colour order, so
        the concatenated canonical block bases are already canonical RREF
        (pivots increase block by block, and each pivot column is zero in
        the other blocks' rows); no elimination runs.  Each closed index
        is nondecreasing in j and the source members are nested, so the
        image members are nested and no containment test runs.
        """
        if flag_type_of(flag) != self.source_type:
            raise DomainError("flag does not match the source type")
        d, n = self.graph.d, self.n
        members = []
        for row in self.graph.closed_indices:
            rows: tuple = ()
            for c, i in enumerate(row, start=1):
                if i:
                    rows += block_embed(flag.member(i), c, d).rows
            members.append(RatSubspace._from_rref(n, rows))
        return Flag._from_nested(n, tuple(members))

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph.to_json_obj(),
            "source_type": self.source_type.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DiagonalEmbedding":
        try:
            if "alpha" in obj:
                values = [strict_int(v, "an alpha value") for v in obj["alpha"]]
                m = strict_int(obj["m"], "m")
                return embedding_from_alpha(SurjectionAlpha.of(values), m)
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
    return DiagonalEmbedding(result.graph, source)


def cumulative_evaluate(emb: DiagonalEmbedding, flag: Flag) -> Flag:
    """Reference image by the cumulative formula, the cross-check for
    `DiagonalEmbedding.evaluate`: walk down the right column adding source
    member i in block c for each edge (l_i, r_j) of colour c; member j is
    the running sum after r_j."""
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


def checked_evaluate(emb: DiagonalEmbedding, flag: Flag) -> Flag:
    """`emb.evaluate(flag)`, compared against the cumulative reference."""
    image = emb.evaluate(flag)
    if cumulative_evaluate(emb, flag) != image:
        raise InternalCheckError(
            "cumulative and closed evaluation formulas disagree; graph/type data is inconsistent"
        )
    return image


def coordinate_flag_of_alpha(alpha: SurjectionAlpha) -> Flag:
    """The coordinate flag whose stabilizer the level map describes."""
    return level_flag(alpha.values)


def coordinate_flag_of_beta(restriction: ParabolicRestriction) -> Flag:
    """The restricted flag in Q^m: members span the e_r whose block-level
    tuple is at most each image tuple but the last in turn.  The image is
    totally ordered, so tuple order and componentwise order agree on it."""
    return level_flag(restriction.beta)


def graph_pullback(g: EGraph) -> PicardPullback:
    """Matrix of the induced map on preferred Picard generators.

    Row j sums, over colours, the source generator at the left endpoint of
    the last same-colour edge at or above r_j; endpoints 0 and q
    contribute nothing.  The graph is trusted to be valid.
    """
    rows = tuple(tuple(row.count(i) for i in range(1, g.q)) for row in g.closed_indices)
    return PicardPullback(source_rank=g.q - 1, target_rank=g.p - 1, matrix=rows)


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

    The intersection at position j is the direct sum of the full blocks
    whose bounding edge arrives at or above r_j; ordering colours by the
    right endpoints of their bounding edges makes the chain nested.
    """
    g = emb.graph
    bounding, _ = partition_edges(g)
    arrival = {c: j for (_, j, c) in bounding}
    full = RatSubspace.full(emb.m)
    out = []
    for j in range(1, g.p):
        blocks = [c for c in range(1, g.d + 1) if arrival[c] <= j]
        out.append(
            sum(
                (block_embed(full, c, g.d) for c in blocks),
                RatSubspace.zero(emb.n),
            )
        )
    return tuple(out)


def unipotent_inclusion(g: EGraph) -> bool:
    """Whether, for the parabolic restriction with graph g, the unipotent
    radical of the restricted stabilizer lands in the unipotent radical of
    the ambient one.

    Holds exactly when every left vertex of the graph meets exactly one
    edge of each colour (equivalently, distinct block-level tuples differ
    in every coordinate; the tests compare the two characterizations).
    """
    degree = Counter(i for (i, _, _) in g.edges)
    return all(degree[i] == g.d for i in range(1, g.q + 1))


@dataclass(frozen=True)
class EquivarianceReport:
    trials: int
    failures: tuple[int, ...]  # indices of failed trials

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {"trials": self.trials, "failures": list(self.failures), "ok": self.ok}


def equivariance_check(emb: DiagonalEmbedding, trials: int, seed: int = 0) -> EquivarianceReport:
    """Evaluate(g . F) must equal diag(g, ..., g) . evaluate(F) for random
    invertible g and random flags F."""
    rng = random.Random(f"diagflag-equivariance-{seed}")
    failures = []
    for t in range(trials):
        g = random_invertible(emb.m, rng)
        flag = random_flag(emb.source_type, rng)
        big = block_diagonal(g, emb.graph.d)
        if emb.evaluate(flag.apply(g)) != emb.evaluate(flag).apply(big):
            failures.append(t)
    return EquivarianceReport(trials=trials, failures=tuple(failures))


def random_embedding(
    rng: random.Random, max_n: int = 8, d_choices: Sequence[int] = (2, 3)
) -> DiagonalEmbedding:
    """Random embedding drawn through random level maps; the source type is
    the restricted flag type the analysis produces."""
    result = random_restriction(rng, max_n, d_choices)
    return DiagonalEmbedding(result.graph, result.flag_type)


@dataclass(frozen=True)
class SweepReport:
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


def oracle_sweep(n_max: int, d_set: Iterable[int]) -> SweepReport:
    """Exhaustive comparison over every surjective level map with n <= n_max.

    For each map and each block count d dividing n, the combinatorial
    parabolicity verdict is compared with the stabilizer oracle; when both
    say parabolic, the unipotent-inclusion criterion is compared with the
    nilradical oracle, and the image of the restricted coordinate flag is
    checked to be the ambient coordinate flag, by the closed formula and by
    the cumulative reference.
    """
    if n_max > 8:
        raise DomainError("sweeps are limited to n_max <= 8")
    d_list = sorted(set(d_set))
    if d_list and d_list[0] < 1:
        raise DomainError(f"block counts must be at least 1, got {d_list[0]}")
    cases = 0
    par_agree = 0
    par_bad: list[dict] = []
    uni_agree = 0
    uni_bad: list[dict] = []
    eval_checks = 0
    for n in range(2, n_max + 1):
        for d in d_list:
            if n % d != 0:
                continue
            m = n // d
            for alpha in surjections(n):
                cases += 1
                result = build_from_alpha(alpha, m)
                combinatorial = isinstance(result, ParabolicRestriction)
                flag = coordinate_flag_of_alpha(alpha)
                oracle = stabilizer_oracle(flag, m)
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
                    emb = DiagonalEmbedding(result.graph, result.flag_type)
                    source = coordinate_flag_of_beta(result)
                    if checked_evaluate(emb, source) != flag:
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
