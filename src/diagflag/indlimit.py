"""Ind-level constructions: chained graphs, realizations, admissibility.

This module works with direct limits of flag varieties along embeddings
encoded by two-column graphs.  A chained family of such graphs (an
SnGraph) pins down, level by level, a parabolic subgroup of the
block-diagonal ind-group attached to an exhaustion, and hence an
exhaustion of the quotient ind-variety.

Provided here:

* canonical exhaustions of an ind-variety of generalized flags presented
  by a level function on the basis vectors, with each step returned as
  explicit standard-extension data;
* a constructor realizing any generalized flag type with finitely many
  finite-dimensional quotients over any supernatural number;
* a three-valued admissibility decision with machine-checkable
  certificates for the general (infinitely many finite quotients) case;
* factorization of linear graphs into monochromatic-ordinary subgraphs
  and the threaded decomposition of chained graphs into direct factors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .diagembed import DiagonalEmbedding, graph_pullback, is_linear_graph
from .egraph import GRAPH_SIZE_LIMIT, EGraph, partition_edges
from .errors import DomainError, InternalCheckError, ScaleError, ValidationReport, strict_int
from .flagcore import FlagType, StandardExtensionData, level_flag
from .ratlin import RatSubspace
from .supernat import INF, ExhaustionSpec, SupernaturalNumber, divides_sn, step_ratio, validate_exhaustion

Quotient = int | float  # positive int, or INF


@dataclass(frozen=True)
class GeometricTail:
    """Infinitely many finite quotients of dimensions base * ratio^k, k >= 0."""

    base: int
    ratio: int

    def __post_init__(self) -> None:
        if self.base < 1 or self.ratio < 2:
            raise DomainError("geometric tail needs base >= 1 and ratio >= 2")

    def dim(self, k: int) -> int:
        return self.base * self.ratio**k

    def to_json_obj(self) -> dict:
        return {"kind": "geometric", "base": self.base, "ratio": self.ratio}


@dataclass(frozen=True)
class ConstantTail:
    """Infinitely many finite quotients, all of one dimension."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 1:
            raise DomainError("constant tail dimension must be positive")

    def to_json_obj(self) -> dict:
        return {"kind": "constant", "value": self.value}


Tail = GeometricTail | ConstantTail


@dataclass(frozen=True)
class GeneralizedFlagType:
    """Quotient data of a generalized flag.

    `finite_quotients` lists the explicitly given finite quotient
    dimensions (a multiset); `tail` optionally appends infinitely many
    further finite quotients by rule; `has_infinite_quotients` records
    whether infinite-dimensional quotients occur at all; and
    `ordered_presentation`, when the underlying chain is finite, lists the
    quotients in order (INF marking the infinite ones).
    """

    finite_quotients: tuple[int, ...]
    tail: Tail | None
    has_infinite_quotients: bool
    ordered_presentation: tuple[Quotient, ...] | None = None

    def __post_init__(self) -> None:
        if any((not isinstance(d, int)) or d < 1 for d in self.finite_quotients):
            raise DomainError("finite quotient dimensions must be positive integers")
        if not self.finite_quotients and self.tail is None and not self.has_infinite_quotients:
            raise DomainError("the quotient data must be nonempty")
        if self.ordered_presentation is not None:
            if self.tail is not None:
                raise DomainError("a finite ordered presentation cannot carry a tail rule")
            finite = sorted(d for d in self.ordered_presentation if d is not INF)
            if finite != sorted(self.finite_quotients):
                raise DomainError("ordered presentation disagrees with the finite quotients")
            has_inf = any(d is INF for d in self.ordered_presentation)
            if has_inf != self.has_infinite_quotients:
                raise DomainError("ordered presentation disagrees on infinite quotients")

    def to_json_obj(self) -> dict:
        return {
            "finite_quotients": list(self.finite_quotients),
            "tail": None if self.tail is None else self.tail.to_json_obj(),
            "infinite_quotients": self.has_infinite_quotients,
            "ordered": None
            if self.ordered_presentation is None
            else ["inf" if d is INF else d for d in self.ordered_presentation],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GeneralizedFlagType":
        try:
            tail_obj = obj.get("tail")
            tail: Tail | None
            if tail_obj is None:
                tail = None
            elif tail_obj["kind"] == "geometric":
                tail = GeometricTail(
                    strict_int(tail_obj["base"], "base"), strict_int(tail_obj["ratio"], "ratio")
                )
            elif tail_obj["kind"] == "constant":
                tail = ConstantTail(strict_int(tail_obj["value"], "value"))
            else:
                raise DomainError(f"unknown tail kind {tail_obj['kind']!r}")
            ordered = obj.get("ordered")
            ordered_t = (
                None
                if ordered is None
                else tuple(INF if d == "inf" else strict_int(d, "a quotient") for d in ordered)
            )
            return cls(
                finite_quotients=tuple(
                    strict_int(d, "a quotient") for d in obj["finite_quotients"]
                ),
                tail=tail,
                has_infinite_quotients=bool(obj["infinite_quotients"]),
                ordered_presentation=ordered_t,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad generalized-flag-type document: {exc}") from exc


@dataclass(frozen=True)
class SnGraph:
    """Chained two-column graphs, one per exhaustion step.

    `prefix` gives the first level graphs explicitly; when `period` is
    set, the last `period` entries of the prefix repeat forever.  Column
    n+1 of the chain is shared between levels n and n+1, so the right
    vertex count of each level must equal the left vertex count of the
    next, and column sizes are bounded by the exhaustion terms.
    """

    spec: ExhaustionSpec
    prefix: tuple[EGraph, ...]
    period: int | None = None

    def __post_init__(self) -> None:
        if not self.prefix:
            raise DomainError("an SnGraph needs at least one level")
        if self.period is not None and not 1 <= self.period <= len(self.prefix):
            raise DomainError("period must index a suffix of the prefix")

    def level(self, n: int) -> EGraph:
        """The level-n graph (1-based), resolving the periodic rule."""
        if n < 1:
            raise DomainError("levels are 1-based")
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        if self.period is None:
            raise DomainError(f"level {n} is beyond the explicit prefix")
        offset = (n - len(self.prefix) - 1) % self.period
        return self.prefix[len(self.prefix) - self.period + offset]

    def to_json_obj(self) -> dict:
        return {
            "spec": self.spec.to_json_obj(),
            "levels": [g.to_json_obj() for g in self.prefix],
            "period": self.period,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SnGraph":
        try:
            spec = ExhaustionSpec.from_json_obj(obj["spec"])
            prefix = tuple(EGraph.from_json_obj(g) for g in obj["levels"])
            period = obj.get("period")
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad chained-graph document: {exc}") from exc
        return cls(spec, prefix, None if period is None else strict_int(period, "period"))


def validate_sn_graph(sg: SnGraph, upto: int | None = None) -> ValidationReport:
    """Per-level validity, chaining, and column-size bounds."""
    violations: list[str] = []
    levels = upto if upto is not None else len(sg.prefix)
    if sg.period is None and levels > len(sg.prefix):
        raise DomainError("cannot validate beyond the explicit prefix of an aperiodic chain")
    extra = 1 if (sg.period is not None or levels < len(sg.prefix)) else 0
    terms = list(sg.spec.terms(levels + 1))
    for n in range(1, levels + 1):
        g = sg.level(n)
        for v in g.violations:
            violations.append(f"level {n}: {v}")
        if g.q > terms[n - 1]:
            violations.append(
                f"level {n}: column size {g.q} exceeds the exhaustion term {terms[n - 1]}"
            )
        if g.d != step_ratio(sg.spec, n):
            violations.append(
                f"level {n}: colour count {g.d} differs from the step ratio {step_ratio(sg.spec, n)}"
            )
        nxt = n + 1
        if nxt <= levels + extra:
            try:
                g2 = sg.level(nxt)
            except DomainError:
                continue
            if g.p != g2.q:
                violations.append(
                    f"levels {n}/{nxt}: right column size {g.p} does not chain with left column size {g2.q}"
                )
    return ValidationReport(tuple(violations))


# ---------------------------------------------------------------------------
# canonical exhaustions of ind-varieties of generalized flags


def canonical_exhaustion(
    sigma_values: Sequence[int], chain_size: int, n_max: int
) -> list[tuple[FlagType, StandardExtensionData]]:
    """Step data of the canonical exhaustion of a generalized-flag ind-variety.

    `sigma_values` assigns each basis vector its chain position (values on
    1..n_max+1 are required and must cover 1..chain_size).  For each n the
    returned pair holds the flag type cut out in the span of the first n
    vectors and the standard-extension data of the step into n+1: the new
    basis vector enters at the first member containing it, either growing
    the members from that point on or inserting a new member.
    """
    values = [int(v) for v in sigma_values]
    if len(values) < n_max + 1:
        raise DomainError("sigma must be given on 1..n_max+1")
    if any(not 1 <= v <= chain_size for v in values[: n_max + 1]):
        raise DomainError("sigma values must lie in the declared chain")
    if set(values[: n_max + 1]) != set(range(1, chain_size + 1)):
        raise DomainError("sigma is not surjective onto its declared chain within the prefix")
    out: list[tuple[FlagType, StandardExtensionData]] = []
    flag_n = level_flag(values[:1])
    for n in range(1, n_max + 1):
        # flag_n is the canonical flag in the span of the first n vectors.
        flag_next = level_flag(values[: n + 1])
        dims_n = (*flag_n.dims, n)
        dims_next = (*flag_next.dims, n + 1)
        p_n, p_next = len(dims_n), len(dims_next)
        if p_next not in (p_n, p_n + 1):
            raise InternalCheckError("member count may grow by at most one per step")
        source = FlagType(n, flag_n.dims)
        level = values[n]  # position of e_{n+1}
        entry_dim = sum(1 for k in range(n + 1) if values[k] <= level)
        i0 = dims_next.index(entry_dim) + 1
        k = p_n - 1
        ell = k if p_next == p_n else k + 1
        new_line = RatSubspace.span(n + 1, [[0] * n + [1]])
        zero = RatSubspace.zero(n + 1)
        eps = tuple(tuple(Fraction(1 if r == c else 0) for c in range(n)) for r in range(n + 1))
        if p_next == p_n:
            kappa = tuple(range(1, k + 1))
        else:
            kappa = tuple(j if j < i0 else j - 1 for j in range(1, ell + 1))
        chain = tuple(zero if j < i0 else new_line for j in range(1, ell + 1))
        data = StandardExtensionData(source, eps, chain, kappa)
        # The canonical flags themselves must map to one another.
        if data.evaluate(flag_n) != flag_next:
            raise InternalCheckError("step data does not map the canonical flag forward")
        out.append((source, data))
        flag_n = flag_next
    return out


# ---------------------------------------------------------------------------
# realization of generalized flag types with finite A'


@dataclass(frozen=True)
class Realization:
    """A chained-graph realization together with its per-level flag types."""

    sn_graph: SnGraph
    level_types: tuple[FlagType, ...]  # types of X_1 .. X_{levels+1}
    level_quotients: tuple[tuple[int, ...], ...]


def build_realization_sn_graph(
    gft: GeneralizedFlagType,
    sn: SupernaturalNumber,
    spec: ExhaustionSpec,
    levels: int = 8,
) -> Realization:
    """Realize a generalized flag type with finitely many finite quotients
    as a chained-graph exhaustion over the given supernatural number.

    Requires an ordered presentation (a finite chain).  Level n keeps every
    member and feeds the d_n - 1 new block copies into the infinite
    quotients in round-robin order, so each level graph has straight
    colour-1 edges plus one bounding edge per extra colour: exactly the
    two one-block standard-extension shapes, hence a strict standard
    extension at every level.
    """
    if gft.tail is not None:
        raise DomainError("realization requires finitely many finite quotients (no tail rule)")
    if gft.ordered_presentation is None:
        raise DomainError("realization requires an ordered presentation")
    if not gft.has_infinite_quotients:
        raise DomainError("realization requires at least one infinite quotient")
    report = validate_exhaustion(spec, sn)
    if not report.ok:
        raise DomainError(f"invalid exhaustion: {'; '.join(report.violations)}")
    ordered = gft.ordered_presentation
    t = len(ordered)
    inf_positions = [i + 1 for i, v in enumerate(ordered) if v is INF]
    finite_sum = sum(v for v in ordered if v is not INF)
    needed = finite_sum + len(inf_positions)
    if spec.s1 < needed:
        raise DomainError(
            f"first exhaustion term {spec.s1} is too small; need at least {needed}"
        )
    quotients = [1 if v is INF else int(v) for v in ordered]
    quotients[inf_positions[-1] - 1] += spec.s1 - needed
    s = spec.s1
    rr = 0
    graphs: list[EGraph] = []
    types: list[FlagType] = [_type_of_quotients(quotients, s)]
    all_quotients = [tuple(quotients)]
    for n in range(1, levels + 1):
        d = step_ratio(spec, n)
        if d > GRAPH_SIZE_LIMIT:  # refused before its d - 1 edges are built
            raise ScaleError(f"step ratio {d} exceeds the graph colour limit {GRAPH_SIZE_LIMIT}")
        edges = {(i, i, 1) for i in range(1, t + 1)}
        for c in range(2, d + 1):
            target = inf_positions[rr % len(inf_positions)]
            rr += 1
            quotients[target - 1] += s
            edges.add((t, target, c))
        g = EGraph(t, t, d, frozenset(edges))
        if g.violations:
            raise InternalCheckError(f"constructed level graph invalid: {g.violations}")
        s *= d
        graphs.append(g)
        types.append(_type_of_quotients(quotients, s))
        all_quotients.append(tuple(quotients))
        emb = DiagonalEmbedding(g, types[-2])
        if emb.target_type != types[-1]:
            raise InternalCheckError("level graph does not produce the expected flag type")
    period = _detect_period(graphs)
    sg = SnGraph(spec, tuple(graphs), period)
    return Realization(sg, tuple(types), tuple(all_quotients))


def _type_of_quotients(quotients: Sequence[int], total: int) -> FlagType:
    if sum(quotients) != total:
        raise InternalCheckError("quotient dimensions do not sum to the ambient dimension")
    dims = tuple(itertools.accumulate(quotients[:-1]))
    return FlagType(total, dims)


def _detect_period(graphs: Sequence[EGraph]) -> int | None:
    """Smallest full period of the emitted level graphs, if any."""
    for period in range(1, len(graphs) // 2 + 1):
        if all(graphs[i] == graphs[i + period] for i in range(len(graphs) - period)):
            return period
    return None


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Witness for admissibility: an exhaustion and a quotient numbering.

    `numbering_prefix` lists the quotient dimensions picked at steps
    1..N; `tail_rule` documents how the numbering continues (for tails,
    remaining tail dimensions in increasing order).  The certificate is
    accepted only after both defining clauses are re-verified on the
    prefix, whose length is recorded.
    """

    kind: str  # "finite" | "numbered"
    exhaustion: ExhaustionSpec | None
    numbering_prefix: tuple[int, ...]
    tail_rule: str | None
    verified_prefix_length: int

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "exhaustion": None if self.exhaustion is None else self.exhaustion.to_json_obj(),
            "numbering_prefix": list(self.numbering_prefix),
            "tail_rule": self.tail_rule,
            "verified_prefix_length": self.verified_prefix_length,
        }


@dataclass(frozen=True)
class RefutationProof:
    """Divisibility obstruction for a constant tail: any exhaustion
    eventually exceeds the constant dimension (cofinality forces the
    witness divisor into the chain), after which the second defining
    clause fails for the infinitely many remaining quotients."""

    constant_value: int
    witness_divisor: int
    verified_prefix_length: int

    def to_json_obj(self) -> dict:
        return {
            "kind": "constant_tail_divisibility",
            "constant_value": self.constant_value,
            "witness_divisor": self.witness_divisor,
            "verified_prefix_length": self.verified_prefix_length,
        }


@dataclass(frozen=True)
class Admissible:
    certificate: AdmissibilityCertificate


@dataclass(frozen=True)
class NotAdmissible:
    proof: RefutationProof


@dataclass(frozen=True)
class Unknown:
    reason: str
    candidates_searched: int


AdmissibilityResult = Admissible | NotAdmissible | Unknown


def _greedy_numbering(
    gft: GeneralizedFlagType,
    spec: ExhaustionSpec,
    max_steps: int,
    min_prefix: int,
) -> tuple[int, ...] | None:
    """Greedy smallest-dimension-first numbering along the exhaustion.

    Returns at least `min_prefix` picked dimensions once the explicit
    quotients are exhausted and the (cycle position, tail dimension over
    term) state repeats; the repetition certifies that both defining
    clauses hold forever.  None when a clause fails, no pick is available,
    or no state repeats within `max_steps`.
    """
    tail = gft.tail
    explicit = sorted(gft.finite_quotients)
    tail_k = 0
    picked: list[int] = []
    s = spec.s1
    states: set[tuple[int, Fraction]] = set()
    certified = False
    for n in range(1, max_steps + 1):
        if certified and len(picked) >= min_prefix:
            return tuple(picked)
        d = step_ratio(spec, n)
        remaining_min_tail = tail.dim(tail_k) if isinstance(tail, GeometricTail) else None
        # clause 2: s_n divides every remaining dimension
        if any(dim % s for dim in explicit):
            return None
        if remaining_min_tail is not None and remaining_min_tail % s:
            return None
        # pickable: remaining dimensions with ratio in 1..d-1
        options: list[tuple[int, int]] = []  # (dim, source: 0 explicit / 1 tail)
        for dim in explicit:
            if s <= dim < s * d and dim % s == 0:
                options.append((dim, 0))
                break
        if remaining_min_tail is not None and s <= remaining_min_tail < s * d:
            options.append((remaining_min_tail, 1))
        if not options:
            return None
        dim, source = min(options)
        picked.append(dim)
        if source == 0:
            explicit.remove(dim)
        else:
            tail_k += 1
        if not explicit and isinstance(tail, GeometricTail):
            state = ((n % len(spec.cycle)), Fraction(tail.dim(tail_k), s * d))
            if state in states:
                certified = True
            states.add(state)
        s *= d
    return None


def verify_certificate(
    gft: GeneralizedFlagType,
    sn: SupernaturalNumber,
    cert: AdmissibilityCertificate,
    prefix_len: int = 12,
) -> bool:
    """Recompute both defining clauses of admissibility on the prefix."""
    if cert.kind == "finite":
        return gft.tail is None
    if cert.exhaustion is None:
        return False
    if not validate_exhaustion(cert.exhaustion, sn).ok:
        return False
    if len(cert.numbering_prefix) < prefix_len:
        return False
    explicit = sorted(gft.finite_quotients)
    tail_k = 0
    s = cert.exhaustion.s1
    for n, dim in enumerate(cert.numbering_prefix, start=1):
        d = step_ratio(cert.exhaustion, n)
        ratio = Fraction(dim, s)
        if ratio.denominator != 1 or not 1 <= ratio <= d - 1:
            return False
        if dim in explicit:
            explicit.remove(dim)
        elif isinstance(gft.tail, GeometricTail) and dim == gft.tail.dim(tail_k):
            tail_k += 1
        else:
            return False
        for rem in explicit:
            if rem % s:
                return False
        if isinstance(gft.tail, GeometricTail) and gft.tail.dim(tail_k) % s:
            return False
        s *= d
    return True


def verify_refutation(
    gft: GeneralizedFlagType, sn: SupernaturalNumber, proof: RefutationProof
) -> bool:
    """Check the constant-tail obstruction: the witness is a finite divisor
    exceeding the constant dimension, so by cofinality every exhaustion
    contains a term that cannot divide the infinitely many remaining
    quotients of that dimension."""
    if not isinstance(gft.tail, ConstantTail):
        return False
    c = gft.tail.value
    return (
        proof.constant_value == c
        and proof.witness_divisor > c
        and divides_sn(proof.witness_divisor, sn)
    )


def admissible(
    gft: GeneralizedFlagType,
    sn: SupernaturalNumber,
    bound: int = 64,
    prefix_len: int = 12,
    max_steps: int = 200,
    max_cycle_len: int = 2,
) -> AdmissibilityResult:
    """Decide whether the generalized flag type can be realized over sn.

    A finite set of finite quotients is always admissible.  A constant
    tail is never admissible over an infinite supernatural number, with a
    machine-checkable divisibility proof.  For geometric tails the search
    ranges over periodic exhaustions with first term and multipliers
    bounded by `bound`, running the greedy smallest-dimension numbering
    with loop detection; an inconclusive search returns Unknown rather
    than a verdict.  A bound below 2 admits no multiplier and is rejected.
    """
    if bound < 2:
        raise DomainError(f"bound must be at least 2, got {bound}")
    if gft.tail is None:
        cert = AdmissibilityCertificate(
            kind="finite",
            exhaustion=None,
            numbering_prefix=(),
            tail_rule=None,
            verified_prefix_length=0,
        )
        return Admissible(cert)
    if isinstance(gft.tail, ConstantTail):
        c = gft.tail.value
        witness = next(d for d in sn.divisors_up_to(max(bound, 2 * c + 2)) if d > c)
        proof = RefutationProof(
            constant_value=c, witness_divisor=witness, verified_prefix_length=prefix_len
        )
        if not verify_refutation(gft, sn, proof):
            raise InternalCheckError("constructed refutation failed its own check")
        return NotAdmissible(proof)

    searched = 0
    finite_fixed = 1
    for p, a in sn.finite_factor_pairs:
        finite_fixed *= p**a
    inf_primes = sn.infinite_primes
    multipliers = [
        m
        for m in SupernaturalNumber.from_factors(
            {p: INF for p in inf_primes}
        ).divisors_up_to(bound)
        if m >= 2
    ]
    s1_candidates = [
        s1 for s1 in sn.divisors_up_to(bound) if s1 % finite_fixed == 0
    ]
    for s1 in s1_candidates:
        for length in range(1, max_cycle_len + 1):
            for cycle in itertools.product(multipliers, repeat=length):
                spec = ExhaustionSpec(s1, cycle)
                if not validate_exhaustion(spec, sn).ok:
                    continue
                searched += 1
                picked = _greedy_numbering(gft, spec, max_steps, prefix_len)
                if picked is None:
                    continue
                cert = AdmissibilityCertificate(
                    kind="numbered",
                    exhaustion=spec,
                    numbering_prefix=picked,
                    tail_rule="remaining tail dimensions in increasing order",
                    verified_prefix_length=len(picked),
                )
                if not verify_certificate(gft, sn, cert, prefix_len):
                    raise InternalCheckError("greedy certificate failed independent re-verification")
                return Admissible(cert)
    return Unknown(
        reason="bounded search over periodic exhaustions was inconclusive",
        candidates_searched=searched,
    )


# ---------------------------------------------------------------------------
# factorization


@dataclass(frozen=True)
class GraphFactor:
    """One monochromatic-ordinary subgraph of a linear graph.

    `left_map` / `right_map` give the original vertex indices the factor's
    renumbered vertices came from.
    """

    colour: int
    graph: EGraph
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]


def factor_linear_egraph(g: EGraph) -> list[GraphFactor]:
    """Split a linear graph into one factor per colour: all bounding edges
    are kept, ordinary edges of other colours are removed, and vertices
    left bare are dropped with their columns renumbered.  Every factor is
    a valid graph whose ordinary edges are monochromatic, hence encodes a
    strict standard extension."""
    if not is_linear_graph(g):
        raise DomainError("factorization requires a linear graph")
    bounding, ordinary = partition_edges(g)
    factors = []
    for c in range(1, g.d + 1):
        keep = set(bounding) | {e for e in ordinary if e[2] == c}
        lefts = sorted({i for (i, _, _) in keep})
        rights = sorted({j for (_, j, _) in keep})
        lmap = {i: idx + 1 for idx, i in enumerate(lefts)}
        rmap = {j: idx + 1 for idx, j in enumerate(rights)}
        sub = EGraph(
            len(lefts),
            len(rights),
            g.d,
            frozenset((lmap[i], rmap[j], cc) for (i, j, cc) in keep),
        )
        if sub.violations:
            raise InternalCheckError(f"factor for colour {c} invalid: {sub.violations}")
        ordinary_colours = {cc for (i, _, cc) in sub.edges if i != sub.q}
        if len(ordinary_colours) > 1:
            raise InternalCheckError("factor has mixed ordinary colours")
        factors.append(
            GraphFactor(colour=c, graph=sub, left_map=tuple(lefts), right_map=tuple(rights))
        )
    return factors


def factor_pullback_additivity(g: EGraph) -> bool:
    """Each pullback row of a linear graph is the sum of the corresponding
    factor rows, re-embedded along the factors' vertex maps."""
    return _pullback_is_sum(
        g, ((f.graph, f.left_map, f.right_map) for f in factor_linear_egraph(g))
    )


def _pullback_is_sum(
    g: EGraph, parts: Iterable[tuple[EGraph, Sequence[int], Sequence[int]]]
) -> bool:
    """Whether the pullback of g equals the sum of the parts' pullbacks,
    each re-embedded along its (lefts, rights) vertex maps; the last vertex
    of each map is a column's bottom vertex and carries no generator."""
    total = [[0] * (g.q - 1) for _ in range(g.p - 1)]
    for sub_graph, lefts, rights in parts:
        sub = graph_pullback(sub_graph).matrix
        for r, orig_right in enumerate(rights[:-1]):
            for col, orig_left in enumerate(lefts[:-1]):
                total[orig_right - 1][orig_left - 1] += sub[r][col]
    return [list(row) for row in graph_pullback(g).matrix] == total


def _kept_vertices(g: EGraph, colour: int) -> list[int]:
    """Left vertices of g carrying ordinary edges of `colour`, plus the
    bottom vertex: the column a threaded factor keeps."""
    _, ordinary = partition_edges(g)
    return sorted({i for (i, _, cc) in ordinary if cc == colour} | {g.q})


def decompose_sn_graph(
    sg: SnGraph,
    prefix_len: int,
    threading: Sequence[Sequence[int]] | None = None,
) -> list[SnGraph]:
    """Thread per-level factors into chained factor graphs.

    `threading[n-1][f-1]` names the colour class of level n feeding factor
    f; the default is the identity (colour f throughout).  Factor f keeps,
    at each column, the vertices carrying its ordinary edges plus the
    bottom vertex; bounding edges are re-attached to the first kept vertex
    at or below their arrival.  The declaration is rejected when a level
    is non-linear, when colour counts vary, when an ordinary edge leaves
    the kept columns, or when the factor pullbacks fail to add up to the
    level pullback.
    """
    d = sg.level(1).d
    for n in range(1, prefix_len + 1):
        g = sg.level(n)
        if g.d != d:
            raise DomainError("decomposition requires a constant colour count across the prefix")
        if not is_linear_graph(g):
            raise DomainError(f"level {n} is not linear")
    sg.level(prefix_len + 1)  # the final kept columns need one level beyond
    if threading is None:
        threading = [tuple(range(1, d + 1))] * (prefix_len + 1)
    if len(threading) < prefix_len + 1:
        raise DomainError("threading must cover prefix_len + 1 levels")
    for row in threading[: prefix_len + 1]:
        if sorted(row) != list(range(1, d + 1)):
            raise DomainError("each threading row must be a permutation of the colours")

    factors: list[SnGraph] = []
    for f in range(1, d + 1):
        level_graphs = []
        for n in range(1, prefix_len + 1):
            g = sg.level(n)
            colour = threading[n - 1][f - 1]
            bounding, ordinary = partition_edges(g)
            lefts = _kept_vertices(g, colour)
            rights = _kept_vertices(sg.level(n + 1), threading[n][f - 1])
            lmap = {i: idx + 1 for idx, i in enumerate(lefts)}
            rmap = {j: idx + 1 for idx, j in enumerate(rights)}
            edges: set[tuple[int, int, int]] = set()
            for (i, j, cc) in ordinary:
                if cc != colour:
                    continue
                if j not in rmap:
                    raise DomainError(
                        f"inconsistent threading: level {n} colour {colour} ordinary edge "
                        f"arrives at a column vertex the factor drops"
                    )
                edges.add((lmap[i], rmap[j], cc))
            for (i, j, cc) in bounding:
                target = min((r for r in rights if r >= j), default=None)
                if target is None:
                    raise DomainError("inconsistent threading: bounding edge below every kept vertex")
                edges.add((lmap[i], rmap[target], cc))
            sub = EGraph(len(lefts), len(rights), d, frozenset(edges))
            if sub.violations:
                raise DomainError(
                    f"inconsistent threading: level {n} factor {f} is invalid ({'; '.join(sub.violations)})"
                )
            ordinary_colours = {cc for (i, _, cc) in sub.edges if i != sub.q}
            if len(ordinary_colours) > 1:
                raise InternalCheckError("threaded factor has mixed ordinary colours")
            level_graphs.append(sub)
        factors.append(SnGraph(sg.spec, tuple(level_graphs), None))
    for n in range(1, prefix_len + 1):
        if not threaded_pullback_additivity(sg, factors, threading, n):
            raise DomainError(
                f"inconsistent threading: level {n} factor pullbacks do not sum to the level pullback"
            )
    return factors


def threaded_pullback_additivity(
    sg: SnGraph,
    factors: Sequence[SnGraph],
    threading: Sequence[Sequence[int]],
    n: int,
) -> bool:
    """Level-n pullback of the chain equals the sum of its factors'
    pullbacks re-embedded along the kept-vertex maps."""
    g = sg.level(n)
    return _pullback_is_sum(
        g,
        (
            (
                factor.prefix[n - 1],
                _kept_vertices(g, threading[n - 1][f]),
                _kept_vertices(sg.level(n + 1), threading[n][f]),
            )
            for f, factor in enumerate(factors)
        ),
    )
