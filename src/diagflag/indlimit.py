"""Ind-level constructions: chained graphs, realizations, admissibility.

This module works with direct limits of flag varieties along embeddings
encoded by two-column graphs.  A chained family of such graphs (an
SnGraph) pins down, level by level, a parabolic subgroup of the
block-diagonal ind-group attached to an exhaustion, and hence an
exhaustion of the quotient ind-variety.

Provided here:

* canonical exhaustions of an ind-variety of generalized flags presented
  by a level function on the basis vectors, with each step computed by
  counting the level values and returned as explicit standard-extension
  data;
* a constructor realizing any generalized flag type with finitely many
  finite-dimensional quotients over any supernatural number;
* a three-valued admissibility decision with machine-checkable
  certificates for the general (infinitely many finite quotients) case;
* factorization of linear graphs into monochromatic-ordinary subgraphs
  and the threaded decomposition of chained graphs into direct factors.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .diagembed import DiagonalEmbedding, graph_pullback, is_linear_graph
from .egraph import CLOSED_INDEX_LIMIT, GRAPH_SIZE_LIMIT, EGraph, partition_edges
from .errors import (
    DomainError,
    InternalCheckError,
    Record,
    ScaleError,
    ValidationReport,
    strict_bool,
    strict_int,
)
from .flagcore import FlagType, StandardExtensionData, level_dims
from .ratlin import RatSubspace
from .supernat import INF, ExhaustionSpec, SupernaturalNumber, divides_sn, step_ratio, validate_exhaustion

Quotient = int | float  # positive int, or INF

# Admissibility: a certificate lists a prefix of at least `_PREFIX_LEN`
# steps, which is also the length a refutation records; the greedy
# numbering certifies only within `_MAX_STEPS` - 1 steps (`verify_certificate`
# walks its own exact bound instead), and the search tries multiplier cycles
# up to `_MAX_CYCLE_LEN` long.
_PREFIX_LEN = 12
_MAX_STEPS = 200
_MAX_CYCLE_LEN = 2
# The most steps `verify_certificate` walks, the prefix length plus the
# cycle length.  A doubling cycle of 988 steps after a prefix of 12 takes
# about 1 ms; the cost grows with the size of the multipliers too: 988
# multipliers of 2^60 take about 30 ms, and 988 of 9973^40 about 1.5 s, of
# which `validate_exhaustion` factoring the cycle product is 0.6 s.
CERTIFICATE_STEP_LIMIT = 1_000
# The most (s1, cycle) pairs one `admissible` call may count: the listing
# takes a few ms, and the greedy walks only the few cycles periodic for the
# tail, at most about 0.02 s in all at bound 7,775 over 2^inf 3^inf.
_SEARCH_LIMIT = 250_000
# The most bounding edges, the sum of d_n - 1 over the levels, that one
# realization may build: about 0.8 s and 1 MB of report.
REALIZATION_EDGE_LIMIT = 100_000


class GeometricTail(Record):
    """Infinitely many finite quotients of dimensions base * ratio^k, k >= 0."""

    base: int
    ratio: int

    def __post_init__(self) -> None:
        if self.base < 1 or self.ratio < 2:
            raise DomainError("geometric tail needs base >= 1 and ratio >= 2")

    def to_json_obj(self) -> dict:
        return {"kind": "geometric", "base": self.base, "ratio": self.ratio}


class ConstantTail(Record):
    """Infinitely many finite quotients, all of one dimension."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 1:
            raise DomainError("constant tail dimension must be positive")

    def to_json_obj(self) -> dict:
        return {"kind": "constant", "value": self.value}


Tail = GeometricTail | ConstantTail


class GeneralizedFlagType(Record):
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
                has_infinite_quotients=strict_bool(obj["infinite_quotients"], "infinite_quotients"),
                ordered_presentation=ordered_t,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad generalized-flag-type document: {exc}") from exc


class SnGraph(Record):
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
            g2 = sg.level(nxt)
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

    `sigma_values` assigns each basis vector its chain position (integers;
    values on 1..n_max+1 are required and must cover 1..chain_size).  For
    each n the returned pair holds the flag type cut out in the span of the
    first n vectors and the standard-extension data of the step into n+1:
    the new basis vector enters at the first member containing it, either
    growing the members from that point on or inserting a new member.
    Each step is counted off the sigma values: no flag is built, no check runs.
    """
    values = [strict_int(v, "a sigma value") for v in sigma_values]
    if len(values) < n_max + 1:
        raise DomainError("sigma must be given on 1..n_max+1")
    if any(not 1 <= v <= chain_size for v in values[: n_max + 1]):
        raise DomainError("sigma values must lie in the declared chain")
    if set(values[: n_max + 1]) != set(range(1, chain_size + 1)):
        raise DomainError("sigma is not surjective onto its declared chain within the prefix")
    out: list[tuple[FlagType, StandardExtensionData]] = []
    for n in range(1, n_max + 1):
        source = FlagType(n, level_dims(values[:n]))
        seen = set(values[:n])
        # e_(n+1) enters at member 1 + (distinct values below its own); a
        # new value inserts a member there, a known one grows the members.
        entry = 1 + sum(1 for v in seen if v < values[n])
        kappa = tuple(range(1, source.length + 1))
        if values[n] not in seen:
            kappa = kappa[: entry - 1] + (entry - 1,) + kappa[entry - 1 :]
        line = RatSubspace.span_ints(n + 1, [(0,) * n + (1,)])
        chain = (RatSubspace.zero(n + 1),) * (entry - 1) + (line,) * (len(kappa) + 1 - entry)
        unit = tuple(tuple(int(r == c) for c in range(n)) for r in range(n + 1))
        out.append((source, StandardExtensionData(source, unit, 1, chain, kappa)))
    return out


# ---------------------------------------------------------------------------
# realization of generalized flag types with finite A'


class Realization(Record):
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
    extension at every level.  Before any level is built, each d_n is held
    to `GRAPH_SIZE_LIMIT` and the sum of d_n - 1 to
    `REALIZATION_EDGE_LIMIT` (ScaleError above either).
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
    bounding = 0
    for n in range(1, levels + 1):
        d = step_ratio(spec, n)
        if d > GRAPH_SIZE_LIMIT:
            raise ScaleError(f"step ratio {d} exceeds the graph colour limit {GRAPH_SIZE_LIMIT}")
        bounding += d - 1
    if bounding > REALIZATION_EDGE_LIMIT:
        raise ScaleError(
            f"{levels} levels need {bounding} bounding edges; realizations are limited to {REALIZATION_EDGE_LIMIT}"
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


class AdmissibilityCertificate(Record):
    """Witness for admissibility: an exhaustion and a quotient numbering.

    `numbering_prefix` lists the quotient dimensions picked at steps
    1..N; `tail_rule` documents how the numbering continues (for tails,
    remaining tail dimensions in increasing order).  The certificate is
    accepted only after both defining clauses are re-verified on the
    prefix, whose length is recorded, and along the tail rule beyond it.
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


class RefutationProof(Record):
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


class Admissible(Record):
    certificate: AdmissibilityCertificate


class NotAdmissible(Record):
    proof: RefutationProof


class Unknown(Record):
    reason: str
    candidates_searched: int


AdmissibilityResult = Admissible | NotAdmissible | Unknown


def _greedy_numbering(gft: GeneralizedFlagType, s1: int, cycle: tuple[int, ...]) -> tuple[int, ...] | None:
    """Greedy smallest-dimension-first numbering of a geometric tail along
    the exhaustion (s1, cycle), which the caller has made valid and, as no
    other cycle certifies, periodic: ratio^L = d_1 ... d_L, L = len(cycle).
    The period rule: from step E on, the first step after which no explicit
    quotient remains, each step places the next tail dimension, so a period
    multiplies the state's ratio (next tail dimension over term) by ratio^L
    / (d_1 ... d_L) = 1 and the state after step E recurs after E + L; by
    the proof in `verify_certificate` it then repeats forever.  So the walk
    checks both clauses through step max(`_PREFIX_LEN`, E + L) and returns
    the picks; None when a clause fails, no pick is available, or that step
    is not below `_MAX_STEPS`."""
    next_tail, ratio = gft.tail.base, gft.tail.ratio
    explicit = sorted(gft.finite_quotients)
    picked: list[int] = []
    s = s1
    last = None
    for n in range(1, _MAX_STEPS):
        d = cycle[(n - 1) % len(cycle)]
        # clause 2: s_n divides every remaining dimension
        if next_tail % s or any(dim % s for dim in explicit):
            return None
        # Every remaining dimension is now a positive multiple of s_n, so the
        # pickable ones are those below s_n * d; the smallest is picked, an
        # explicit one on a tie.
        if explicit and explicit[0] <= next_tail and explicit[0] < s * d:
            picked.append(explicit.pop(0))
        elif next_tail < s * d:
            picked.append(next_tail)
            next_tail *= ratio
        else:
            return None
        if last is None and not explicit:
            last = max(_PREFIX_LEN, n + len(cycle))
        if n == last:
            return tuple(picked)
        s *= d
    return None


def verify_certificate(
    gft: GeneralizedFlagType,
    sn: SupernaturalNumber,
    cert: AdmissibilityCertificate,
) -> bool:
    """Recompute both defining clauses of admissibility along the
    certificate's exhaustion, step by step: the dimension placed at step n
    is j * s_n with 1 <= j <= d_n - 1, and s_n divides every dimension
    still to be placed.  Of the tail only the next dimension is asked, as
    every later one is a multiple of it.  The steps place the prefix, which
    must be at least `_PREFIX_LEN` long and place every explicit quotient,
    and then follow the tail rule: each places the next tail dimension.
    The certificate is accepted when, at the end of the prefix or later,
    the state (cycle position, next tail dimension / s_(n+1)) repeats.
    The walk stops after P + L steps, P the prefix length and L the cycle
    length; above `CERTIFICATE_STEP_LIMIT` steps it raises ScaleError
    before it starts.  A finite certificate, with no exhaustion or prefix,
    certifies exactly the tailless types; other kinds, and a recorded prefix
    length that is not the prefix's, are rejected.

    A repeated state repeats forever.  Say the states after steps m < m'
    agree, and let Q = s_(m'+1) / s_(m+1).  Only tail dimensions remain
    after either step, and the next one after m' is Q times the next one
    after m; as the cycle positions agree, the same multipliers follow, so
    for every i >= 1 the term at step m' + i and each tail dimension still
    to come are Q times those at step m + i.  Both clauses ask only whether
    a dimension over a term is an integer and where it lies, and scaling
    both by Q changes neither.  So step m' + i passes exactly when step
    m + i does and ends in the same state: the steps m + 1 .. m', all
    checked, repeat forever.

    P + L steps decide.  After step P only tail dimensions remain (step
    P + 1 rejects otherwise), so each later step places the next tail
    dimension t at term s and leaves t r / (s d) as the state's ratio,
    where r is the tail's ratio (1 for a constant tail) and d the step's
    multiplier.  One period of L steps keeps the cycle position and
    multiplies the ratio by c = r^L / (d_1 ... d_L).  If c = 1, the state
    after step P + L is the one after step P, so a certificate whose steps
    all pass is accepted by then.  If c != 1, the ratios at one cycle
    position grow or shrink geometrically, so no state ever repeats and
    the clause 1 <= t / s <= d - 1 fails at some later step: the
    certificate is false, and rejecting it after P + L steps is right."""
    prefix = cert.numbering_prefix
    if cert.verified_prefix_length != len(prefix):
        return False
    if cert.kind == "finite":
        return gft.tail is None and cert.exhaustion is None and not prefix
    spec = cert.exhaustion
    if cert.kind != "numbered" or spec is None or len(prefix) < _PREFIX_LEN:
        return False
    steps = len(prefix) + len(spec.cycle)
    if steps > CERTIFICATE_STEP_LIMIT:
        raise ScaleError(
            f"a certificate with {steps} prefix and cycle steps; verification is limited to {CERTIFICATE_STEP_LIMIT}"
        )
    if not validate_exhaustion(spec, sn).ok:
        return False
    tail = gft.tail
    if isinstance(tail, GeometricTail):
        next_tail, ratio = tail.base, tail.ratio
    else:
        next_tail, ratio = (None if tail is None else tail.value), 1
    explicit = sorted(gft.finite_quotients)
    s = spec.s1
    states: set[tuple[int, int]] = set()
    for n in range(1, steps + 1):
        if n > len(prefix) and (explicit or tail is None):
            return not explicit
        d = step_ratio(spec, n)
        dim = prefix[n - 1] if n <= len(prefix) else next_tail
        j, rest = divmod(dim, s)
        if rest or not 1 <= j <= d - 1:
            return False
        if dim in explicit:
            explicit.remove(dim)
        elif dim == next_tail:
            next_tail *= ratio
        else:
            return False
        if any(rem % s for rem in explicit):
            return False
        if next_tail is not None:
            quotient, rest = divmod(next_tail, s)
            if rest:
                return False
            # The position fixes d_n, so next tail / s_n names the state
            # (position, next tail / s_(n+1)) by an integer.
            if not explicit:
                state = (n % len(spec.cycle), quotient)
                if n >= len(prefix) and state in states:
                    return True
                states.add(state)
        s *= d
    return False


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
) -> AdmissibilityResult:
    """Decide whether the generalized flag type can be realized over sn.

    A finite set of finite quotients is always admissible.  A constant
    tail is never admissible over an infinite supernatural number, with a
    machine-checkable divisibility proof whose witness is the least finite
    divisor of sn above the constant.  For geometric tails the search
    ranges over periodic exhaustions: a first term is a divisor of sn up
    to `bound` that carries sn's whole finite part, and a cycle is at most
    `_MAX_CYCLE_LEN` divisors in [2, bound] of sn's infinite part whose
    product every infinite prime divides.  Such pairs are valid by
    construction, so none is checked: the greedy smallest-dimension
    numbering runs in turn on each pair whose cycle product is the tail's
    ratio^len(cycle), as no other cycle certifies (the period rule), and
    only the first success is built into a certificate, which
    `verify_certificate` re-checks.  An inconclusive search returns Unknown
    rather than a verdict.  A bound below 2 admits no multiplier and is
    rejected.  The search counts at most |s1 candidates| * (M + M^2) pairs
    for M multipliers; above `_SEARCH_LIMIT` (250,000) it raises
    ScaleError before it starts.
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
        witness = sn.least_divisor_above(c)
        proof = RefutationProof(
            constant_value=c, witness_divisor=witness, verified_prefix_length=_PREFIX_LEN
        )
        if not verify_refutation(gft, sn, proof):
            raise InternalCheckError("constructed refutation failed its own check")
        return NotAdmissible(proof)

    inf_primes = sn.infinite_primes
    multipliers = [
        m
        for m in SupernaturalNumber.from_factors(
            {p: INF for p in inf_primes}
        ).divisors_up_to(bound)
        if m >= 2
    ]
    finite_fixed = math.prod(p**a for p, a in sn.finite_factor_pairs)
    s1_candidates = [
        s1 for s1 in sn.divisors_up_to(bound) if s1 % finite_fixed == 0
    ]
    count = len(s1_candidates) * sum(len(multipliers) ** k for k in range(1, _MAX_CYCLE_LEN + 1))
    if count > _SEARCH_LIMIT:
        raise ScaleError(
            f"bound {bound} gives {count} exhaustions to search; the search is limited to {_SEARCH_LIMIT}"
        )
    # Every s1 candidate and multiplier divides sn, and every s1 candidate
    # carries sn's whole finite part, so of the clauses of
    # `validate_exhaustion` only one is left to ask: that each infinite
    # prime divides the cycle product.
    cycles = [
        cycle
        for length in range(1, _MAX_CYCLE_LEN + 1)
        for cycle in itertools.product(multipliers, repeat=length)
        if math.prod(cycle) % math.prod(inf_primes) == 0
    ]
    # By the period rule (see `_greedy_numbering`), only a cycle whose
    # product is ratio^len(cycle) can be certified.
    periodic = [cycle for cycle in cycles if gft.tail.ratio ** len(cycle) == math.prod(cycle)]
    for s1 in s1_candidates:
        for cycle in periodic:
            picked = _greedy_numbering(gft, s1, cycle)
            if picked is None:
                continue
            cert = AdmissibilityCertificate(
                kind="numbered",
                exhaustion=ExhaustionSpec(s1, cycle),
                numbering_prefix=picked,
                tail_rule="remaining tail dimensions in increasing order",
                verified_prefix_length=len(picked),
            )
            if not verify_certificate(gft, sn, cert):
                raise InternalCheckError("greedy certificate failed independent re-verification")
            return Admissible(cert)
    return Unknown(
        reason="bounded search over periodic exhaustions was inconclusive",
        candidates_searched=len(s1_candidates) * len(cycles),
    )


# ---------------------------------------------------------------------------
# factorization


class GraphFactor(Record):
    """One monochromatic-ordinary subgraph of a linear graph.

    `left_map` / `right_map` give the original vertex indices the factor's
    renumbered vertices came from.
    """

    colour: int
    graph: EGraph
    left_map: tuple[int, ...]
    right_map: tuple[int, ...]


def _factor_graph(g: EGraph, colour: int, rights: Sequence[int], n: int) -> GraphFactor:
    """The factor of g that keeps the ordinary edges of `colour` and every
    bounding edge, the latter re-attached to the first of the increasing
    `rights` at or below its arrival; the left column keeps the vertices of
    those ordinary edges and the bottom vertex, and both columns are
    renumbered.  The bottom vertex stays last, so the factor's ordinary
    edges all carry `colour`.  `n` names the level in errors."""
    bounding, ordinary = partition_edges(g)
    lefts = _kept_vertices(g, colour)
    lmap = {i: idx for idx, i in enumerate(lefts, start=1)}
    rmap = {j: idx for idx, j in enumerate(rights, start=1)}
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
        target = next((r for r in rights if r >= j), None)
        if target is None:
            raise DomainError("inconsistent threading: bounding edge below every kept vertex")
        edges.add((lmap[i], rmap[target], cc))
    sub = EGraph(len(lefts), len(rights), g.d, frozenset(edges))
    return GraphFactor(colour, sub, lefts, tuple(rights))


def factor_linear_egraph(g: EGraph) -> list[GraphFactor]:
    """Split a linear graph into one factor per colour: all bounding edges
    are kept, ordinary edges of other colours are removed, and vertices
    left bare are dropped with their columns renumbered.  Every factor is
    a valid graph whose ordinary edges are monochromatic, hence encodes a
    strict standard extension.  The d factors' pullbacks, each of up to
    (p-1) x max(d, q-1) entries, are capped in all at `CLOSED_INDEX_LIMIT`."""
    size = g.d * (g.p - 1) * max(g.d, g.q - 1)
    if size > CLOSED_INDEX_LIMIT:
        raise ScaleError(f"factors are limited to {CLOSED_INDEX_LIMIT} pullback entries; d*(p-1)*max(d, q-1) = {size}")
    if not is_linear_graph(g):
        raise DomainError("factorization requires a linear graph")
    factors = []
    for c in range(1, g.d + 1):
        rights = sorted({j for (i, j, cc) in g.edges if cc == c or i == g.q})
        factor = _factor_graph(g, c, rights, 1)
        if factor.graph.violations:
            raise InternalCheckError(f"factor for colour {c} invalid: {factor.graph.violations}")
        factors.append(factor)
    return factors


def factor_pullback_additivity(g: EGraph, factors: Sequence[GraphFactor]) -> bool:
    """Each pullback row of a linear graph is the sum of the corresponding
    rows of its factors (`factor_linear_egraph(g)`), re-embedded along the
    factors' vertex maps; the last vertex of each map is a column's bottom
    vertex and carries no generator."""
    total = [[0] * (g.q - 1) for _ in range(g.p - 1)]
    for f in factors:
        sub = graph_pullback(f.graph).matrix
        for r, orig_right in enumerate(f.right_map[:-1]):
            for col, orig_left in enumerate(f.left_map[:-1]):
                total[orig_right - 1][orig_left - 1] += sub[r][col]
    return [list(row) for row in graph_pullback(g).matrix] == total


def _kept_vertices(g: EGraph, colour: int) -> tuple[int, ...]:
    """Left vertices of g carrying ordinary edges of `colour`, plus the
    bottom vertex: the column a factor keeps."""
    _, ordinary = partition_edges(g)
    return tuple(sorted({i for (i, _, cc) in ordinary if cc == colour} | {g.q}))


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

    per_factor: list[list[GraphFactor]] = []
    for f in range(1, d + 1):
        row = []
        for n in range(1, prefix_len + 1):
            rights = _kept_vertices(sg.level(n + 1), threading[n][f - 1])
            factor = _factor_graph(sg.level(n), threading[n - 1][f - 1], rights, n)
            if factor.graph.violations:
                raise DomainError(
                    f"inconsistent threading: level {n} factor {f} is invalid "
                    f"({'; '.join(factor.graph.violations)})"
                )
            row.append(factor)
        per_factor.append(row)
    for n, level in enumerate(zip(*per_factor), start=1):
        if not factor_pullback_additivity(sg.level(n), level):
            raise DomainError(
                f"inconsistent threading: level {n} factor pullbacks do not sum to the level pullback"
            )
    return [SnGraph(sg.spec, tuple(f.graph for f in row), None) for row in per_factor]
