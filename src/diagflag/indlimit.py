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
  certificates for the general (infinitely many finite quotients) case:
  a certificate is an exhaustion, checked by walking the forced order
  of the quotients along it, and a constant tail's refutation is its
  value;
* factorization of linear graphs into monochromatic-ordinary subgraphs
  and the threaded decomposition of chained graphs into direct factors.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Sequence

from .diagembed import graph_pullback, is_linear_graph
from .egraph import CLOSED_INDEX_LIMIT, EGraph, partition_edges
from .errors import (
    DomainError,
    Record,
    ScaleError,
    ValidationReport,
    is_int,
    reading,
    strict_bool,
    strict_int,
    strict_list,
)
from .flagcore import FlagType, StandardExtensionData, level_dims
from .ratlin import RatSubspace
from .supernat import INF, ExhaustionSpec, SupernaturalNumber, _divisors_up_to, _split, step_ratio, validate_exhaustion

Quotient = int | float  # positive int, or INF

# The most steps a forced-order walk takes, E + L: the step that places the
# largest explicit quotient plus the cycle length.  `admissible` walks no
# longer candidate and `verify_certificate` refuses a longer certificate.
# Each step costs a few integer operations on numbers about the size of the
# largest explicit quotient, the tail's ratio and one multiplier, as from
# the step that places the last explicit quotient on the walk keeps the
# ratio of the next tail dimension to the next term in lowest terms.  On a
# 2-vCPU Xeon VM with Python 3.11.7, a doubling cycle of 999 steps verifies
# in about 0.8 ms, 998 explicit quotients before the tail in about 0.5 ms,
# and 999 multipliers of 2^60 in about 1.6 ms, of 9973^40 in about 1.8 ms
# and of 10^4299 in about 19 ms.
CERTIFICATE_STEP_LIMIT = 1_000
# The most (s1, cycle) pairs one `admissible` call may walk, counted before
# the first walk.  Only cycles the period rule allows are counted, and the
# largest searches tried at this limit take about 0.25 s.
_SEARCH_LIMIT = 250_000
# The most edges that one realization may build, t straight ones per level
# for a presentation of length t plus the sum of d_n - 1 over the levels:
# about 0.07 s in-process, 0.7 s for a cold `exhaust --gft`, and 1 MB of
# report, for 10 levels over 9973^inf.
REALIZATION_EDGE_LIMIT = 100_000


class GeometricTail(Record):
    """Infinitely many finite quotients of dimensions base * ratio^k, k >= 0."""

    base: int
    ratio: int

    def __post_init__(self) -> None:
        if not (is_int(self.base, 1) and is_int(self.ratio, 2)):
            raise DomainError("geometric tail needs integers base >= 1 and ratio >= 2")

    def to_json_obj(self) -> dict:
        return {"kind": "geometric", "base": self.base, "ratio": self.ratio}


class ConstantTail(Record):
    """Infinitely many finite quotients, all of one dimension."""

    value: int

    def __post_init__(self) -> None:
        if not is_int(self.value, 1):
            raise DomainError("constant tail dimension must be a positive integer")

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
        if not all(is_int(d, 1) for d in self.finite_quotients):
            raise DomainError("finite quotient dimensions must be positive integers")
        if type(self.has_infinite_quotients) is not bool:
            raise DomainError("has_infinite_quotients must be a bool")
        if not self.finite_quotients and self.tail is None and not self.has_infinite_quotients:
            raise DomainError("the quotient data must be nonempty")
        if self.ordered_presentation is not None:
            if not all(d is INF or is_int(d, 1) for d in self.ordered_presentation):
                raise DomainError("ordered quotients must be positive integers or INF")
            if self.tail is not None:
                raise DomainError("a finite ordered presentation cannot carry a tail rule")
            finite = sorted(d for d in self.ordered_presentation if d is not INF)
            if finite != sorted(self.finite_quotients):
                raise DomainError("ordered presentation disagrees with the finite quotients")
            has_inf = any(d is INF for d in self.ordered_presentation)
            if has_inf != self.has_infinite_quotients:
                raise DomainError("ordered presentation disagrees on infinite quotients")

    @cached_property
    def sorted_finite_quotients(self) -> tuple[int, ...]:
        """The explicit finite quotients in increasing order, sorted once
        for every walk of the admissibility search."""
        return tuple(sorted(self.finite_quotients))

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
        with reading("generalized-flag-type"):
            tail_obj = obj.get("tail")
            tail: Tail | None
            if tail_obj is None:
                tail = None
            elif tail_obj["kind"] == "geometric":
                tail = GeometricTail(strict_int(tail_obj["base"], "base"), strict_int(tail_obj["ratio"], "ratio"))
            elif tail_obj["kind"] == "constant":
                tail = ConstantTail(strict_int(tail_obj["value"], "value"))
            else:
                raise DomainError(f"unknown tail kind {tail_obj['kind']!r}")
            ordered = obj.get("ordered")
            if ordered is not None:
                ordered = strict_list(ordered, "ordered")
                ordered = tuple(INF if d == "inf" else strict_int(d, "a quotient") for d in ordered)
            quotients = strict_list(obj["finite_quotients"], "finite_quotients")
            return cls(
                finite_quotients=tuple(strict_int(d, "a quotient") for d in quotients),
                tail=tail,
                has_infinite_quotients=strict_bool(obj["infinite_quotients"], "infinite_quotients"),
                ordered_presentation=ordered,
            )


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
        with reading("chained-graph"):
            spec = ExhaustionSpec.from_json_obj(obj["spec"])
            prefix = tuple(EGraph.from_json_obj(g) for g in strict_list(obj["levels"], "levels"))
            period = obj.get("period")
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
        line = RatSubspace.basis_span(n + 1, 1 << n)
        chain = (RatSubspace.zero(n + 1),) * (entry - 1) + (line,) * (len(kappa) + 1 - entry)
        unit = tuple(tuple(int(r == c) for c in range(n)) for r in range(n + 1))
        out.append((source, StandardExtensionData(source, unit, 1, chain, kappa)))
    return out


# ---------------------------------------------------------------------------
# realization of generalized flag types with finite A'


class Realization(Record):
    """A chained-graph realization together with its per-level quotients,
    which fix the per-level flag types."""

    sn_graph: SnGraph
    level_quotients: tuple[tuple[int, ...], ...]  # quotients of X_1 .. X_{levels+1}

    @property
    def level_types(self) -> tuple[FlagType, ...]:
        """Level n's type has ambient s_n and members at the partial sums of its quotients."""
        terms = self.sn_graph.spec.terms(len(self.level_quotients))
        return tuple(FlagType(s, tuple(itertools.accumulate(q[:-1]))) for s, q in zip(terms, self.level_quotients))


def build_realization_sn_graph(
    gft: GeneralizedFlagType,
    sn: SupernaturalNumber,
    spec: ExhaustionSpec,
    levels: int,
) -> Realization:
    """Realize a generalized flag type with finitely many finite quotients
    as a chained-graph exhaustion over the given supernatural number.

    Requires an ordered presentation (a finite chain).  Level n keeps every
    member and feeds the d_n - 1 new block copies into the infinite
    quotients in round-robin order, so each level graph has straight
    colour-1 edges plus one bounding edge per extra colour: exactly the
    two one-block standard-extension shapes, hence a strict standard
    extension at every level.  Each level is built once, by its formula:
    the graph is valid and its target type is the next level's, since
    colour c >= 2 has closed index t from its target vertex on, so each
    such colour adds one full block of s_n to the quotient it targets.
    Before any level is built, every edge of the levels, t straight ones
    per level for t the length of the presentation plus the sum of
    d_n - 1, is counted off the cycle and held to `REALIZATION_EDGE_LIMIT`
    (ScaleError above it), so a d_n beyond `GRAPH_SIZE_LIMIT`, which
    `EGraph` refuses, costs at most that budget.
    """
    if levels < 1:
        raise DomainError(f"a realization needs levels >= 1, got {levels}")
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
    cycle = spec.cycle
    whole, part = divmod(levels, len(cycle))
    total = levels * t + whole * sum(d - 1 for d in cycle) + sum(d - 1 for d in cycle[:part])
    if total > REALIZATION_EDGE_LIMIT:
        raise ScaleError(
            f"{levels} levels need {total} edges; realizations are limited to {REALIZATION_EDGE_LIMIT}"
        )
    quotients = [1 if v is INF else int(v) for v in ordered]
    quotients[inf_positions[-1] - 1] += spec.s1 - needed
    s = spec.s1
    rr = 0
    graphs: list[EGraph] = []
    all_quotients = [tuple(quotients)]
    for n in range(levels):
        d = cycle[n % len(cycle)]
        edges = {(i, i, 1) for i in range(1, t + 1)}
        for c in range(2, d + 1):
            target = inf_positions[rr % len(inf_positions)]
            rr += 1
            quotients[target - 1] += s
            edges.add((t, target, c))
        s *= d
        graphs.append(EGraph(t, t, d, frozenset(edges)))
        all_quotients.append(tuple(quotients))
    sg = SnGraph(spec, tuple(graphs), _detect_period(cycle, len(inf_positions), levels))
    return Realization(sg, tuple(all_quotients))


def _detect_period(cycle: tuple[int, ...], k: int, levels: int) -> int | None:
    """Smallest period p <= levels of the whole chain of level graphs, if
    any.  Level n's graph shows d_n and, if d_n >= 2, the round-robin
    offset mod k, the sum of d_m - 1 over m < n, and nothing else.  So p
    is a period when the multipliers repeat after p steps, and the sum
    then added by any p steps is a multiple of k.  No graph is built or
    compared, so the last p levels need not have repeated within the
    levels built.

    The closed form.  The shifts that rotate the cycle (length L) onto
    itself are the multiples of its least rotation period c, a divisor of
    L.  For p = c * j the first p multipliers are j copies of the first c,
    so their sum of d - 1 is j * s, with s the sum over those c; k divides
    it exactly when k / gcd(k, s) divides j.  So the least period is
    c * k / gcd(k, s).  It exceeds levels when c does, so c is sought
    among the divisors up to levels, and is taken as L when none of them
    rotates the cycle onto itself."""
    n = len(cycle)
    c = next((c for c in range(1, min(levels, n) + 1) if not n % c and cycle[c:] == cycle[:-c]), n)
    p = c * k // math.gcd(k, sum(d - 1 for d in cycle[:c]))
    return p if p <= levels else None


# ---------------------------------------------------------------------------
# admissibility


class AdmissibilityCertificate(Record):
    """Witness for admissibility: the exhaustion the quotients are numbered
    along (kind "numbered"), or none for a type without a tail (kind
    "finite").  A numbered certificate needs nothing else, as the numbering
    along an exhaustion is forced (see `verify_certificate`)."""

    exhaustion: ExhaustionSpec | None

    @property
    def kind(self) -> str:
        return "finite" if self.exhaustion is None else "numbered"

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "exhaustion": None if self.exhaustion is None else self.exhaustion.to_json_obj(),
        }


class RefutationProof(Record):
    """Refutation of a constant tail of dimension c.  Every supernatural
    number has an infinite prime p, so some power of p is a finite divisor
    above c, and by cofinality it divides a term of any exhaustion; from
    that term on, the second defining clause fails for the infinitely many
    remaining quotients of dimension c, whichever of them a step places."""

    constant_value: int

    def to_json_obj(self) -> dict:
        return {"kind": "constant_tail_divisibility", "constant_value": self.constant_value}


class Admissible(Record):
    certificate: AdmissibilityCertificate


class NotAdmissible(Record):
    proof: RefutationProof


class Unknown(Record):
    reason = "bounded search over periodic exhaustions was inconclusive"

    candidates_searched: int


AdmissibilityResult = Admissible | NotAdmissible | Unknown


def _walk(gft: GeneralizedFlagType, s1: int, cycle: tuple[int, ...], steps: int) -> list[tuple[int, int]] | None:
    """Walk `steps` steps of the forced order of a type with a geometric
    tail along the exhaustion (s1, cycle): each step places the smallest
    remaining dimension, an explicit one on a tie, and checks that it is
    j * s_n with 1 <= j <= d_n - 1, which implies clause 2 (s_n divides
    what is still to be placed, each later dimension being checked
    against a later term).  None when a step fails; otherwise the ratio x
    of the next tail dimension to the next term in lowest terms, a pair,
    after each step from step E (placing the last explicit one) on."""
    explicit, r = gft.sorted_finite_quotients, gft.tail.ratio
    t, placed, s = gft.tail.base, 0, s1
    ratios = []
    for n in range(steps):
        d = cycle[n % len(cycle)]
        if placed < len(explicit) and explicit[placed] <= t:
            dim, placed = explicit[placed], placed + 1
        else:
            dim, t = t, t * r
        if dim % s or dim >= s * d:
            return None
        s *= d
        if placed == len(explicit):
            g = math.gcd(t, s)
            t, s = t // g, s // g
            ratios.append((t, s))
    return ratios


def _explicit_steps(gft: GeneralizedFlagType) -> int:
    """E, the step of the forced order of a type with a geometric tail that
    places the largest explicit quotient (1 when there is none), counted
    only to just past the step limit."""
    if not gft.finite_quotients:
        return 1
    top, tail, steps = max(gft.finite_quotients), gft.tail, len(gft.finite_quotients)
    dim = tail.base
    while dim < top and steps <= CERTIFICATE_STEP_LIMIT:
        steps, dim = steps + 1, dim * tail.ratio
    return steps


def verify_certificate(
    gft: GeneralizedFlagType, sn: SupernaturalNumber, cert: AdmissibilityCertificate
) -> bool:
    """Decide a certificate by both defining clauses of admissibility.  A
    finite certificate, with no exhaustion, certifies exactly the types
    without a tail; a numbered one, an exhaustion for a type with a
    geometric tail.  A constant tail is never admissible (see
    `RefutationProof`).  The numbering along an exhaustion is forced: the
    dimension placed at step n is below s_(n+1), which divides every
    dimension still to be placed, so they are placed in increasing order.
    Let E be the step that places the largest explicit quotient (1 when
    there is none; read off the type) and L the cycle length.  Above
    `CERTIFICATE_STEP_LIMIT` steps E + L, ScaleError is raised before
    anything else is checked.  Otherwise the certificate is accepted when
    `_walk` passes E + L steps, the ratio x it reports after step E + L is
    the one after step E, and the exhaustion is valid for sn.

    After step E each step places the next tail dimension t at term s,
    checks that x = t / s is an integer in [1, d - 1] and multiplies x by
    r / d (r the tail's ratio), so one period of L steps keeps the cycle
    position and multiplies x by c = r^L / (d_1 ... d_L).  If c = 1 (the
    period rule), x returns, and step m + L checks what step m checks for
    every m > E: steps E + 1 .. E + L decide.  Otherwise x at one position
    grows or shrinks geometrically and leaves [1, d - 1]: the certificate
    is false, and x does not return."""
    spec = cert.exhaustion
    if spec is None:
        return gft.tail is None
    if not isinstance(gft.tail, GeometricTail):
        return False
    steps = _explicit_steps(gft) + len(spec.cycle)
    if steps > CERTIFICATE_STEP_LIMIT:
        raise ScaleError(
            f"a certificate with {steps} explicit and cycle steps; verification is limited to {CERTIFICATE_STEP_LIMIT}"
        )
    ratios = _walk(gft, spec.s1, spec.cycle, steps)
    return ratios is not None and ratios[0] == ratios[-1] and validate_exhaustion(spec, sn).ok


def verify_refutation(
    gft: GeneralizedFlagType, sn: SupernaturalNumber, proof: RefutationProof
) -> bool:
    """Check a constant-tail refutation: the type's tail is constant, of
    the proof's value.  No property of sn is needed, as every supernatural
    number has an infinite prime (see `RefutationProof`)."""
    return isinstance(gft.tail, ConstantTail) and proof.constant_value == gft.tail.value


def admissible(gft: GeneralizedFlagType, sn: SupernaturalNumber, bound: int = 64) -> AdmissibilityResult:
    """Decide whether the generalized flag type can be realized over sn.

    A finite set of finite quotients is always admissible, and a constant
    tail never is (see `RefutationProof`).  For geometric tails the search
    ranges over periodic exhaustions that obey the period rule, as no
    other certifies (see `verify_certificate`).  A first term is sn's
    finite part times a divisor of its infinite part, at most `bound` in
    all.  A cycle is (r,), or (a, r^2 / a) with both entries in
    [2, bound], for the tail's ratio r; such cycles exist only when
    r <= bound and the primes of r are exactly sn's infinite primes.  Every pair is
    then valid by construction, and its ratio x returns after L steps, so
    neither is checked.  On each pair in turn, (r,) before the pairs by
    increasing a, `_walk` follows the forced order for the E + L steps
    that `verify_certificate` walks, when they are at most
    `CERTIFICATE_STEP_LIMIT`; the first pair that passes is the
    certificate, so every certificate verifies.  An inconclusive search
    returns Unknown with the number of pairs it walked.  That same count,
    |s1 candidates| * |cycles|, is held to `_SEARCH_LIMIT` (250,000)
    before any walk: above it, ScaleError.  A bound below 2 admits no
    multiplier and is rejected.
    """
    if bound < 2:
        raise DomainError(f"bound must be at least 2, got {bound}")
    if gft.tail is None:
        return Admissible(AdmissibilityCertificate(None))
    if isinstance(gft.tail, ConstantTail):
        return NotAdmissible(RefutationProof(gft.tail.value))

    inf_primes, ratio, explicit_steps = sn.infinite_primes, gft.tail.ratio, _explicit_steps(gft)
    exponents, rest = _split(ratio, inf_primes)
    cycles = []
    if ratio <= bound and rest == 1 and len(exponents) == len(inf_primes):
        square = ratio * ratio
        cycles = [(ratio,)] + [
            (a, square // a)
            for a in _divisors_up_to([(p, 2 * k) for p, k in exponents.items()], bound)
            if a >= 2 and 2 <= square // a <= bound
        ]
    cycles = [cycle for cycle in cycles if explicit_steps + len(cycle) <= CERTIFICATE_STEP_LIMIT]
    finite_part = math.prod(p**a for p, a in sn.finite_factor_pairs)
    infinite_divisors = _divisors_up_to([(p, INF) for p in inf_primes], bound // finite_part) if cycles else []
    count = len(infinite_divisors) * len(cycles)
    if count > _SEARCH_LIMIT:
        raise ScaleError(
            f"bound {bound} gives {count} exhaustions to search; the search is limited to {_SEARCH_LIMIT}"
        )
    for m in infinite_divisors:
        for cycle in cycles:
            if _walk(gft, finite_part * m, cycle, explicit_steps + len(cycle)) is not None:
                return Admissible(AdmissibilityCertificate(ExhaustionSpec(finite_part * m, cycle)))
    return Unknown(count)


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
    strict standard extension, with no check: it is one colour class of
    g, renumbered monotonically, plus one bounding edge per other colour.
    The d factors' pullbacks, each of up to (p-1) x max(d, q-1) entries,
    are capped in all at `CLOSED_INDEX_LIMIT`."""
    size = g.d * (g.p - 1) * max(g.d, g.q - 1)
    if size > CLOSED_INDEX_LIMIT:
        raise ScaleError(f"factors are limited to {CLOSED_INDEX_LIMIT} pullback entries; d*(p-1)*max(d, q-1) = {size}")
    if not is_linear_graph(g):
        raise DomainError("factorization requires a linear graph")
    return [
        _factor_graph(g, c, sorted({j for (i, j, cc) in g.edges if cc == c or i == g.q}), 1)
        for c in range(1, g.d + 1)
    ]


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
