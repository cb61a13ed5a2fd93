"""Shared reference objects for the test suite."""

import functools
import random
from fractions import Fraction
from math import gcd
from typing import Sequence

import pytest

from diagflag.diagembed import DiagonalEmbedding
from diagflag.egraph import (
    Edge,
    EGraph,
    ParabolicRestriction,
    SurjectionAlpha,
    build_from_alpha,
    enumerate_valid_graphs,
    require_valid,
    validate_egraph,
)
from diagflag.errors import DomainError, ScaleError
from diagflag.flagcore import (
    _CLASSIFY_WINDOW,
    FlagType,
    PicardPullback,
    coordinate_flag,
    duality,
    random_flag,
    support_and_constants,
)
from diagflag.indlimit import (
    _MAX_STEPS,
    _PREFIX_LEN,
    CERTIFICATE_STEP_LIMIT,
    ConstantTail,
    GraphFactor,
    SnGraph,
    _kept_vertices,
    factor_pullback_additivity,
)
from diagflag.ratlin import SPREAD, Flag, RatSubspace, StabilizerResult, pivots, rref
from diagflag.supernat import ExhaustionSpec, SupernaturalNumber, step_ratio, validate_exhaustion

# Mixed-colour reference graph: two colours, ordinary edges of both colours,
# hence neither linear nor a standard extension.  Encodes
# {V1, V2} -> {V1, V1 + V2bar, V2 + Wbar} on pairs in a 3-dimensional space.
MIXED_GRAPH = EGraph(
    3, 4, 2, frozenset({(1, 1, 1), (2, 3, 1), (3, 4, 1), (2, 2, 2), (3, 3, 2)})
)
MIXED_SOURCE = FlagType(3, (1, 2))

# Member-inserting extension graph (doubling, insertion at position i):
# colour 1 walks straight then shifts down by one, colour 2 bounds at r_i.
def insertion_graph(q: int, i: int) -> EGraph:
    edges = {(j, j, 1) for j in range(1, i)} | {(j, j + 1, 1) for j in range(i, q + 1)}
    edges.add((q, i, 2))
    return EGraph(q, q + 1, 2, frozenset(edges))


# Member-growing extension graph (doubling, growth from position i):
# colour 1 walks straight, colour 2 bounds at r_i.
def growth_graph(q: int, i: int) -> EGraph:
    edges = {(j, j, 1) for j in range(1, q + 1)}
    edges.add((q, i, 2))
    return EGraph(q, q, 2, frozenset(edges))


# Level graph of the two-factor product chain: stabilizers of a line and a
# hyperplane-minus-one inside each doubled space.
PRODUCT_LEVEL_GRAPH = EGraph(
    3, 3, 2, frozenset({(1, 1, 1), (3, 2, 1), (2, 2, 2), (3, 3, 2)})
)


def small_graph_sizes():
    """The (q, p, d) of `small_graphs`, in its order."""
    return [
        (q, p, d)
        for d in range(1, 7)
        for q in range(1, 6 // d + 1)
        for p in range(1, q * d + 1)
    ]


@functools.cache
def small_graphs() -> tuple[EGraph, ...]:
    """Every valid graph with d * q <= 6 (6,352 of them), in a fixed order."""
    return tuple(g for (q, p, d) in small_graph_sizes() for g in enumerate_valid_graphs(q, p, d))


def reference_valid_graphs(q: int, p: int, d: int):
    """Reference: all valid graphs with the given vertex and colour counts,
    by building the graph of every product of per-colour options and
    keeping those `validate_egraph` passes."""
    import itertools

    def colour_options() -> list[frozenset[Edge]]:
        out = []
        for size in range(1, min(q, p) + 1):
            for lefts in itertools.combinations(range(1, q), size - 1):
                ls = (*lefts, q)
                for rights in itertools.combinations(range(1, p + 1), size):
                    out.append(frozenset(zip(ls, rights)))
        return out

    options = colour_options()
    for combo in itertools.product(options, repeat=d):
        edges = frozenset(
            (i, j, c + 1) for c, cls in enumerate(combo) for (i, j) in cls
        )
        g = EGraph(q, p, d, edges)
        if validate_egraph(g).ok:
            yield g


def reference_surjections(n: int, p: int):
    """Reference: all surjective maps {1..n} -> {1..p}, by filtering every
    value tuple in lexicographic order."""
    import itertools

    target = set(range(1, p + 1))
    for values in itertools.product(range(1, p + 1), repeat=n):
        if set(values) == target:
            yield SurjectionAlpha(n, p, values)


def is_linear(pullback: PicardPullback) -> bool:
    """Reference: every target generator pulls back to zero or a single
    source generator."""
    for row in pullback.matrix:
        nonzero = [x for x in row if x != 0]
        if nonzero and nonzero != [1]:
            return False
    return True


def solve_unique(a, rhs):
    """Reference: solve a x = rhs in Fractions when the solution is unique;
    DomainError otherwise."""
    n = len(a[0]) if a else 0
    aug = [list(row) + [val] for row, val in zip(a, rhs)]
    red = rref(aug, n + 1)
    piv = pivots(red)
    if n in piv:
        raise DomainError("inconsistent linear system")
    if len(red) != n:
        raise DomainError("linear system is underdetermined")
    x = [Fraction(0)] * n
    for r, pj in zip(red, piv):
        x[pj] = r[n]
    return tuple(x)


def _reference_primitive(row):
    """The integer row divided by its content; None for a zero row."""
    content = gcd(*row)
    if content == 0:
        return None
    return row if content == 1 else [x // content for x in row]


def _reference_clear(row, prow, col):
    """`row` with column `col` cleared against the pivot row `prow`, made
    primitive again; None when nothing is left."""
    g = gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    return _reference_primitive([a * x - b * y for x, y in zip(row, prow)])


def reference_reduce(rows, width):
    """Reference: Gauss-Jordan on primitive integer rows, as
    `ratlin._reduce` does it, with the clearing and the division by
    content as helper calls and the remaining rows kept apart from the
    pivot rows, cleared ones after the others."""
    rest = [r for r in map(_reference_primitive, rows) if r is not None]
    done = []
    for col in range(width):
        if not rest:
            break
        k = next((i for i, r in enumerate(rest) if r[col]), None)
        if k is None:
            continue
        prow = rest.pop(k)
        if prow[col] < 0:
            prow = [-x for x in prow]
        done = [_reference_clear(r, prow, col) if r[col] else r for r in done]
        done.append(prow)
        rest = [r for r in rest if not r[col]] + [
            c for c in (_reference_clear(r, prow, col) for r in rest if r[col]) if c is not None
        ]
    return tuple(map(tuple, done))


def reference_stabilizer_constraints(flag, m):
    """Reference: the dense constraints on vec(x) for diag(x, ..., x) to
    preserve every member, one per member row and canonical annihilator
    row, repeats kept; each entry is a sum over every block."""
    n = flag.ambient
    blocks = range(0, n, m)
    rows = []
    for member in flag.chain:
        ann = member.annihilator().int_rows
        for v in member.int_rows:
            for u in ann:
                rows.append(
                    [sum(u[k + a] * v[k + b] for k in blocks) for a in range(m) for b in range(m)]
                )
    return rows


def reference_stabilizer(flag, m):
    """Reference: `stabilizer_oracle` from the dense constraints, repeats
    and all."""
    rows = reference_stabilizer_constraints(flag, m)
    size = m * m
    zero_cols = {j for j in range(size) if all(row[j] == 0 for row in rows)}
    roots = frozenset(
        (a + 1, b + 1) for a in range(m) for b in range(m) if a != b and a * m + b in zero_cols
    )
    torus = all(a * m + a in zero_cols for a in range(m))
    return StabilizerResult(
        block_size=m,
        algebra=RatSubspace.span_ints(size, rows).annihilator(),
        root_spaces=roots,
        contains_torus=torus,
        is_parabolic=torus
        and all((i, j) in roots or (j, i) in roots for i in range(1, m + 1) for j in range(i + 1, m + 1)),
    )


def reference_nilradical_inclusion(flag, stabilizer):
    """Reference: each nilradical generator E_ij of a parabolic diagonal
    stabilizer, embedded block-diagonally, sends every row of F_t into
    F_{t-1}; one span test per image vector."""
    m = stabilizer.block_size
    n = flag.ambient
    roots = stabilizer.root_spaces
    members = [flag.member(t) for t in range(len(flag.chain) + 2)]
    for (i, j) in sorted(roots):
        if (j, i) in roots:
            continue
        for t in range(1, len(members)):
            for v in members[t].int_rows:
                image = [0] * n
                for k in range(n // m):
                    image[k * m + i - 1] = v[k * m + j - 1]
                if not members[t - 1]._spans([image]):
                    return False
    return True


def reference_random_invertible_ints(dim, rng):
    """Reference: a random invertible integer matrix, each entry drawn by
    `rng.randint(-SPREAD, SPREAD)`, row by row, until one has full rank."""
    while True:
        m = tuple(tuple(rng.randint(-SPREAD, SPREAD) for _ in range(dim)) for _ in range(dim))
        if RatSubspace.span_ints(dim, m).dim == dim:
            return m


def reference_random_flag(ft, rng):
    """Reference: the image of the coordinate flag under
    `reference_random_invertible_ints`, each member reduced from its whole
    column prefix."""
    cols = tuple(zip(*reference_random_invertible_ints(ft.ambient, rng)))
    return Flag(ft.ambient, tuple(RatSubspace.span_ints(ft.ambient, cols[:d]) for d in ft.dims))


def reference_dual_sampling(evaluate, source_type, seed):
    """Reference: the classifier's duality-pass sampling as intersections of
    dual images, `support_and_constants` over duality . `evaluate` on the
    coordinate flag and the seeded random flags; the constants, the support
    and the number of images drawn."""
    drawn = 0

    def images():
        nonlocal drawn
        rng = random.Random(f"diagflag-classify-{seed}")
        flag = coordinate_flag(source_type)
        while True:
            drawn += 1
            yield duality(evaluate(flag))
            flag = random_flag(source_type, rng)

    constants, support = support_and_constants(images(), window=_CLASSIFY_WINDOW)
    return constants, support, drawn


def reference_sample_stream(source_type, seed):
    """Reference: the classifier's sample flags drawn per call, the
    `random_flag` draws of a fresh `Random(f"diagflag-classify-{seed}")`."""
    rng = random.Random(f"diagflag-classify-{seed}")
    while True:
        yield random_flag(source_type, rng)


def reference_split(n, primes):
    """Reference: the exponents of `primes` in n and the rest of n, each
    prime divided out one power at a time."""
    exponents = {}
    for p in primes:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            exponents[p] = k
    return exponents, n


def _reference_tail_dim(tail, k):
    if isinstance(tail, ConstantTail):
        return tail.value
    return tail.base * tail.ratio**k


def reference_greedy_numbering(gft, s1, cycle):
    """Reference: the admissibility search's greedy numbering detecting
    certification by hashing (cycle position, Fraction(tail, s_(n+1)))
    states, for any cycle.  Returns the picked dimensions once the
    explicit quotients are placed, a state has repeated and at least
    `_PREFIX_LEN` steps are taken; None when a clause fails, no pick is
    available, or no state repeats within `_MAX_STEPS`."""
    tail = gft.tail
    explicit = sorted(gft.finite_quotients)
    tail_k = 0
    picked = []
    s = s1
    states = set()
    certified = False
    for n in range(1, _MAX_STEPS + 1):
        if certified and len(picked) >= _PREFIX_LEN:
            return tuple(picked)
        d = cycle[(n - 1) % len(cycle)]
        tail_min = _reference_tail_dim(tail, tail_k)
        if tail_min % s or any(dim % s for dim in explicit):
            return None
        if explicit and explicit[0] <= tail_min and explicit[0] < s * d:
            picked.append(explicit.pop(0))
        elif tail_min < s * d:
            picked.append(tail_min)
            tail_k += 1
        else:
            return None
        if not explicit:
            state = (n % len(cycle), Fraction(_reference_tail_dim(tail, tail_k), s * d))
            if state in states:
                certified = True
            states.add(state)
        s *= d
    return None


def reference_verify_certificate(gft, sn, cert):
    """Reference: certificate verification keyed on Fraction states, each
    tail dimension recomputed from its index, and no check of the
    certificate's kind, of a finite certificate's exhaustion and prefix, or
    of its recorded prefix length."""
    if cert.kind == "finite":
        return gft.tail is None
    spec = cert.exhaustion
    if spec is None:
        return False
    prefix = cert.numbering_prefix
    if len(prefix) < _PREFIX_LEN:
        return False
    steps = len(prefix) + len(spec.cycle)
    if steps > CERTIFICATE_STEP_LIMIT:
        raise ScaleError(f"verification is limited to {CERTIFICATE_STEP_LIMIT}")
    if not validate_exhaustion(spec, sn).ok:
        return False
    tail = gft.tail
    explicit = sorted(gft.finite_quotients)
    tail_k = 0
    next_tail = None if tail is None else _reference_tail_dim(tail, 0)
    s = spec.s1
    states = set()
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
            tail_k += 1
            next_tail = _reference_tail_dim(tail, tail_k)
        else:
            return False
        for rem in explicit:
            if rem % s:
                return False
        if next_tail is not None and next_tail % s:
            return False
        s *= d
        if next_tail is not None and not explicit:
            state = (n % len(spec.cycle), Fraction(next_tail, s))
            if n >= len(prefix) and state in states:
                return True
            states.add(state)
    return False


def subspace(ambient, rows):
    return RatSubspace.span(ambient, rows)


# -- seeded generators and helpers only the tests use ------------------------

# Block counts d that `random_restriction` draws from.
RANDOM_BLOCK_COUNTS = (2, 3)


def realizing_alpha(g: EGraph) -> SurjectionAlpha:
    """A level map whose restriction analysis reproduces the graph.

    Valid graphs always arise this way with block size q: read off, for
    each left vertex and colour, the right endpoint of the first edge of
    that colour at or below it (the bottom vertex carries one edge per
    colour, so the value always exists), and lay the d block tuples out
    side by side.
    """
    require_valid(g)
    values = [0] * (g.q * g.d)
    for c in range(1, g.d + 1):
        cls = g.colour_class(c)
        for r in range(1, g.q + 1):
            j = next(jj for (i, jj) in cls if i >= r)
            values[(c - 1) * g.q + (r - 1)] = j
    return SurjectionAlpha.of(values)


def random_restriction(rng: random.Random, max_n: int = 8) -> ParabolicRestriction:
    """Random parabolic restriction with a nonempty flag type, drawn by
    retrying random level maps (d from `RANDOM_BLOCK_COUNTS`) until the
    restriction analysis succeeds."""
    while True:
        d = rng.choice(RANDOM_BLOCK_COUNTS)
        m = rng.randint(2, max(2, max_n // d))
        n = d * m
        values = [rng.randint(1, max(2, n // 2)) for _ in range(n)]
        # re-label onto a contiguous range so the map is surjective
        labels = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
        alpha = SurjectionAlpha.of([labels[v] for v in values])
        if alpha.p < 2:
            continue
        result = build_from_alpha(alpha, m)
        if isinstance(result, ParabolicRestriction) and result.flag_type is not None:
            return result


def random_egraph(rng: random.Random, max_n: int = 8) -> EGraph:
    """The graph of a `random_restriction`."""
    return random_restriction(rng, max_n).graph


def random_embedding(rng: random.Random, max_n: int = 8) -> DiagonalEmbedding:
    """Random embedding drawn through random level maps; the source type is
    the restricted flag type the analysis produces."""
    result = random_restriction(rng, max_n)
    return DiagonalEmbedding(result.graph, result.flag_type)


def default_exhaustion_spec(sn: SupernaturalNumber, min_s1: int = 1) -> ExhaustionSpec:
    """A canonical valid exhaustion: the full finite part times the smallest
    power of the infinite-prime product reaching min_s1, cycling by that
    product."""
    finite = 1
    for p, a in sn.finite_factor_pairs:
        finite *= p**a
    step = 1
    for p in sn.infinite_primes:
        step *= p
    s1 = finite
    while s1 < min_s1:
        s1 *= step
    spec = ExhaustionSpec(s1, (step,))
    report = validate_exhaustion(spec, sn)
    if not report.ok:
        raise DomainError(f"no canonical exhaustion: {'; '.join(report.violations)}")
    return spec


def threaded_pullback_additivity(
    sg: SnGraph,
    factors: Sequence[SnGraph],
    threading: Sequence[Sequence[int]],
    n: int,
) -> bool:
    """Level-n pullback of the chain equals the sum of its factors'
    pullbacks re-embedded along the kept-vertex maps."""
    g = sg.level(n)
    return factor_pullback_additivity(
        g,
        [
            GraphFactor(
                threading[n - 1][f],
                factor.prefix[n - 1],
                _kept_vertices(g, threading[n - 1][f]),
                _kept_vertices(sg.level(n + 1), threading[n][f]),
            )
            for f, factor in enumerate(factors)
        ],
    )


@pytest.fixture
def rng():
    return random.Random(20240811)
