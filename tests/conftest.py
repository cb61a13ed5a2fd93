"""Shared reference objects for the test suite."""

import collections
import copy
import functools
import heapq
import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

import pytest

from diagflag import flagcore
from diagflag.diagembed import DiagonalEmbedding
from diagflag.egraph import (
    Edge,
    EGraph,
    ParabolicRestriction,
    SurjectionAlpha,
    build_from_alpha,
    enumerate_valid_graphs,
    require_valid,
    surjections,
    validate_egraph,
)
from diagflag.errors import DomainError, Record
from diagflag.flagcore import (
    STABLE_SAMPLES,
    VERIFY_SAMPLES,
    Classification,
    FlagType,
    PicardPullback,
    StandardExtensionData,
    _build_z_chain,
    _kappa_candidates,
    _sample_flags,
    check_flag_type,
    coordinate_flag,
    duality,
    level_flag,
    random_flag,
    support_and_constants,
)
from diagflag.indlimit import (
    CERTIFICATE_STEP_LIMIT,
    Admissible,
    AdmissibilityCertificate,
    ConstantTail,
    GraphFactor,
    SnGraph,
    Unknown,
    _explicit_steps,
    _kept_vertices,
    _walk,
    factor_pullback_additivity,
)
from diagflag.ratlin import SPREAD, Flag, RatSubspace, StabilizerResult, matvec, pivots, rref, stabilizer_oracle
from diagflag.supernat import INF, ExhaustionSpec, SupernaturalNumber, _divisors_up_to, step_ratio, validate_exhaustion


def replace(obj: Record, **changes) -> Record:
    """A copy of `obj` with the given fields changed, built through the
    constructor, so `__post_init__` runs again."""
    values = [changes.pop(n) if n in changes else getattr(obj, n) for n in obj._fields]
    return type(obj)(*values, **changes)


def replaced_at(doc, path: tuple, value):
    """A deep copy of the JSON document `doc` with the value at `path`, a
    sequence of keys and indices, replaced by `value`."""
    doc = copy.deepcopy(doc)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


# A string or an object where a document wants an array: each iterates, so
# a reader that only iterates takes `""` for an empty list and `"12"` for
# the row [1, 2].
NOT_ARRAYS = pytest.mark.parametrize("value", ["", "12", {}], ids=["empty_string", "digit_string", "object"])


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
            yield SurjectionAlpha(values)


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


def reference_rref(rows, width):
    """Reference: plain Gauss-Jordan over `Fraction`, zero rows dropped."""
    work = [[Fraction(x) for x in r] for r in rows]
    col = 0
    r0 = 0
    while r0 < len(work) and col < width:
        pivot = next((i for i in range(r0, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work[r0], work[pivot] = work[pivot], work[r0]
        inv = work[r0][col]
        work[r0] = [x / inv for x in work[r0]]
        for i in range(len(work)):
            if i != r0 and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[r0])]
        r0 += 1
        col += 1
    return tuple(tuple(r) for r in work[:r0])


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
    and all, with its own parabolicity verdict read off the dense zero
    columns and the block size m: (record, verdict, m).  The record derives
    both; the tests compare them with the reference's."""
    rows = reference_stabilizer_constraints(flag, m)
    size = m * m
    zero_cols = {j for j in range(size) if all(row[j] == 0 for row in rows)}
    roots = frozenset(
        (a + 1, b + 1) for a in range(m) for b in range(m) if a != b and a * m + b in zero_cols
    )
    torus = all(a * m + a in zero_cols for a in range(m))
    parabolic = torus and all(
        a * m + b in zero_cols or b * m + a in zero_cols for a in range(m) for b in range(a + 1, m)
    )
    record = StabilizerResult(
        algebra=RatSubspace.span_ints(size, rows).annihilator(),
        root_spaces=roots,
        contains_torus=torus,
    )
    return record, parabolic, m


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
                if not reference_spans(members[t - 1], [image]):
                    return False
    return True


def reference_spans(sub, vectors):
    """Reference: whether every integer vector lies in `sub`, by coordinates
    read off the pivots: D v must be the sum of v[p] (D / r[p]) r over the
    rows r with pivot p, D the lcm of the pivots."""
    rows = sub.int_rows
    piv = pivots(rows)
    scale = lcm(*[r[p] for r, p in zip(rows, piv)])
    basis = [(p, scale // r[p], r) for r, p in zip(rows, piv)]
    zero = [0] * sub.ambient
    for v in vectors:
        combination = zero
        for p, f, r in basis:
            c = v[p]
            if c:
                c *= f
                combination = [a + c * x for a, x in zip(combination, r)]
        if combination != [scale * x for x in v]:
            return False
    return True


def reference_image(sub, m):
    """Reference: the image of a subspace on the dense `Fraction` route, each
    row of `.rows` mapped by `matvec` and the images eliminated afresh by
    `reference_rref`."""
    m = tuple(tuple(Fraction(x) for x in row) for row in m)
    return RatSubspace.span(len(m), reference_rref([matvec(m, v) for v in sub.rows], len(m)))


def reference_flag_apply(flag, m):
    """Reference: `Flag.apply` member by member, each image built afresh by
    `reference_image` and the chain checked by the validating constructor."""
    return Flag(len(m), tuple(reference_image(sub, m) for sub in flag.chain))


def reference_strict_eval(data, flag):
    """Reference: strict evaluation member by member, eps applied to
    F_kappa(j) at every position by `reference_image` and each sum with
    Z_j eliminated afresh."""
    check_flag_type(flag, data.source_type)
    nw = data.target_ambient
    members = tuple(
        reference_image(flag.member(v), data.epsilon) + z for v, z in zip(data.kappa, data.z_chain)
    )
    return Flag._from_nested(nw, members)


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


def sample_images(evaluate, source_type, seed=0):
    """Deterministic unbounded stream of image flags for
    `support_and_constants`: the coordinate flag first, then images of
    seeded random flags."""
    rng = random.Random(f"diagflag-sample-{seed}")
    yield evaluate(coordinate_flag(source_type))
    while True:
        yield evaluate(random_flag(source_type, rng))


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

    constants, support = support_and_constants(images())
    return constants, support, drawn


def reference_detect_period(cycle, k, levels):
    """Reference: `indlimit._detect_period` by trying every p <= levels,
    comparing the cycle rotated by p with itself and summing d - 1 over the
    first p multipliers."""
    for p in range(1, levels + 1):
        shift = p % len(cycle)
        if cycle[shift:] + cycle[:shift] == cycle and not sum(cycle[i % len(cycle)] - 1 for i in range(p)) % k:
            return p
    return None


def reference_sample_stream(source_type, seed):
    """Reference: the classifier's sample flags drawn per call, the
    `random_flag` draws of a fresh `Random(f"diagflag-classify-{seed}")`."""
    rng = random.Random(f"diagflag-classify-{seed}")
    while True:
        yield random_flag(source_type, rng)


def reference_epsilon_candidates(basis, nw, m, seed):
    """Reference: the full `Fraction` candidate stream `_epsilon_candidates`
    draws from, projective repeats included: the basis vectors, their
    signed pairs, then seeded random combinations."""

    def unflatten(vec):
        return tuple(tuple(vec[r * m + c] for c in range(m)) for r in range(nw))

    for v in basis:
        yield unflatten(v)
    for vi, vj in itertools.combinations(basis, 2):
        for sign in (1, -1):
            yield unflatten([a + sign * b for a, b in zip(vi, vj)])
    rng = random.Random(f"diagflag-epsilon-{seed}")
    for _ in range(60):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
        if not any(coeffs):
            continue
        vec = [
            sum((c * v[i] for c, v in zip(coeffs, basis)), Fraction(0))
            for i in range(nw * m)
        ]
        yield unflatten(vec)


def reference_epsilon_solution_space(samples, source_type, kappa, nw, dualized=False):
    """Reference: the classifier's eps solve on the dual images, as it ran
    before it read the original members: with `dualized`, each sample's
    image is replaced by its dual; each kappa value is constrained at its
    first position by the canonical `annihilator()` rows of that image
    member, a (source member, image member) block is spanned once, and
    only rows not yet in the span are eliminated.  The solutions and the
    number of samples read."""
    if dualized:
        samples = [(flag, duality(image)) for flag, image in samples]
    width = nw * source_type.ambient
    first = {}
    for j, v in enumerate(kappa):
        if v:
            first.setdefault(v, j)
    acc = RatSubspace.zero(width)
    spanned = set()
    stable = read = 0
    for flag, image in samples:
        read += 1
        rows = []
        for v, j in first.items():
            source, target = flag.member(v).int_rows, image.chain[j]
            if (source, target.int_rows) in spanned:
                continue
            spanned.add((source, target.int_rows))
            rows += [[x * y for x in u for y in src] for u in target.annihilator().int_rows for src in source]
        new = tuple(acc.residues(rows))
        if not new:
            stable += 1
            if stable >= STABLE_SAMPLES:
                break
            continue
        acc = RatSubspace.span_ints(width, acc.int_rows + new)
        if acc.dim == width:
            return RatSubspace.zero(width), read
        stable = 0
    return acc.annihilator(), read


def reference_verify_witness(data, evaluate, samples, source_type, seed):
    """Reference: the full comparison `flagcore._verify_witness` cuts down,
    the witness against every collected sample, then against `evaluate`
    on `VERIFY_SAMPLES` flags drawn per call from a fresh
    `Random(f"diagflag-verify-{seed}")`."""
    for flag, image in samples:
        if data.evaluate(flag) != image:
            return False
    rng = random.Random(f"diagflag-verify-{seed}")
    for _ in range(VERIFY_SAMPLES):
        flag = random_flag(source_type, rng)
        if data.evaluate(flag) != evaluate(flag):
            return False
    return True


def reference_recover_strict(evaluate, source_type, seed, dualized=False, passes=None):
    """Reference: `flagcore._recover_strict` with no deficit bound.  The
    pass's images are those of `evaluate` on the memoized sample flags,
    composed with duality for the dual pass; their constants settle
    whatever their deficits, by `support_and_constants`; then every index
    map `_kappa_candidates` finds is searched for a strict witness of those
    images, over every candidate of `reference_epsilon_candidates` (the
    stream with its projective repeats), with no shortcut before
    `check()`, each verified by `reference_verify_witness`.  `passes`,
    when given, gets each pass's candidates and its largest deficit
    q_j - dim C_j."""
    samples = []

    def target(flag):
        image = evaluate(flag)
        return duality(image) if dualized else image

    def images():
        for flag in itertools.chain([coordinate_flag(source_type)], _sample_flags(source_type, seed)):
            samples.append((flag, target(flag)))
            yield samples[-1][1]

    constants, support = support_and_constants(images())
    target_dims = samples[0][1].dims
    m, k, nw = source_type.ambient, source_type.length, samples[0][1].ambient
    kappas = _kappa_candidates(source_type, target_dims, constants, support) if target_dims else []
    if passes is not None:
        passes.append((kappas, max((q - c.dim for q, c in zip(target_dims, constants)), default=0)))
    if not target_dims:
        if m > nw or k > 0:
            return None
        eps = tuple(tuple(int(r == c) for c in range(m)) for r in range(nw))
        return StandardExtensionData(source_type, eps, 1, (), ())
    for kappa in kappas:
        solutions, _ = reference_epsilon_solution_space(samples, source_type, kappa, nw)
        if not solutions.dim:
            continue
        for eps in reference_epsilon_candidates(solutions.rows, nw, m, seed):
            image = RatSubspace.span(nw, zip(*eps))
            chain = _build_z_chain(kappa, constants, image, k) if image.dim == m else None
            if chain is None:
                continue
            try:
                data = StandardExtensionData.from_epsilon(source_type, eps, chain, kappa)
            except DomainError:
                continue
            if reference_verify_witness(data, target, samples, source_type, seed):
                return data
    return None


def reference_classify(evaluate, source_type, seed=0, passes=None):
    """Reference: `classify_bruteforce` by `reference_recover_strict`, the
    strict pass at `seed`, then the dual pass at seed + 1."""
    for pass_seed, dualized in ((seed, False), (seed + 1, True)):
        data = reference_recover_strict(evaluate, source_type, pass_seed, dualized, passes)
        if data is not None:
            return Classification(replace(data, dualized=dualized))
    return Classification(None)


def criterion_05_instances():
    """The criterion-05 set in its order: every valid graph with d*m <= 6
    times every source type."""
    return [
        (g, FlagType(m, dims))
        for d in range(1, 4)
        for m in range(2, 7)
        if d * m <= 6
        for q in range(1, m + 1)
        for p in range(1, q * d + 1)
        for g in enumerate_valid_graphs(q, p, d)
        for dims in itertools.combinations(range(1, m), q - 1)
    ]


# One classification of `criterion_05_classified`: the source type, the
# evaluate classified, the `Classification`, whether each pass's `_settle`
# ended early, and each `_verify_witness` and `_epsilon_solution_space`
# call with its arguments and its answer.
Classified = collections.namedtuple("Classified", "source_type evaluate result exits verifications solves")


@pytest.fixture(scope="session")
def criterion_05_classified():
    """Every criterion-05 embedding and its duality . evaluate twin,
    classified once per session at seed 0, in order, with the classifier's
    settles, verifications and eps solves recorded (see `Classified`)."""
    exits, verifications, solves = [], [], []

    def settle(*args):
        settled = real_settle(*args)
        exits.append(settled is None)
        return settled

    def verify(data, evaluate, samples, solved, seed):
        ok = real_verify(data, evaluate, samples, solved, seed)
        verifications.append((data, evaluate, tuple(samples), solved, seed, ok))
        return ok

    def solve(samples, source_type, kappa, nw, dualized=False):
        got = real_solve(samples, source_type, kappa, nw, dualized)
        solves.append((tuple(samples), source_type, kappa, nw, dualized, got))
        return got

    real_settle, real_verify, real_solve = flagcore._settle, flagcore._verify_witness, flagcore._epsilon_solution_space
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flagcore, "_settle", settle)
        patch.setattr(flagcore, "_verify_witness", verify)
        patch.setattr(flagcore, "_epsilon_solution_space", solve)
        for g, ft in criterion_05_instances():
            emb = DiagonalEmbedding(g, ft)
            for evaluate in (emb.evaluate, lambda f, emb=emb: duality(emb.evaluate(f))):
                result = flagcore.classify_bruteforce(evaluate, ft, seed=0)
                out.append(Classified(ft, evaluate, result, tuple(exits), tuple(verifications), tuple(solves)))
                exits.clear()
                verifications.clear()
                solves.clear()
    return tuple(out)


def reference_level_flag(keys):
    """Reference: `level_flag` by one member per key value but the largest,
    each built from the identity rows of the indices keyed at most it."""
    n = len(keys)
    unit = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return Flag._from_nested(
        n,
        tuple(
            RatSubspace(n, tuple(unit[i] for i, k in enumerate(keys) if k <= bound))
            for bound in sorted(set(keys))[:-1]
        ),
    )


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


def reference_validate_exhaustion(spec, sn):
    """Reference: `validate_exhaustion` by the product route, which forms
    the cycle product and splits it with `reference_split`."""
    violations = []
    s1_f, s1_rest = reference_split(spec.s1, sn.primes)
    prod_f, prod_rest = reference_split(prod(spec.cycle), sn.primes)
    for p, k in s1_f.items():
        a = sn.exponent(p)
        if k > a:
            violations.append(f"membership: s1 carries {p}^{k} but the exponent of {p} is {a}")
    if s1_rest > 1:
        violations.append(f"membership: s1 carries the factor {s1_rest}, prime to the number")
    for p in prod_f:
        a = sn.exponent(p)
        if a is not INF:
            violations.append(
                f"membership: cycle multiplies by {p} whose exponent {a} is finite, so terms eventually leave the divisor set"
            )
    if prod_rest > 1:
        violations.append(f"membership: cycle introduces the factor {prod_rest}, prime to the number")
    for p in sn.infinite_primes:
        if p not in prod_f:
            violations.append(f"cofinality: prime {p} has infinite exponent but never appears in the cycle")
    for p, a in sn.finite_factor_pairs:
        if s1_f.get(p, 0) + prod_f.get(p, 0) * a < a:
            violations.append(f"cofinality: {p}^{a} divides the number but no term reaches exponent {a}")
    return tuple(violations)


# The shortest numbering prefix a certificate listed when it carried one,
# and the length of prefix the tests hand `reference_verify_certificate`
# at least.
_PREFIX_LEN = 12


def _reference_tail_dim(tail, k):
    if isinstance(tail, ConstantTail):
        return tail.value
    return tail.base * tail.ratio**k


def forced_prefix(gft, k):
    """The first k quotient dimensions of a type in increasing order, an
    explicit one before an equal tail dimension: the only numbering both
    clauses allow along any exhaustion."""
    explicit = ((dim, 0) for dim in sorted(gft.finite_quotients))
    tail = () if gft.tail is None else ((_reference_tail_dim(gft.tail, i), 1) for i in itertools.count())
    return tuple(dim for dim, _ in itertools.islice(heapq.merge(explicit, tail), k))


def unplaced_after(gft, k):
    """The dimensions of a type with a geometric tail that the first k
    steps of the forced order leave unplaced: the explicit ones left and
    the next tail dimension, which divides all later ones."""
    explicit = collections.Counter(gft.finite_quotients)
    explicit.subtract(collections.Counter(forced_prefix(gft, k)))
    left = list(explicit.elements())
    tail_placed = k - (len(gft.finite_quotients) - len(left))
    return [*left, _reference_tail_dim(gft.tail, tail_placed)]


def reference_clause_walk(gft, s1, cycle, steps):
    """Reference: both clauses at each of `steps` steps of the forced order
    of a type with a geometric tail, clause 2 on every dimension not placed
    before the step."""
    s = s1
    for n, dim in enumerate(forced_prefix(gft, steps)):
        d = cycle[n % len(cycle)]
        if any(x % s for x in unplaced_after(gft, n)):
            return False
        j, rest = divmod(dim, s)
        if rest or not 1 <= j <= d - 1:
            return False
        s *= d
    return True


def clause_numberings(pool, divisors, k):
    """Brute force: every pair of a chain s_1 | ... | s_(k+1) from
    `divisors` and an injective numbering q_1 .. q_k of positions of
    `pool` that meets both clauses: at steps n <= k, q_n = j * s_n with
    1 <= j <= d_n - 1; at steps n <= k + 1, s_n divides every dimension of
    the pool not placed before step n.  Any numbering of the pool, not
    only the sorted one, is tried.  A pair is extended one step at a time
    and dropped as soon as a clause fails, which no extension mends; the
    numbering comes back as its dimensions."""

    def extend(chain, placed):
        s = chain[-1]
        rest = [i for i in range(len(pool)) if i not in placed]
        if any(pool[i] % s for i in rest):
            return
        if len(placed) == k:
            yield chain, [pool[i] for i in placed]
            return
        for i in rest:
            for t in divisors:
                if t % s == 0 and pool[i] < t:
                    yield from extend(chain + (t,), placed + (i,))

    for s1 in divisors:
        yield from extend((s1,), ())


# The steps the reference greedy takes unless told otherwise: a state
# repeating at step 199 or earlier is found.
_GREEDY_STEPS = 200


def reference_greedy_numbering(gft, s1, cycle, limit=_GREEDY_STEPS):
    """Reference: the admissibility search's greedy numbering detecting
    certification by hashing (cycle position, Fraction(tail, s_(n+1)))
    states, for any cycle.  Returns the picked dimensions once the
    explicit quotients are placed, a state has repeated and at least
    `_PREFIX_LEN` steps are taken; None when a clause fails, no pick is
    available, or no state repeats before step `limit`."""
    tail = gft.tail
    explicit = sorted(gft.finite_quotients)
    tail_k = 0
    picked = []
    s = s1
    states = set()
    certified = False
    for n in range(1, limit + 1):
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


def reference_periodic(tail, cycle):
    """Reference: the period rule by the product route, ratio^L against the
    cycle product, L the cycle length."""
    return tail.ratio ** len(cycle) == prod(cycle)


def reference_admissible(gft, sn, bound):
    """Reference: the admissibility search of a type with a geometric tail
    by listing, with no limit on its size.  Every s1 up to `bound` that
    divides sn and carries its whole finite part, and every cycle of one or
    two multipliers in [2, bound] dividing sn's infinite part whose product
    every infinite prime divides; of these, the pairs whose cycle obeys the
    period rule and is walked within `CERTIFICATE_STEP_LIMIT` steps, in
    that order, through the library's walk.  Unknown counts the listed
    pairs."""
    inf_primes = sn.infinite_primes
    infinite_part = SupernaturalNumber.from_factors({p: INF for p in inf_primes})
    multipliers = [m for m in _divisors_up_to(infinite_part.factors, bound) if m >= 2]
    finite_part = prod(p**a for p, a in sn.finite_factor_pairs)
    s1_candidates = [s1 for s1 in _divisors_up_to(sn.factors, bound) if s1 % finite_part == 0]
    cycles = [
        cycle
        for length in (1, 2)
        for cycle in itertools.product(multipliers, repeat=length)
        if prod(cycle) % prod(inf_primes) == 0
    ]
    explicit_steps = _explicit_steps(gft)
    periodic = [
        cycle
        for cycle in cycles
        if reference_periodic(gft.tail, cycle) and explicit_steps + len(cycle) <= CERTIFICATE_STEP_LIMIT
    ]
    for s1 in s1_candidates:
        for cycle in periodic:
            if _walk(gft, s1, cycle, explicit_steps + len(cycle)) is not None:
                return Admissible(AdmissibilityCertificate(ExhaustionSpec(s1, cycle)))
    return Unknown(len(s1_candidates) * len(cycles))


def reference_verify_certificate(gft, sn, spec, prefix):
    """Reference: the verifier of the certificates that listed a numbering
    prefix, keyed on Fraction states, each tail dimension recomputed from
    its index.  `spec` None stands for a finite certificate, which needs
    an empty prefix and a type without a tail.  Otherwise the prefix must
    be at least `_PREFIX_LEN` long and place every explicit quotient; past
    it, each step places the next tail dimension.  Both clauses are
    checked at every step, and the exhaustion is accepted when, at the end
    of the prefix or later, the state (cycle position, next tail dimension
    / s_(n+1)) repeats within the prefix length plus the cycle length."""
    if spec is None:
        return gft.tail is None and not prefix
    if len(prefix) < _PREFIX_LEN or not validate_exhaustion(spec, sn).ok:
        return False
    tail = gft.tail
    explicit = sorted(gft.finite_quotients)
    tail_k = 0
    next_tail = None if tail is None else _reference_tail_dim(tail, 0)
    s = spec.s1
    states = set()
    for n in range(1, len(prefix) + len(spec.cycle) + 1):
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

def block_embed(sub: RatSubspace, block: int, blocks: int) -> RatSubspace:
    """Shift a subspace of Q^m into block `block` of Q^(blocks*m).

    Block indices are 1-based; block i occupies coordinates
    (i-1)*m .. i*m - 1.
    """
    if not 1 <= block <= blocks:
        raise DomainError(f"block index {block} out of range 1..{blocks}")
    m = sub.ambient
    zero_l = (0,) * ((block - 1) * m)
    zero_r = (0,) * ((blocks - block) * m)
    return RatSubspace(
        blocks * m, tuple(zero_l + v + zero_r for v in sub.int_rows)
    )


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


def reversed_flag(flag: Flag) -> Flag:
    """The image of `flag` under the reversal of coordinates: a flag of the
    same type, which differs from a coordinate flag e_1 .. e_k."""
    n = flag.ambient
    return flag.apply(tuple(tuple(int(i + j == n - 1) for j in range(n)) for i in range(n)))


# Block counts d that `random_restriction` draws from.
RANDOM_BLOCK_COUNTS = (2, 3)


def colour_class(g: EGraph, c: int) -> tuple[tuple[int, int], ...]:
    """The colour-c edges of `g` as (left, right) pairs sorted by left
    index."""
    return tuple(sorted((i, j) for (i, j, cc) in g.edges if cc == c))


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
        cls = colour_class(g, c)
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


@pytest.fixture(scope="session")
def level_flag_oracles():
    """Every coordinate flag of a surjective level map with n <= 6, at every
    block size m = n/d for d dividing n, in that order: (flag, m, a fresh
    `stabilizer_oracle(flag, m)`, `reference_stabilizer(flag, m)`),
    computed once for the tests that compare them."""
    cases = []
    for n in range(2, 7):
        for alpha in surjections(n):
            flag = level_flag(alpha.values)
            for d in range(1, n + 1):
                if n % d == 0:
                    cases.append((flag, n // d, stabilizer_oracle(flag, n // d), reference_stabilizer(flag, n // d)))
    return cases
