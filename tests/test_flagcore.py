import bisect
import collections
import functools
import hashlib
import itertools
import json
import operator
import random
import sys
import threading
from fractions import Fraction
from math import gcd

import pytest
from conftest import (
    MIXED_GRAPH,
    MIXED_SOURCE,
    NOT_ARRAYS,
    agrees_with_brute_force,
    criterion_05_instances,
    is_linear,
    reference_classify,
    reference_dual_sampling,
    reference_epsilon_candidates,
    reference_epsilon_solution_space,
    reference_level_flag,
    reference_random_flag,
    reference_sample_stream,
    reference_strict_eval,
    replace,
    replaced_at,
    sample_images,
    solve_unique,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diagflag import diagembed, flagcore
from diagflag.cli import canonical_json
from diagflag.errors import DomainError, ScaleError
from diagflag.flagcore import (
    SAMPLE_LIMIT,
    VERIFY_SAMPLES,
    FlagType,
    PicardPullback,
    StandardExtensionData,
    classify_bruteforce,
    coordinate_flag,
    dual_type,
    duality,
    level_dims,
    level_flag,
    random_flag,
    se_compose,
    se_eval,
    support_and_constants,
    _dual_conjugate,
    _epsilon_candidates,
    _epsilon_solution_space,
    _kappa_candidates,
    _SAMPLE_STREAMS,
    _sample_flags,
    _sample_stream,
    _verify_flags,
    _verify_witness,
)
from diagflag.diagembed import DiagonalEmbedding
from diagflag.ratlin import Flag, RatSubspace, nullspace, random_invertible_ints


def type_of(flag: Flag) -> FlagType:
    return FlagType(flag.ambient, flag.dims)


def identity_extension(ft: FlagType) -> StandardExtensionData:
    zero = RatSubspace.zero(ft.ambient)
    return StandardExtensionData.from_epsilon(
        source_type=ft,
        epsilon=inclusion_matrix(ft.ambient, ft.ambient),
        z_chain=(zero,) * ft.length,
        kappa=tuple(range(1, ft.length + 1)),
    )


def inclusion_matrix(nw: int, m: int):
    return tuple(tuple(Fraction(1 if r == c else 0) for c in range(m)) for r in range(nw))


def absorbing_extension(dims, m, zdim, k0):
    """Flags in Q^m pushed into Q^(m+zdim): members from position k0 absorb
    the new coordinates (no member is inserted)."""
    nw = m + zdim
    k = len(dims)
    z_full = RatSubspace.span(nw, [[0] * m + [1 if c == j else 0 for c in range(zdim)] for j in range(zdim)])
    zero = RatSubspace.zero(nw)
    chain = tuple(zero if j < k0 else z_full for j in range(1, k + 1))
    return StandardExtensionData.from_epsilon(
        FlagType(m, tuple(dims)), inclusion_matrix(nw, m), chain, tuple(range(1, k + 1))
    )


def inserting_extension(dims, m, zdim, k0):
    """Same, but with the member at position k0 duplicated before absorbing:
    one new member appears."""
    nw = m + zdim
    k = len(dims)
    z_full = RatSubspace.span(nw, [[0] * m + [1 if c == j else 0 for c in range(zdim)] for j in range(zdim)])
    zero = RatSubspace.zero(nw)
    kappa = tuple(j if j < k0 else j - 1 for j in range(1, k + 2))
    chain = tuple(zero if j < k0 else z_full for j in range(1, k + 2))
    return StandardExtensionData.from_epsilon(
        FlagType(m, tuple(dims)), inclusion_matrix(nw, m), chain, kappa
    )


def random_se(rng: random.Random, max_ambient: int = 4, max_extra: int = 3) -> StandardExtensionData:
    """Random valid strict standard-extension data on coordinate complements."""
    while True:
        m = rng.randint(1, max_ambient)
        k = rng.randint(0, m - 1)
        dims = tuple(sorted(rng.sample(range(1, m), k)))
        extra = rng.randint(1, max_extra)
        nw = m + extra
        ell = rng.randint(max(k, 1), k + 2)
        kappa = tuple(sorted(rng.randint(0, k + 1) for _ in range(ell)))
        zdims = sorted(rng.randint(0, extra) for _ in range(ell))
        chain = tuple(
            RatSubspace.span(nw, [[0] * m + [1 if c == j else 0 for c in range(extra)] for j in range(z)])
            for z in zdims
        )
        try:
            return StandardExtensionData.from_epsilon(
                FlagType(m, dims), inclusion_matrix(nw, m), chain, kappa
            )
        except DomainError:
            continue


def test_flag_type_validation():
    FlagType(4, (1, 3))
    FlagType(4, ())
    with pytest.raises(DomainError):
        FlagType(4, (0, 2))
    with pytest.raises(DomainError):
        FlagType(4, (2, 2))
    with pytest.raises(DomainError):
        FlagType(4, (1, 4))


def test_coordinate_and_random_flags(rng):
    ft = FlagType(5, (2, 3))
    flag = coordinate_flag(ft)
    assert type_of(flag) == ft
    for _ in range(20):
        assert type_of(random_flag(ft, rng)) == ft


def test_random_flag_matches_the_reference():
    """Same flags and the same generator state as the whole-prefix
    reduction of a randint-drawn matrix, on every type up to ambient 5."""
    types = [FlagType(n, dims) for n in range(1, 6) for k in range(n) for dims in itertools.combinations(range(1, n), k)]
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        for ft in types:
            assert random_flag(ft, rng) == reference_random_flag(ft, ref)
        assert rng.getstate() == ref.getstate()


def test_dual_type_and_duality(rng):
    ft = FlagType(5, (1, 4))
    assert dual_type(ft) == FlagType(5, (1, 4))
    assert dual_type(FlagType(5, (2,))) == FlagType(5, (3,))
    flag = random_flag(ft, rng)
    assert duality(duality(flag)) == flag
    assert type_of(duality(flag)) == dual_type(ft)


def test_absorbing_extension_dimension_table():
    # members keep their dimension before the absorption point and gain the
    # complement dimension from it onward
    dims = (1, 2, 4)
    zdim = 3
    for k0 in range(1, 5):
        se = absorbing_extension(dims, 5, zdim, k0)
        expected = tuple(p if i < k0 else p + zdim for i, p in enumerate(dims, start=1))
        assert se.target_type.dims == expected


def test_inserting_extension_dimension_table():
    dims = (1, 2, 4)
    m, zdim = 5, 3
    ext = (0, *dims, m)
    for k0 in range(1, 5):
        se = inserting_extension(dims, m, zdim, k0)
        expected = tuple(
            ext[i] if i < k0 else ext[i - 1] + zdim for i in range(1, len(dims) + 2)
        )
        assert se.target_type.dims == expected


def test_se_eval_absorbing_map(rng):
    se = absorbing_extension((1, 2), 3, 2, k0=2)
    for _ in range(10):
        flag = random_flag(FlagType(3, (1, 2)), rng)
        image = se_eval(se, flag)
        v1, v2 = flag.chain
        pad = RatSubspace.span(5, [[v[0], v[1], v[2], 0, 0] for v in v1.rows])
        tail = RatSubspace.span(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        pad2 = RatSubspace.span(5, [[v[0], v[1], v[2], 0, 0] for v in v2.rows])
        assert image.chain == (pad, pad2 + tail)


def test_identity_extension_is_identity(rng):
    ft = FlagType(4, (1, 3))
    ide = identity_extension(ft)
    for _ in range(10):
        flag = random_flag(ft, rng)
        assert se_eval(ide, flag) == flag


def test_se_eval_rejects_wrong_type():
    se = absorbing_extension((1,), 2, 1, 1)
    for flag, message in [
        (coordinate_flag(FlagType(3, (1,))), "flag does not match the source type"),
        (coordinate_flag(FlagType(2, ())), "flag does not match the source type"),
        (Flag(0, ()), "ambient dimension must be positive"),
    ]:
        for evaluate in (se.strict_eval, lambda f: se_eval(se, f)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                evaluate(flag)


def test_data_invariants_rejected():
    """Each case fails `check()` with its message, on the plain constructor
    and, where eps is a rational matrix, through `from_epsilon`."""
    ft = FlagType(2, (1,))
    unit = ((1, 0), (0, 1), (0, 0))
    z = RatSubspace.span(3, [[0, 0, 1]])
    zero = RatSubspace.zero(3)
    bad_z = RatSubspace.span(3, [[1, 0, 0]])
    cases = [
        (unit, 1, (z,), (2,), "attain every source member index"),
        (unit, 1, (z, zero), (1, 0), "nested"),
        (unit, 1, (zero, z), (1, 0), "nondecreasing"),
        (unit, 1, (z, z), (1, 1), "pairwise distinct"),
        (unit, 1, (zero, zero), (0, 1), "zero subspace"),
        # eps(V) + Z covers everything
        (unit, 1, (zero, z), (1, 2), "whole space"),
        (unit, 1, (bad_z,), (1,), "meet the image of epsilon trivially"),
        (((1, 1), (1, 1), (0, 0)), 1, (z,), (1,), "injective"),
        (((1, 1), (1, 1), (0, 0)), 3, (z,), (1,), "injective"),
        (((1,), (0,), (0,)), 1, (z,), (1,), "one column per source coordinate"),
        (unit, 0, (z,), (1,), "denominator of epsilon must be positive"),
        (unit, -2, (z,), (1,), "denominator of epsilon must be positive"),
    ]
    for rows, den, chain, kappa, message in cases:
        with pytest.raises(DomainError, match=message):
            StandardExtensionData(ft, rows, den, chain, kappa).check()
        if den > 0:
            eps = tuple(tuple(Fraction(x, den) for x in row) for row in rows)
            with pytest.raises(DomainError, match=message):
                StandardExtensionData.from_epsilon(ft, eps, chain, kappa)


def test_compose_identity_neutral(rng):
    for _ in range(20):
        se = random_se(rng)
        ide = identity_extension(se.source_type)
        assert se_compose(ide, se) == se


def test_compose_matches_pointwise(rng):
    for _ in range(30):
        a = random_se(rng)
        # build b with source = target of a
        while True:
            mid = a.target_type
            extra = rng.randint(1, 2)
            k0 = rng.randint(1, mid.length + 1)
            b = (
                absorbing_extension(mid.dims, mid.ambient, extra, k0)
                if rng.random() < 0.5
                else inserting_extension(mid.dims, mid.ambient, extra, k0)
            )
            break
        comp = se_compose(a, b)
        assert comp.source_type == a.source_type
        assert comp.target_type == b.target_type
        for _ in range(5):
            flag = random_flag(a.source_type, rng)
            assert se_eval(comp, flag) == se_eval(b, se_eval(a, flag))


def test_compose_with_duality_flags(rng):
    for _ in range(10):
        a = random_se(rng)
        a_dual = replace(a, dualized=True)
        mid = a_dual.target_type
        b = absorbing_extension(mid.dims, mid.ambient, 1, 1)
        comp = se_compose(a_dual, b)
        assert comp.dualized
        for _ in range(4):
            flag = random_flag(a.source_type, rng)
            assert se_eval(comp, flag) == se_eval(b, se_eval(a_dual, flag))
        b_dual = replace(b, dualized=True)
        comp2 = se_compose(a_dual, b_dual)
        assert not comp2.dualized
        for _ in range(4):
            flag = random_flag(a.source_type, rng)
            assert se_eval(comp2, flag) == se_eval(b_dual, se_eval(a_dual, flag))


def test_compose_all_dual_combinations(rng):
    for a_dual in (False, True):
        for b_dual in (False, True):
            for _ in range(8):
                a = replace(random_se(rng), dualized=a_dual)
                mid = a.target_type
                k0 = rng.randint(1, mid.length + 1)
                builder = absorbing_extension if rng.random() < 0.5 else inserting_extension
                b = replace(builder(mid.dims, mid.ambient, rng.randint(1, 2), k0), dualized=b_dual)
                comp = se_compose(a, b)
                assert comp.dualized == (a_dual != b_dual)
                assert comp.target_type == b.target_type
                for _ in range(3):
                    flag = random_flag(a.source_type, rng)
                    assert se_eval(comp, flag) == se_eval(b, se_eval(a, flag))


def reference_matmul(a, b):
    """The Fraction product the library used to compose eps with."""
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt) for row in a
    )


def reference_strict_compose(a, b):
    """Strict composition b . a in Fractions, through `from_epsilon`."""
    ka, la = a.source_type.length, len(a.kappa)
    kappa_ext = (0, *a.kappa, ka + 1)
    z_ext = (RatSubspace.zero(a.target_ambient), *a.z_chain, a.full_complement())
    chain = tuple(z_ext[v].apply(b.epsilon) + z for v, z in zip(b.kappa, b.z_chain))
    kappa = tuple(kappa_ext[v] for v in b.kappa)
    return StandardExtensionData.from_epsilon(a.source_type, reference_matmul(b.epsilon, a.epsilon), chain, kappa)


def reference_dual_conjugate(s):
    """Duality conjugation in Fractions: eps~ column by column, each solved
    on its own, through `from_epsilon`."""
    m = s.source_type.ambient
    k = s.source_type.length
    ell = len(s.kappa)
    nw = s.target_ambient
    image = s.image_of_epsilon()
    z_full = s.full_complement()
    eq_rows = tuple(zip(*s.epsilon)) + z_full.rows
    cols = []
    for i in range(m):
        rhs = tuple(Fraction(1 if j == i else 0) for j in range(m)) + (Fraction(0),) * z_full.dim
        cols.append(solve_unique(eq_rows, rhs))
    eps_tilde = tuple(tuple(col[r] for col in cols) for r in range(nw))
    kappa_t = tuple(k + 1 - s.kappa[ell - j] for j in range(1, ell + 1))
    chain_t = tuple((image + s.z_chain[ell - j]).annihilator() for j in range(1, ell + 1))
    return StandardExtensionData.from_epsilon(dual_type(s.source_type), eps_tilde, chain_t, kappa_t)


def reference_se_compose(a, b):
    if not a.dualized:
        strict = reference_strict_compose(a, replace(b, dualized=False))
        dualized = b.dualized
    else:
        strict = reference_strict_compose(
            replace(a, dualized=False), reference_dual_conjugate(replace(b, dualized=False))
        )
        dualized = not b.dualized
    return StandardExtensionData.from_epsilon(
        strict.source_type, strict.epsilon, strict.z_chain, strict.kappa, dualized
    )


def moved(se, rng):
    """The same extension followed by a random rational automorphism g of
    the target (an integer matrix with each row over its own denominator):
    eps becomes g eps and each Z_j becomes g Z_j."""
    nw = se.target_ambient
    g = tuple(
        tuple(Fraction(x, scale) for x in row)
        for row in random_invertible_ints(nw, rng)
        for scale in [rng.choice((-5, -3, -2, 1, 2, 4, 6))]
    )
    return StandardExtensionData.from_epsilon(
        se.source_type,
        reference_matmul(g, se.epsilon),
        tuple(z.apply(g) for z in se.z_chain),
        se.kappa,
        se.dualized,
    )


def test_compose_matches_the_fraction_reference(rng):
    """All four strict/dualized combinations, on chains of two and three
    steps with rational eps."""
    denominators = set()
    for a_dual in (False, True):
        for b_dual in (False, True):
            for _ in range(6):
                a = replace(moved(random_se(rng), rng), dualized=a_dual)
                steps = [a]
                for dualized in (b_dual, rng.random() < 0.5):
                    mid = steps[-1].target_type
                    builder = absorbing_extension if rng.random() < 0.5 else inserting_extension
                    step = builder(mid.dims, mid.ambient, rng.randint(1, 2), rng.randint(1, mid.length + 1))
                    steps.append(replace(moved(step, rng), dualized=dualized))
                composed, expected = steps[0], steps[0]
                for step in steps[1:]:
                    composed = se_compose(composed, step)
                    expected = reference_se_compose(expected, step)
                    assert composed == expected and hash(composed) == hash(expected)
                    denominators.add(composed.denominator)
    assert len(denominators) > 3


def test_dual_conjugate_matches_the_fraction_solves(rng):
    """The conjugation reads only the strict part: dualized data conjugates
    to the data of its strict copy."""
    denominators = set()
    for _ in range(60):
        se = moved(random_se(rng), rng)
        got = _dual_conjugate(se)
        expected = reference_dual_conjugate(se)
        assert got == expected and hash(got) == hash(expected)
        denominators.add(got.denominator)
        flag = random_flag(se.source_type, rng)
        assert se_eval(got, duality(flag)) == duality(se_eval(se, flag))
        dual = replace(se, dualized=True)
        conjugate = _dual_conjugate(dual)
        assert conjugate == _dual_conjugate(replace(dual, dualized=False)) == reference_dual_conjugate(dual)
        assert not conjugate.dualized
    assert len(denominators) > 3


def test_strict_eval_matches_the_fraction_image(rng):
    for _ in range(20):
        se = moved(random_se(rng), rng)
        for _ in range(3):
            flag = random_flag(se.source_type, rng)
            expected = tuple(
                flag.member(v).apply(se.epsilon) + z for v, z in zip(se.kappa, se.z_chain)
            )
            assert se.strict_eval(flag).chain == expected


def test_shared_images_match_the_per_member_route(rng):
    """`strict_eval`, `se_eval` and `se_compose` against
    `reference_strict_eval`, on moved random data whose draws include
    repeated kappa values, zero Z_j and k+1 suffixes."""
    seen = {"repeat": 0, "zero": 0, "suffix": 0}
    for _ in range(60):
        se = moved(random_se(rng), rng)
        seen["repeat"] += any(v == w for v, w in zip(se.kappa, se.kappa[1:]))
        seen["zero"] += any(z.dim == 0 for z in se.z_chain)
        seen["suffix"] += se.source_type.length + 1 in se.kappa
        mid = se.target_type
        builder = absorbing_extension if rng.random() < 0.5 else inserting_extension
        step = builder(mid.dims, mid.ambient, rng.randint(1, 2), rng.randint(1, mid.length + 1))
        step = replace(moved(step, rng), dualized=rng.random() < 0.5)
        composed = se_compose(se, step)
        for _ in range(3):
            flag = random_flag(se.source_type, rng)
            expected = reference_strict_eval(se, flag)
            assert se.strict_eval(flag) == expected
            assert se_eval(se, flag) == expected
            assert se_eval(replace(se, dualized=True), flag) == duality(expected)
            after = reference_strict_eval(step, expected)
            assert se_eval(composed, flag) == (duality(after) if step.dualized else after)
    assert min(seen.values()) > 5


KAPPA_SHAPES = {
    "repeat": lambda se: any(v == w for v, w in zip(se.kappa, se.kappa[1:])),
    "zero": lambda se: 0 in se.kappa,
    "suffix": lambda se: se.source_type.length + 1 in se.kappa,
}


@given(st.integers(0, 2**32), st.sampled_from(sorted(KAPPA_SHAPES)))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_strict_eval_matches_the_dense_reference(seed, shape):
    """`strict_eval` against `reference_strict_eval`, on moved data whose
    kappa repeats a value, reaches 0 or reaches k + 1, as drawn."""
    rng = random.Random(seed)
    se = random_se(rng)
    while not KAPPA_SHAPES[shape](se):
        se = random_se(rng)
    se = moved(se, rng)
    for _ in range(3):
        flag = random_flag(se.source_type, rng)
        assert se.strict_eval(flag) == reference_strict_eval(se, flag)


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def injective_epsilons(draw):
    """An injective rational eps, sometimes with a scaled duplicate row."""
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[rationals] * m), min_size=m, max_size=m + 2))
    if draw(st.booleans()):
        c = draw(rationals.filter(bool))
        rows.append(tuple(c * x for x in draw(st.sampled_from(rows))))
    assume(RatSubspace.span(len(rows), zip(*rows)).dim == m)
    return m, tuple(rows)


@given(injective_epsilons(), st.integers(2, 30))
@settings(max_examples=150, deadline=None)
def test_epsilon_is_stored_as_integers_in_lowest_terms(case, scale):
    m, eps = case
    ft = FlagType(m, ())
    data = StandardExtensionData.from_epsilon(ft, eps, (), ())
    assert data.epsilon == eps
    assert data.denominator > 0
    assert gcd(data.denominator, *(x for row in data.int_epsilon for x in row)) == 1
    assert data.to_json_obj()["epsilon"] == [[str(x) for x in row] for row in eps]
    same = (
        StandardExtensionData.from_epsilon(ft, tuple(tuple(str(x) for x in row) for row in eps), (), ()),
        StandardExtensionData(
            ft,
            tuple(tuple(scale * x for x in row) for row in data.int_epsilon),
            scale * data.denominator,
            (),
            (),
        ).check(),
        StandardExtensionData.from_json_obj(data.to_json_obj()),
    )
    for other in same:
        assert other == data and hash(other) == hash(data)
    doubled = StandardExtensionData.from_epsilon(ft, tuple(tuple(2 * x for x in row) for row in eps), (), ())
    assert doubled != data


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_trusted_builders_pass_check(seed):
    """The data the library builds through the trusting constructor passes
    `check()`: compositions in all four dualized combinations, the duality
    conjugation and `replace(dualized=...)`, on data with rational eps."""
    rng = random.Random(seed)
    for a_dual in (False, True):
        for b_dual in (False, True):
            a = replace(moved(random_se(rng), rng), dualized=a_dual)
            mid = a.target_type
            builder = absorbing_extension if rng.random() < 0.5 else inserting_extension
            b = builder(mid.dims, mid.ambient, rng.randint(1, 2), rng.randint(1, mid.length + 1))
            b = replace(moved(b, rng), dualized=b_dual)
            composed = se_compose(a, b)
            assert composed.check() is composed
            flipped = replace(composed, dualized=not composed.dualized)
            assert flipped.check() is flipped and flipped.int_epsilon == composed.int_epsilon
    conjugate = _dual_conjugate(moved(random_se(rng), rng))
    assert conjugate.check() is conjugate


@given(st.integers(1, 4), st.integers(0, 2))
@settings(max_examples=15, deadline=None)
def test_point_target_witness_passes_check(m, extra):
    """An embedding into flags with no members is witnessed by the
    inclusion eps, built without checks."""
    nw = m + extra
    result = classify_bruteforce(lambda f: Flag(nw, ()), FlagType(m, ()), seed=0)
    assert result.kind == "strict_se"
    assert result.data.check() is result.data
    assert (result.data.target_ambient, result.data.kappa) == (nw, ())


def test_compose_associative_pointwise(rng):
    for _ in range(10):
        a = random_se(rng)
        mid = a.target_type
        b = absorbing_extension(mid.dims, mid.ambient, 1, max(mid.length, 1))
        mid2 = b.target_type
        c = inserting_extension(mid2.dims, mid2.ambient, 1, 1)
        left = se_compose(se_compose(a, b), c)
        right = se_compose(a, se_compose(b, c))
        for _ in range(5):
            flag = random_flag(a.source_type, rng)
            assert se_eval(left, flag) == se_eval(right, flag)


def test_compose_rejects_type_mismatch():
    a = absorbing_extension((1,), 2, 1, 1)
    with pytest.raises(DomainError):
        se_compose(a, a)


def test_is_linear():
    assert is_linear(PicardPullback(2, ((1, 0), (0, 1))))
    assert is_linear(PicardPullback(2, ((1, 0), (0, 0), (0, 1))))
    assert not is_linear(PicardPullback(2, ((1, 0), (1, 1), (0, 1))))
    assert not is_linear(PicardPullback(1, ((2,),)))
    assert PicardPullback(2, ((1, 0), (0, 0), (0, 1))).target_rank == 3


LEVEL_KEYS = st.one_of(
    st.lists(st.integers(1, 5), min_size=1, max_size=9),
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=9),
)


@given(LEVEL_KEYS)
@settings(max_examples=150, deadline=None)
def test_level_dims_counts_the_level_flag(keys):
    assert level_dims(keys) == level_flag(keys).dims


@given(LEVEL_KEYS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_level_flag_matches_the_per_bound_construction(keys):
    """Ties, tuple keys and repeated values give the members of the
    per-bound construction, row for row."""
    assert level_flag(keys) == reference_level_flag(keys)


@pytest.mark.parametrize(
    "keys, dims",
    [
        ((7,), ()),  # n = 1
        ((3, 3, 3, 3), ()),  # one key value: the empty chain
        ((2, 1, 2, 1, 3), (2, 4)),  # ties out of index order
        (((1, 2), (1, 1), (2, 1), (1, 2)), (1, 3)),  # tuple keys
        ((5, 4, 3, 2, 1), (1, 2, 3, 4)),
    ],
)
def test_level_flag_edge_cases_match_the_per_bound_construction(keys, dims):
    flag = level_flag(keys)
    assert flag == reference_level_flag(keys)
    assert flag.ambient == len(keys) and flag.dims == dims


def test_support_and_constants_of_strict_extension():
    # constants recover the chain on every position mapped to a member
    se = absorbing_extension((1, 2), 3, 2, k0=2)
    constants, support = support_and_constants(
        sample_images(se.evaluate, se.source_type, seed=5)
    )
    assert support == (1, 2)
    assert tuple(constants) == se.z_chain


def test_support_and_constants_identity():
    ft = FlagType(3, (1, 2))
    constants, support = support_and_constants(sample_images(lambda f: f, ft, seed=1))
    assert support == (1, 2)
    assert all(c.dim == 0 for c in constants)


def test_support_with_constant_member():
    # a position carrying eps(V) itself is constant and off the support
    eps = inclusion_matrix(3, 2)
    zero = RatSubspace.zero(3)
    se = StandardExtensionData.from_epsilon(FlagType(2, (1,)), eps, (zero, zero), (1, 2))
    constants, support = support_and_constants(
        sample_images(se.evaluate, se.source_type, seed=2)
    )
    assert support == (1,)
    assert constants[1] == se.image_of_epsilon()


def test_support_rejects_empty():
    with pytest.raises(DomainError):
        support_and_constants(iter(()))


def test_classify_identity():
    result = classify_bruteforce(lambda f: f, FlagType(3, (1, 2)), seed=0)
    assert result.kind == "strict_se"
    assert [z.dim for z in result.data.z_chain] == [0, 0]


def test_classify_absorbing_map():
    se = absorbing_extension((1,), 2, 1, k0=1)  # {V1} -> {V1 + Z}, dim Z = 1
    result = classify_bruteforce(se.evaluate, se.source_type, seed=0)
    assert result.kind == "strict_se"
    assert result.data.kappa == (1,)
    assert tuple(result.data.z_chain) == se.z_chain


def test_classify_duality_composition():
    result = classify_bruteforce(duality, FlagType(3, (1,)), seed=0)
    assert result.kind == "se_via_dual"
    # the returned data must evaluate to the original embedding
    flag = coordinate_flag(FlagType(3, (1,)))
    assert result.data.evaluate(flag) == duality(flag)


def test_classify_rejects_large_targets():
    se = absorbing_extension((1,), 4, 4, k0=1)
    with pytest.raises(ScaleError):
        classify_bruteforce(se.evaluate, se.source_type, seed=0)


def test_classify_recovers_conjugated_extension(rng):
    """A known extension conjugated by a random target change of basis has
    non-coordinate witness data; recovery must still succeed and agree."""
    for _ in range(6):
        se = random_se(rng, max_ambient=3, max_extra=2)
        if se.target_ambient > 5 or se.source_type.ambient < 2:
            continue
        g = random_invertible_ints(se.target_ambient, rng)

        def conjugated(flag, se=se, g=g):
            return se.evaluate(flag).apply(g)

        result = classify_bruteforce(conjugated, se.source_type, seed=31)
        assert result.kind == "strict_se"
        for _ in range(5):
            flag = random_flag(se.source_type, rng)
            assert result.data.evaluate(flag) == conjugated(flag)


def test_classify_repeated_member_usage():
    # one source member appearing in two image positions: kappa = (1, 1, 2)
    def spread(flag: Flag) -> Flag:
        v1, v2 = flag.chain
        pad = lambda s: RatSubspace.span(5, [[*v, 0] for v in s.rows])
        tail = RatSubspace.span(5, [[0, 0, 0, 0, 1]])
        return Flag(5, (pad(v1), pad(v1) + tail, pad(v2) + tail))

    result = classify_bruteforce(spread, FlagType(4, (1, 3)), seed=0)
    assert result.kind == "strict_se"
    assert result.data.kappa == (1, 1, 2)
    assert [z.dim for z in result.data.z_chain] == [0, 1, 1]


def test_classify_not_se():
    # twisting one member by a coordinate-dependent rule breaks the form
    def twisted(flag: Flag) -> Flag:
        v1 = flag.chain[0]
        pad = RatSubspace.span(4, [[v[0], v[1], 0, 0] for v in v1.rows])
        swap = RatSubspace.span(4, [[v[1], v[0], 0, v[0]] for v in v1.rows])
        return Flag(4, (pad, pad + swap))

    result = classify_bruteforce(twisted, FlagType(2, (1,)), seed=0)
    assert result.kind == "not_se"


def test_classification_json():
    result = classify_bruteforce(lambda f: f, FlagType(2, (1,)), seed=0)
    obj = result.to_json_obj()
    assert obj["kind"] == "strict_se"
    restored = StandardExtensionData.from_json_obj(obj["data"])
    assert restored == result.data


SE_DOCUMENT = {
    "source_ambient": 2,
    "source_dims": [1],
    "epsilon": [["1", "0"], ["0", "1"], ["0", "0"]],
    "z_chain": [[["0", "0", "1"]]],
    "kappa": [1],
    "dualized": False,
}


def test_the_se_document_is_read():
    se = StandardExtensionData.from_json_obj(SE_DOCUMENT)
    assert (se.target_ambient, se.kappa, len(se.z_chain)) == (3, (1,), 1)


@NOT_ARRAYS
@pytest.mark.parametrize(
    "path",
    [("source_dims",), ("epsilon",), ("epsilon", 0), ("z_chain",), ("z_chain", 0), ("z_chain", 0, 0), ("kappa",)],
    ids=lambda path: ".".join(map(str, path)),
)
def test_an_se_document_takes_no_string_or_object_for_an_array(path, value):
    message = f"^bad standard-extension document: .* must be an array, not {type(value).__name__}$"
    with pytest.raises(DomainError, match=message):
        StandardExtensionData.from_json_obj(replaced_at(SE_DOCUMENT, path, value))


def test_se_json_roundtrip(rng):
    for _ in range(10):
        se = random_se(rng)
        assert StandardExtensionData.from_json_obj(se.to_json_obj()) == se


def test_se_eval_always_produces_target_type(rng):
    # Flag construction re-validates strict inclusion, so evaluating at all
    # certifies the output; the type must be the declared one.
    for _ in range(30):
        se = random_se(rng)
        if se.source_type.ambient < 2:
            continue
        flag = random_flag(se.source_type, rng)
        image = se_eval(se, flag)
        assert type_of(image) == se.target_type


def reference_fraction_echelon(samples, source_type, kappa, nw, stable_samples=3, counts=None):
    """The incremental Fraction echelon the classifier used to fold its eps
    constraints into, one sample flag at a time, every position and every
    block constrained, and the number of samples read.  `counts`, when
    given, counts the samples that have rows, all of which lie in the span
    of those before."""
    m = source_type.ambient
    width = nw * m
    echelon, piv = [], []

    def insert(row):
        for br, bp in zip(echelon, piv):
            c = row[bp]
            if c:
                row = [x - c * y for x, y in zip(row, br)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            return
        row = [x / row[lead] for x in row]
        pos = bisect.bisect_left(piv, lead)
        echelon.insert(pos, row)
        piv.insert(pos, lead)

    stable = read = 0
    for flag, image in samples:
        read += 1
        before = len(echelon)
        for j, v in enumerate(kappa, start=1):
            if v == 0:
                continue
            for src in flag.member(v).rows:
                for u in image.chain[j - 1].annihilator().rows:
                    insert([u[r] * src[c] for r in range(nw) for c in range(m)])
        if len(echelon) == width:
            return (), read
        if len(echelon) == before:
            if counts is not None and any(kappa):
                counts["spanned_sample"] += 1
            stable += 1
            if stable >= stable_samples:
                break
        else:
            stable = 0
    return nullspace(echelon, width), read


def sampled_systems(g, ft, rng, draws=12):
    """For the embedding of (g, ft), as it is and composed with duality:
    the coordinate flag and `draws` seeded random flags with their images,
    and the target dims, memberwise constants and support of those images."""
    emb = DiagonalEmbedding(g, ft)
    for evaluate in (emb.evaluate, lambda f: duality(emb.evaluate(f))):
        flags = [coordinate_flag(ft)] + [random_flag(ft, rng) for _ in range(draws)]
        samples = [(f, evaluate(f)) for f in flags]
        target_dims = samples[0][1].dims
        constants = [
            functools.reduce(operator.and_, members)
            for members in zip(*(img.chain for _, img in samples))
        ]
        support = tuple(j for j, c in enumerate(constants, 1) if c.dim < target_dims[j - 1])
        yield samples, target_dims, constants, support


def classifier_systems(rng, count):
    """(samples, source type, kappa, target ambient) for `count` seeded
    criterion-05 embeddings, with the samples and index maps the classifier
    collects (strict and via the dual) and random nondecreasing index maps
    as well."""
    for g, ft in rng.sample(criterion_05_instances(), count):
        for samples, target_dims, constants, support in sampled_systems(g, ft, rng):
            kappas = _kappa_candidates(ft, target_dims, constants, support)
            kappas += [
                tuple(sorted(rng.randint(0, ft.length + 1) for _ in target_dims)) for _ in range(2)
            ]
            for kappa in kappas:
                yield samples, ft, kappa, g.d * ft.ambient


def reference_kappa_candidates(source_type, target_dims, constants, support):
    """Reference: fill kappa position by position from a dimension table
    that also maps 0 to 0 and m to k+1, and test the support positions."""
    m = source_type.ambient
    k = source_type.length
    ell = len(target_dims)
    dim_to_index = {0: 0, m: k + 1}
    for i, d in enumerate(source_type.dims, start=1):
        dim_to_index[d] = i
    support_set = set(support)
    if k == 0:
        return [tuple(0 if j <= split else k + 1 for j in range(1, ell + 1)) for split in range(ell + 1)]
    if not support:
        return []
    lo, hi = min(support), max(support)
    if any(j not in support_set for j in range(lo, hi + 1)):
        return []
    kappa = [0] * ell
    for j in range(1, ell + 1):
        if j in support_set:
            idx = dim_to_index.get(target_dims[j - 1] - constants[j - 1].dim)
            if idx is None or not 1 <= idx <= k:
                return []
            kappa[j - 1] = idx
        else:
            kappa[j - 1] = 0 if j < lo else k + 1
    values = [kappa[j - 1] for j in sorted(support)]
    if values != sorted(values) or set(range(1, k + 1)) - set(values):
        return []
    return [tuple(kappa)]


def test_kappa_candidates_match_the_reference_on_every_classifier_system():
    """Every criterion-05 embedding, as it is and composed with duality, on
    constants from 5 samples (often not yet stable, so the support takes
    many shapes)."""
    rng = random.Random(8)
    found = compared = 0
    for g, ft in criterion_05_instances():
        for _, target_dims, constants, support in sampled_systems(g, ft, rng, draws=4):
            got = _kappa_candidates(ft, target_dims, constants, support)
            assert got == reference_kappa_candidates(ft, target_dims, constants, support)
            found += bool(got)
            compared += 1
    assert compared == 2 * 1158 and found > 100


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kappa_candidates_match_the_reference_on_any_support(data):
    m = data.draw(st.integers(1, 7))
    dims = tuple(sorted(data.draw(st.sets(st.integers(1, m - 1), max_size=m - 1)))) if m > 1 else ()
    ell = data.draw(st.integers(0, 6))
    nw = data.draw(st.integers(ell + 2, 10))
    target_dims = tuple(sorted(data.draw(st.sets(st.integers(1, nw - 1), min_size=ell, max_size=ell))))
    constants = tuple(
        RatSubspace.coordinate(nw, data.draw(st.integers(0, q))) for q in target_dims
    )
    support = tuple(sorted(data.draw(st.sets(st.integers(1, ell), max_size=ell)))) if ell else ()
    ft = FlagType(m, dims)
    assert _kappa_candidates(ft, target_dims, constants, support) == reference_kappa_candidates(
        ft, target_dims, constants, support
    )


def test_dual_sums_match_the_intersections_of_dual_images():
    """On every criterion-05 embedding: the running sums of the images give
    the constants and support of the dual images' intersections, after the
    same number of images."""
    for g, ft in criterion_05_instances():
        evaluate = DiagonalEmbedding(g, ft).evaluate
        expected = reference_dual_sampling(evaluate, ft, 1)
        drawn = 0

        def images():
            nonlocal drawn
            rng = random.Random("diagflag-classify-1")
            flag = coordinate_flag(ft)
            while True:
                drawn += 1
                yield evaluate(flag)
                flag = random_flag(ft, rng)

        sums, dims = flagcore._settle(images(), flagcore._sum_into)
        constants = tuple(s.annihilator() for s in reversed(sums))
        dual_dims = tuple(c.ambient - d for c, d in zip(constants, reversed(dims)))
        assert (constants, flagcore._support(constants, dual_dims), drawn) == expected


@pytest.mark.parametrize("merge", [RatSubspace.__and__, flagcore._sum_into], ids=["intersection", "sum"])
def test_no_deficit_decreases_along_the_sampling(merge):
    """The lemma behind the classifier's early exit, on every third
    criterion-05 embedding: each merge moves dim current_j one way only,
    so |dim current_j - q_j| never decreases from one image to the next."""
    grown = 0
    for g, ft in criterion_05_instances()[::3]:
        dims = []

        def recording(current, member):
            merged = merge(current, member)
            dims.append(merged.dim)
            return merged

        _, target_dims = flagcore._settle(sample_images(DiagonalEmbedding(g, ft).evaluate, ft, seed=3), recording)
        ell = len(target_dims)
        steps = [target_dims] + [dims[i : i + ell] for i in range(0, len(dims), ell or 1)]
        deficits = [[abs(d - q) for d, q in zip(step, target_dims)] for step in steps]
        for before, after in zip(deficits, deficits[1:]):
            assert all(a <= b for a, b in zip(before, after))
            grown += before != after
    assert grown > 300


def test_the_deficit_exit_changes_no_classification(criterion_05_classified):
    """Every criterion-05 embedding and its duality . evaluate twin: the
    witness JSON of the reference with no deficit bound, which tries every
    eps candidate, projective repeats included.  The exit ends a
    pass exactly when a settled deficit exceeds d_k (k >= 1), and never a
    pass whose settled constants yield a kappa."""
    counts = {"passes": 0, "exits": 0, "with_kappa": 0, "se_via_dual": 0}
    for item in criterion_05_classified:
        ft = item.source_type
        got = item.result.to_json_obj()
        passes = []
        assert got == reference_classify(item.evaluate, ft, 0, passes).to_json_obj()
        assert len(item.exits) == len(passes)
        for exited, (kappas, deficit) in zip(item.exits, passes):
            assert exited == (ft.length > 0 and deficit > ft.dims[-1])
            assert not (exited and kappas)
            counts["with_kappa"] += bool(kappas)
        counts["passes"] += len(passes)
        counts["exits"] += sum(item.exits)
        counts["se_via_dual"] += got["kind"] == "se_via_dual"
    assert counts == {"passes": 4286, "exits": 3090, "with_kappa": 698, "se_via_dual": 90}


def test_the_classifier_returns_the_witness_it_verified(criterion_05_classified):
    """Every criterion-05 embedding and its duality . evaluate twin: a
    witness is the very object `_verify_witness` accepted last, dualized
    or not.  A point target's witness has nothing to be verified on; the
    strict pass returns it.  And the lemma of `_epsilon_solution_space`,
    by brute force: each witness that reaches `_verify_witness` with the
    images' target type evaluates to the image of every sample the eps
    solve read, the samples the verification skips."""
    counts = {"strict_se": 0, "se_via_dual": 0, "not_se": 0}
    verified = {"witnesses": 0, "skipped": 0, "compared": 0}
    for item in criterion_05_classified:
        for data, _, samples, solved, _, _ in item.verifications:
            if data.target_type == type_of(samples[0][1]):
                assert all(data.evaluate(flag) == image for flag, image in samples[:solved])
                verified["witnesses"] += 1
                verified["skipped"] += solved
                verified["compared"] += len(samples) - solved
        result = item.result
        counts[result.kind] += 1
        accepted = [data for data, *_, ok in item.verifications if ok]
        if result.data is not None and not result.data.kappa:
            assert accepted == [] and result.kind == "strict_se"
        elif result.data is not None:
            assert result.data is accepted[-1]
    assert counts == {"strict_se": 346, "se_via_dual": 90, "not_se": 1880}
    assert verified == {"witnesses": 420, "skipped": 2_610, "compared": 3_506}


def other_member(image, j, rng):
    """`image` with member j replaced by another subspace of its dimension
    between its neighbours, so the result is still a flag."""
    n, want = image.ambient, image.chain[j].dim
    below = image.member(j).int_rows
    above = image.member(j + 2).int_rows
    while True:
        combos = []
        for _ in range(want - len(below)):
            coeffs = [rng.randint(-2, 2) for _ in above]
            combos.append(tuple(sum(c * r[i] for c, r in zip(coeffs, above)) for i in range(n)))
        member = RatSubspace.span_ints(n, below + tuple(combos))
        if member.dim == want and member != image.chain[j]:
            return Flag(n, image.chain[:j] + (member,) + image.chain[j + 1 :])


def test_the_containment_test_answers_as_the_evaluation(criterion_05_classified):
    """Every witness verified on the criterion-05 set and its duality
    twins: on each collected sample and each kept flag, `_containment_test`
    answers what comparing the witness's evaluation with the image
    answers; so it does on images with one member replaced by another
    subspace of its dimension, in another ambient, or of another type."""
    rng = random.Random(40)
    counts = {"witnesses": 0, "dualized": 0, "compared": 0, "tampered": 0}
    for item in criterion_05_classified:
        for data, evaluate, samples, _, seed, _ in item.verifications:
            maps = flagcore._containment_test(data)
            pairs = [*samples, *((flag, evaluate(flag)) for flag in _verify_flags(data.source_type, seed))]
            for flag, image in pairs:
                assert maps(flag, image) == (data.evaluate(flag) == image)
            flag, image = pairs[-1]
            nw, dims = image.ambient, image.dims
            tampered = [other_member(image, j, rng) for j in range(len(dims))]
            tampered.append(coordinate_flag(FlagType(nw + 1, dims)))
            tampered.append(coordinate_flag(FlagType(nw, dims[:-1])))
            for wrong in tampered:
                assert maps(flag, wrong) is False and data.evaluate(flag) != wrong
            counts["witnesses"] += 1
            counts["dualized"] += data.dualized
            counts["compared"] += len(pairs)
            counts["tampered"] += len(tampered)
    assert counts == {"witnesses": 420, "dualized": 90, "compared": 6_116 + 420 * VERIFY_SAMPLES, "tampered": 1_730}


def test_the_dual_solve_matches_the_solve_on_dual_images(criterion_05_classified):
    """Every eps solve of both passes on the criterion-05 set and its
    duality twins: the solutions and the samples read are those of the
    solve on the dual images with their canonical annihilator rows, which
    the dual pass no longer forms."""
    counts = {False: 0, True: 0}
    for item in criterion_05_classified:
        for samples, ft, kappa, nw, dualized, got in item.solves:
            assert got == reference_epsilon_solution_space(samples, ft, kappa, nw, dualized)
            counts[dualized] += 1
    assert counts == {False: 483, True: 215}


def unit_inclusion(n, m, c):
    """The integer rows of eps, in Q^n from Q^m, onto block c."""
    return tuple(tuple(int(r == c * m + i) for i in range(m)) for r in range(n))


def test_the_graph_route_gives_the_recorded_classification(criterion_05_classified):
    """Every criterion-05 embedding (not its duality twin): the graph
    route's verdict is the brute force's recorded one, and so is its
    classification JSON, byte for byte, but on the point sources with
    m >= 3 (`agrees_with_brute_force`, on the recorded samples).  As
    `diagembed.classify` proves, each strict witness is the unit inclusion
    of one colour block, over denominator 1, with that colour's
    closed-index column as kappa."""
    kinds = {"strict_se": 0, "not_se": 0}
    changed = []
    for item in criterion_05_classified[::2]:
        emb = item.evaluate.__self__
        got = diagembed.classify(emb)
        samples = [pair for _, _, recorded, *_ in item.verifications for pair in recorded]
        assert agrees_with_brute_force(emb, got, item.result, samples)
        kinds[got.kind] += 1
        if canonical_json(got.to_json_obj()) != canonical_json(item.result.to_json_obj()):
            changed.append((emb.source_type, emb.graph.p))
        if got.data is not None:
            rows = got.data.int_epsilon
            c = next(r for r, row in enumerate(rows) if any(row)) // emb.m
            assert got.data.denominator == 1 and rows == unit_inclusion(emb.n, emb.m, c)
            assert got.data.kappa == tuple(row[c] for row in emb.graph.closed_indices)
    assert kinds == {"strict_se": 218, "not_se": 940}
    assert changed == [(FlagType(3, ()), 2)] * 2


def test_each_point_source_gets_the_proved_witness():
    """Every criterion-05 point source (q = 1): the witness is the unit
    inclusion of the least colour at r_1, kappa all ones, and it maps the
    source's one flag as the embedding does (`_containment_test`).  The
    brute force classifies the 7 with m >= 3 `strict_se` at seeds 0-49 as
    well, its witness drawn from the seeded eps stream.  The sample and
    verification memos are cleared before and after, so the streams of
    fifty seeds leave no trace."""
    points = [DiagonalEmbedding(g, ft) for g, ft in criterion_05_instances() if ft.length == 0]
    assert len(points) == 24
    for emb in points:
        data = diagembed.classify(emb).data
        c = min(c for (_, j, c) in emb.graph.edges if j == 1) - 1
        assert data.int_epsilon == unit_inclusion(emb.n, emb.m, c) and data.kappa == (1,) * (emb.graph.p - 1)
        flag = coordinate_flag(emb.source_type)
        assert flagcore._containment_test(data)(flag, emb.evaluate(flag))
    _sample_stream.cache_clear()
    _verify_flags.cache_clear()
    try:
        kinds = collections.Counter(
            flagcore.classify_bruteforce(emb.evaluate, emb.source_type, seed).kind
            for emb in points
            if emb.m >= 3
            for seed in range(50)
        )
    finally:
        _sample_stream.cache_clear()
        _verify_flags.cache_clear()
    assert kinds == {"strict_se": 350}


def test_the_graph_route_agrees_with_the_brute_force_on_a_sample_of_dm_7_and_8(monkeypatch):
    """A seeded sample of 1,000 of the 50,594 embeddings with d*m in {7, 8}
    (1,292 of them strict), past the brute force's cap, which is raised to
    8 here: the graph route agrees with `classify_bruteforce` at seed 0
    (`agrees_with_brute_force`)."""
    monkeypatch.setattr(flagcore, "CLASSIFY_SCALE_LIMIT", 8)
    instances = criterion_05_instances(products=(7, 8))
    assert len(instances) == 50_594
    kinds = collections.Counter()
    for g, ft in random.Random(47).sample(instances, 1_000):
        emb = DiagonalEmbedding(g, ft)
        got = diagembed.classify(emb)
        assert agrees_with_brute_force(emb, got, flagcore.classify_bruteforce(emb.evaluate, ft, 0))
        kinds[got.kind] += 1
    assert kinds == {"strict_se": 26, "not_se": 974}


def mapped_samples(data, count=6):
    """The coordinate flag and the first `count` - 1 seed-0 sample flags of
    the data's source type, each with its image under the data."""
    ft = data.source_type
    flags = [coordinate_flag(ft), *itertools.islice(_sample_flags(ft, 0), count - 1)]
    return [(flag, data.evaluate(flag)) for flag in flags]


@pytest.mark.parametrize(
    "witness",
    [
        replace(absorbing_extension((1, 2), 3, 2, k0=1), dualized=True),
        identity_extension(FlagType(3, (1, 2))),
        inserting_extension((1, 2), 3, 2, k0=2),
    ],
    ids=["other_dims", "other_ambient", "other_length"],
)
def test_a_witness_of_another_target_type_is_refused_unevaluated(monkeypatch, witness):
    """Against the images of an absorbing extension, of type (5, (3, 4)):
    refused before the embedding or the witness evaluates any flag, whether
    the solve read no sample or all of them, while the extension itself,
    trusting no sample, is accepted after the embedding evaluates every
    kept flag; the witness, tested by containment, evaluates none."""
    embedding = absorbing_extension((1, 2), 3, 2, k0=1)
    samples = mapped_samples(embedding)
    calls = {"embedding": 0, "witness": 0}
    real = StandardExtensionData.evaluate

    def evaluate(flag):
        calls["embedding"] += 1
        return real(embedding, flag)

    def counted(self, flag):
        calls["witness"] += 1
        return real(self, flag)

    monkeypatch.setattr(StandardExtensionData, "evaluate", counted)
    assert witness.target_type != type_of(samples[0][1])
    for solved in (0, len(samples)):
        assert _verify_witness(witness, evaluate, samples, solved, 0) is False
    assert calls == {"embedding": 0, "witness": 0}
    assert _verify_witness(embedding, evaluate, samples, 0, 0) is True
    assert calls == {"embedding": VERIFY_SAMPLES, "witness": 0}


def test_the_verification_compares_what_the_solve_did_not_read():
    """A tampered collected sample after those the solve read, or a
    tampered image of a kept verification flag, is refused; a tampered
    sample the solve read is trusted, by the lemma."""
    data = absorbing_extension((1, 2), 3, 2, k0=1)
    samples = mapped_samples(data)
    wrong = samples[1][1]
    assert wrong != samples[-1][1]
    tampered = samples[:-1] + [(samples[-1][0], wrong)]
    assert _verify_witness(data, data.evaluate, tampered, len(samples) - 1, 0) is False
    assert _verify_witness(data, data.evaluate, tampered, len(samples), 0) is True
    last = _verify_flags(data.source_type, 0)[-1]

    def evaluate(flag):
        return wrong if flag == last else data.evaluate(flag)

    assert _verify_witness(data, evaluate, samples, len(samples), 0) is False


def test_epsilon_solution_space_matches_the_fraction_echelon():
    """On a seeded sample of the criterion-05 embeddings (see
    `classifier_systems`).  The systems include a repeated nonzero kappa
    value and a k+1 suffix, whose later positions and repeated blocks the
    solve skips, and samples whose rows all lie in the span before them,
    which it drops before eliminating."""
    compared = 0
    counts = {"repeated_value": 0, "suffix": 0, "spanned_sample": 0}
    for samples, ft, kappa, nw in classifier_systems(random.Random(5), 30):
        expected = reference_fraction_echelon(samples, ft, kappa, nw, counts=counts)
        solutions, read = _epsilon_solution_space(samples, ft, kappa, nw, False)
        assert (solutions.rows, read) == expected
        compared += 1
        counts["repeated_value"] += any(v == w != 0 for v, w in zip(kappa, kappa[1:]))
        counts["suffix"] += ft.length + 1 in kappa
    assert compared >= 120
    assert min(counts.values()) > 10


def projective_key(eps):
    """eps flattened and divided by its first nonzero entry: equal for two
    matrices exactly when one is a nonzero multiple of the other."""
    flat = [x for row in eps for x in row]
    lead = next(x for x in flat if x)
    return tuple(x / lead for x in flat)


def fraction_candidates(solutions, nw, m, seed):
    return [
        tuple(tuple(Fraction(x, den) for x in row) for row in rows)
        for rows, den in _epsilon_candidates(solutions, nw, m, seed)
    ]


def test_epsilon_candidates_match_the_fraction_stream():
    """The reference stream with every candidate dropped whose class an
    earlier one has."""
    compared = dropped = 0
    for samples, ft, kappa, nw in classifier_systems(random.Random(6), 15):
        solutions, _ = _epsilon_solution_space(samples, ft, kappa, nw, False)
        for seed in (0, 1):
            seen = set()
            first = []
            for eps in reference_epsilon_candidates(solutions.rows, nw, ft.ambient, seed):
                key = projective_key(eps)
                if key in seen:
                    dropped += 1
                else:
                    seen.add(key)
                    first.append(eps)
            assert fraction_candidates(solutions, nw, ft.ambient, seed) == first
            compared += bool(first)
    assert (compared, dropped) == (94, 1117)


def test_epsilon_candidates_try_each_class_once():
    """On the criterion-05 systems and on random solution spaces of
    dimension 1 to 4: no candidate is a multiple of an earlier one, and a
    one-dimensional space yields its basis vector alone."""
    one_dimensional = 0
    spaces = [
        (_epsilon_solution_space(samples, ft, kappa, nw, False)[0], nw, ft.ambient)
        for samples, ft, kappa, nw in classifier_systems(random.Random(7), 15)
    ]
    rng = random.Random(8)
    for dim in (1, 2, 3, 4):
        for _ in range(10):
            vectors = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)] for _ in range(dim)]
            spaces.append((RatSubspace.span(6, vectors), 3, 2))
    for solutions, nw, m in spaces:
        if not solutions.dim:
            continue
        for seed in (0, 1):
            got = fraction_candidates(solutions, nw, m, seed)
            keys = [projective_key(eps) for eps in got]
            assert len(set(keys)) == len(keys)
            if solutions.dim == 1:
                row = solutions.rows[0]
                assert got == [tuple(tuple(row[r * m : (r + 1) * m]) for r in range(nw))]
                one_dimensional += 1
    assert one_dimensional == 52


# A fixed one-in-25 subset of the criterion-05 set, classified as it is and
# composed with duality; the digest of the witness JSON pins the search.
WITNESS_DIGEST = "a6acd835499ac32f4091961100552ed7f170e538b2366ecd581eb3edc223d81c"


def test_witness_json_is_pinned():
    witnesses = []
    for g, ft in criterion_05_instances()[::25]:
        emb = DiagonalEmbedding(g, ft)
        for evaluate in (emb.evaluate, lambda f: duality(emb.evaluate(f))):
            witnesses.append(classify_bruteforce(evaluate, ft, seed=0).to_json_obj())
    kinds = [w["kind"] for w in witnesses]
    assert (kinds.count("strict_se"), kinds.count("se_via_dual"), len(kinds)) == (10, 2, 94)
    text = json.dumps(witnesses, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGEST


# -- the classifier's sampling memo -------------------------------------------

# Every source type a classification accepts: ambient at most 6, one type
# per subset of the possible member dimensions.
SOURCE_TYPES = [
    FlagType(m, dims)
    for m in range(1, 7)
    for q in range(m)
    for dims in itertools.combinations(range(1, m), q)
]


def test_every_source_type_and_both_seeds_fit_the_memo():
    assert len(SOURCE_TYPES) == 63 and _SAMPLE_STREAMS == 2 * len(SOURCE_TYPES)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_streams_match_the_per_call_draws(seed):
    """The first 40 memoized flags of every source type; with three seeds
    the memo is over-full, so streams drop and are drawn again."""
    for ft in SOURCE_TYPES:
        got = list(itertools.islice(_sample_flags(ft, seed), 40))
        assert got == list(itertools.islice(reference_sample_stream(ft, seed), 40))


def test_equal_seeds_of_other_types_keep_their_own_streams():
    """1, True and 1.0 are equal keys, but their seed strings differ."""
    ft = FlagType(3, (1,))
    for seed in (1, True, 1.0):
        got = list(itertools.islice(_sample_flags(ft, seed), 5))
        assert got == list(itertools.islice(reference_sample_stream(ft, seed), 5))


@pytest.mark.parametrize("seed", [0, 1, True])
def test_verification_flags_match_the_per_call_draws(seed):
    """Every source type of ambient 2..6; 1 and True are equal keys, but
    their seed strings differ, so the keys are typed."""
    for ft in SOURCE_TYPES:
        if ft.ambient > 1:
            rng = random.Random(f"diagflag-verify-{seed}")
            assert _verify_flags(ft, seed) == tuple(random_flag(ft, rng) for _ in range(VERIFY_SAMPLES))


def test_interleaved_readers_of_one_stream_each_see_the_per_call_draws():
    ft, seed = FlagType(4, (1, 3)), 1_001
    _sample_stream.cache_clear()
    first, second = _sample_flags(ft, seed), _sample_flags(ft, seed)
    seen = {first: [], second: []}
    for reader in [first, first, second, first, second, second, second, first] * 3:
        seen[reader].append(next(reader))
    expected = list(itertools.islice(reference_sample_stream(ft, seed), 12))
    assert seen[first] == seen[second] == expected
    assert len(_sample_stream(ft, seed)[0]) == 12


def test_a_draw_that_raises_leaves_the_stream_unchanged(monkeypatch):
    """The failing draw consumes random entries before it raises; the
    generator is restored, so the next reader still sees the per-call
    draws."""
    ft, seed = FlagType(5, (2, 3)), 1_002
    real = flagcore.random_entries
    fail = False

    def random_entries(count, rng):
        nonlocal fail
        entries = real(count, rng)
        if fail:
            fail = False
            raise RuntimeError("draw interrupted")
        return entries

    monkeypatch.setattr(flagcore, "random_entries", random_entries)
    reader = _sample_flags(ft, seed)
    before = [next(reader) for _ in range(3)]
    fail = True
    with pytest.raises(RuntimeError, match="draw interrupted"):
        next(reader)
    assert len(_sample_stream(ft, seed)[0]) == 3
    got = list(itertools.islice(_sample_flags(ft, seed), 6))
    assert got[:3] == before
    assert got == list(itertools.islice(reference_sample_stream(ft, seed), 6))


def test_threads_reading_one_stream_each_see_the_per_call_draws():
    """Six threads on two vCPUs, switching every microsecond, read one
    fresh stream; a draw lost or made twice would shift some reader's
    sequence."""
    ft, seed = FlagType(6, (1, 2, 4)), 1_003
    expected = list(itertools.islice(reference_sample_stream(ft, seed), 30))
    _sample_stream.cache_clear()
    seen = [None] * 6

    def read(i):
        seen[i] = list(itertools.islice(_sample_flags(ft, seed), 30))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [expected] * 6
    assert len(_sample_stream(ft, seed)[0]) == 30


def test_classifying_twice_draws_no_new_sample_flags(monkeypatch):
    """A strict extension (one pass, with verification draws) and a mixed
    graph (both passes); the second classification reads every sample
    flag and every verification flag from the memos."""
    real = flagcore.random_flag
    streams = []
    drawn = []

    def random_flag(ft, rng):
        drawn.append(any(rng is r for _, r in streams))
        return real(ft, rng)

    monkeypatch.setattr(flagcore, "random_flag", random_flag)
    extension = absorbing_extension((1, 2), 3, 2, k0=2)
    mixed = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    cases = ((extension.evaluate, extension.source_type, "strict_se"), (mixed.evaluate, MIXED_SOURCE, "not_se"))
    for evaluate, source, kind in cases:
        _sample_stream.cache_clear()
        _verify_flags.cache_clear()
        streams[:] = [_sample_stream(source, seed) for seed in (0, 1)]
        counts = []
        results = []
        for _ in range(2):
            drawn.clear()
            results.append(classify_bruteforce(evaluate, source, seed=0).to_json_obj())
            counts.append((drawn.count(True), drawn.count(False)))
        assert results[0] == results[1] and results[0]["kind"] == kind
        (cold, verify_cold), (warm, verify_warm) = counts
        assert cold == sum(len(flags) for flags, _ in streams) and warm == 0
        assert verify_warm == 0
        assert verify_cold == VERIFY_SAMPLES * (kind == "strict_se")
        assert (kind == "strict_se") == (not streams[1][0])


@pytest.fixture(scope="module")
def criterion_05_cold():
    """The criterion-05 set classified in order from empty memos: the
    witness JSON of each, the sample memo's size and stream lengths after,
    the verification memo's statistics, the number of evaluate calls and
    the number of eps candidates yielded."""
    _sample_stream.cache_clear()
    _verify_flags.cache_clear()
    calls = 0
    candidates = 0

    def counted(evaluate):
        def counting(flag):
            nonlocal calls
            calls += 1
            return evaluate(flag)

        return counting

    def counted_candidates(*args):
        nonlocal candidates
        for candidate in _epsilon_candidates(*args):
            candidates += 1
            yield candidate

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flagcore, "_epsilon_candidates", counted_candidates)
        results = [
            classify_bruteforce(counted(DiagonalEmbedding(g, ft).evaluate), ft, seed=0).to_json_obj()
            for g, ft in criterion_05_instances()
        ]
    streams = _sample_stream.cache_info().currsize
    verify = _verify_flags.cache_info()
    # Reading the lengths through the memo adds an empty stream for each key
    # not yet used, but drops none: the memo holds only (source type, seed 0
    # or 1) keys, and there are exactly _SAMPLE_STREAMS of them.
    lengths = {(ft, seed): len(_sample_stream(ft, seed)[0]) for ft in SOURCE_TYPES for seed in (0, 1)}
    assert _sample_stream.cache_info().currsize == _SAMPLE_STREAMS
    return results, streams, lengths, verify, calls, candidates


def test_classifications_do_not_depend_on_the_memo(criterion_05_cold):
    """The set again, in reverse order and from the memo the first run
    left: the same witnesses, and no flag drawn."""
    results, _, lengths, _, _, _ = criterion_05_cold
    warm = [
        classify_bruteforce(DiagonalEmbedding(g, ft).evaluate, ft, seed=0).to_json_obj()
        for g, ft in reversed(criterion_05_instances())
    ]
    assert warm[::-1] == results
    assert {key: len(_sample_stream(*key)[0]) for key in lengths} == lengths


def test_the_memo_stays_within_its_bounds_on_the_criterion_05_set(criterion_05_cold):
    """Counted, not timed: the streams held, the flags each holds and
    their total, pinned.  Every source type of ambient 2..6 draws at seed
    0; only four of ambient at most 3 reach the dual pass at seed 1.  The
    verification memo keeps one set of `VERIFY_SAMPLES` flags per (source
    type, seed) that verifies a witness, read again on every later one."""
    _, streams, lengths, verify, _, _ = criterion_05_cold
    used = {key: n for key, n in lengths.items() if n}
    assert streams <= _SAMPLE_STREAMS
    assert max(used.values()) < SAMPLE_LIMIT
    assert (streams, len(used), sum(used.values()), max(used.values())) == (66, 66, 953, 17)
    assert sorted(ft.ambient for ft, seed in used if seed == 1) == [2, 3, 3, 3]
    assert (verify.currsize, verify.hits, verify.maxsize) == (59, 151, _SAMPLE_STREAMS)


def test_the_classifier_evaluates_a_pinned_number_of_times(criterion_05_cold):
    """Counted, not timed: a pass ends once a deficit exceeds d_k, so each
    pass over the mixed graph ends at its second sample, after the
    coordinate image both share: 5 evaluations, where sampling every
    window took 29.  The criterion-05 set takes 14,765, where it took
    33,146, and tries 2,816 eps candidates, where trying each projective
    class every time it came took 7,310."""
    calls = 0
    mixed = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE).evaluate

    def evaluate(flag):
        nonlocal calls
        calls += 1
        return mixed(flag)

    assert classify_bruteforce(evaluate, MIXED_SOURCE, seed=0).kind == "not_se"
    assert calls == 5
    assert criterion_05_cold[4:] == (14_765, 2_816)
