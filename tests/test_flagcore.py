import bisect
import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest

from diagflag.errors import DomainError, ScaleError
from diagflag.flagcore import (
    FlagType,
    PicardPullback,
    StandardExtensionData,
    classify_bruteforce,
    coordinate_flag,
    dual_type,
    duality,
    flag_type_of,
    identity_extension,
    is_linear,
    random_flag,
    sample_images,
    se_compose,
    se_eval,
    support_and_constants,
    _epsilon_solution_space,
    _kappa_candidates,
)
from diagflag.diagembed import DiagonalEmbedding
from diagflag.egraph import enumerate_valid_graphs
from diagflag.ratlin import Flag, RatSubspace, nullspace


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
    return StandardExtensionData(
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
    return StandardExtensionData(
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
            return StandardExtensionData(
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
    assert flag_type_of(flag) == ft
    for _ in range(20):
        assert flag_type_of(random_flag(ft, rng)) == ft


def test_dual_type_and_duality(rng):
    ft = FlagType(5, (1, 4))
    assert dual_type(ft) == FlagType(5, (1, 4))
    assert dual_type(FlagType(5, (2,))) == FlagType(5, (3,))
    flag = random_flag(ft, rng)
    assert duality(duality(flag)) == flag
    assert flag_type_of(duality(flag)) == dual_type(ft)


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
    with pytest.raises(DomainError):
        se_eval(se, coordinate_flag(FlagType(3, (1,))))


def test_data_invariants_rejected():
    eps = inclusion_matrix(3, 2)
    z = RatSubspace.span(3, [[0, 0, 1]])
    zero = RatSubspace.zero(3)
    # kappa not attaining a member index
    with pytest.raises(DomainError):
        StandardExtensionData(FlagType(2, (1,)), eps, (z,), (2,))
    # decreasing kappa
    with pytest.raises(DomainError):
        StandardExtensionData(FlagType(2, (1,)), eps, (z, zero), (1, 0))
    # duplicate (kappa, Z) pair
    with pytest.raises(DomainError):
        StandardExtensionData(FlagType(2, (1,)), eps, (z, z), (1, 1))
    # zero member
    with pytest.raises(DomainError):
        StandardExtensionData(FlagType(2, (1,)), eps, (zero, zero), (0, 1))
    # full-space member: eps(V) + Z covers everything
    with pytest.raises(DomainError):
        StandardExtensionData(FlagType(2, (1,)), eps, (zero, z), (1, 2))
    # chain meets the image
    bad_z = RatSubspace.span(3, [[1, 0, 0]])
    with pytest.raises(DomainError):
        StandardExtensionData(FlagType(2, (1,)), eps, (bad_z,), (1,))
    # non-injective epsilon
    bad_eps = ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)))
    with pytest.raises(DomainError):
        StandardExtensionData(FlagType(2, (1,)), bad_eps, (z,), (1,))


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
    from dataclasses import replace

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
    from dataclasses import replace

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
    assert is_linear(PicardPullback(2, 2, ((1, 0), (0, 1))))
    assert is_linear(PicardPullback(2, 3, ((1, 0), (0, 0), (0, 1))))
    assert not is_linear(PicardPullback(2, 3, ((1, 0), (1, 1), (0, 1))))
    assert not is_linear(PicardPullback(1, 1, ((2,),)))
    with pytest.raises(DomainError):
        PicardPullback(2, 1, ((1, -1),))


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
    se = StandardExtensionData(FlagType(2, (1,)), eps, (zero, zero), (1, 2))
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
    from diagflag.ratlin import random_invertible

    for _ in range(6):
        se = random_se(rng, max_ambient=3, max_extra=2)
        if se.target_ambient > 5 or se.source_type.ambient < 2:
            continue
        g = random_invertible(se.target_ambient, rng)

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
        assert flag_type_of(image) == se.target_type


def reference_epsilon_solution_space(samples, source_type, kappa, nw, stable_samples=3):
    """The incremental Fraction echelon the classifier used to fold its eps
    constraints into, one sample flag at a time."""
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

    stable = 0
    for flag, image in samples:
        before = len(echelon)
        for j, v in enumerate(kappa, start=1):
            if v == 0:
                continue
            for src in flag.member(v).rows:
                for u in image.chain[j - 1].annihilator().rows:
                    insert([u[r] * src[c] for r in range(nw) for c in range(m)])
        if len(echelon) == width:
            return ()
        if len(echelon) == before:
            stable += 1
            if stable >= stable_samples:
                break
        else:
            stable = 0
    return nullspace(echelon, width)


def test_epsilon_solution_space_matches_the_fraction_echelon():
    """On a seeded sample of the criterion-05 embeddings, with the samples
    and index maps the classifier collects (strict and via the dual), and
    on random nondecreasing index maps as well."""
    rng = random.Random(5)
    instances = [
        (g, FlagType(m, dims))
        for d in range(1, 4)
        for m in range(2, 7)
        if d * m <= 6
        for q in range(1, m + 1)
        for p in range(1, q * d + 1)
        for g in enumerate_valid_graphs(q, p, d)
        for dims in itertools.combinations(range(1, m), q - 1)
    ]
    compared = 0
    for g, ft in rng.sample(instances, 30):
        emb = DiagonalEmbedding(g, ft)
        for evaluate in (emb.evaluate, lambda f: duality(emb.evaluate(f))):
            flags = [coordinate_flag(ft)] + [random_flag(ft, rng) for _ in range(12)]
            samples = [(f, evaluate(f)) for f in flags]
            target_dims = samples[0][1].dims
            constants = [
                functools.reduce(operator.and_, members)
                for members in zip(*(img.chain for _, img in samples))
            ]
            support = tuple(j for j, c in enumerate(constants, 1) if c.dim < target_dims[j - 1])
            kappas = _kappa_candidates(ft, target_dims, constants, support)
            kappas += [
                tuple(sorted(rng.randint(0, ft.length + 1) for _ in target_dims)) for _ in range(2)
            ]
            for kappa in kappas:
                expected = reference_epsilon_solution_space(samples, ft, kappa, emb.n)
                assert _epsilon_solution_space(samples, ft, kappa, emb.n) == expected
                compared += 1
    assert compared >= 120
