"""Flags the library builds nested by construction skip the containment
test of the public constructor (`Flag._from_nested`).  Each test rebuilds
such flags through `Flag(ambient, chain)`, which runs every check, and
compares."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_flagcore import random_se

from diagflag.diagembed import DiagonalEmbedding
from diagflag.egraph import enumerate_valid_graphs
from diagflag.errors import DomainError
from diagflag.flagcore import FlagType, coordinate_flag, level_flag, random_flag
from diagflag.ratlin import Flag, RatSubspace, block_diagonal, random_invertible


def assert_valid(flag: Flag) -> None:
    assert Flag(flag.ambient, flag.chain) == flag


def flag_types(max_ambient: int = 6):
    for n in range(1, max_ambient + 1):
        for k in range(n):
            for dims in itertools.combinations(range(1, n), k):
                yield FlagType(n, dims)


def test_coordinate_and_level_flags_pass_the_validating_constructor():
    for ft in flag_types():
        flag = coordinate_flag(ft)
        assert_valid(flag)
        assert flag.dims == ft.dims
    for n in range(1, 6):
        for keys in itertools.product(range(1, 4), repeat=n):
            assert_valid(level_flag(keys))


def test_random_flag_is_the_image_of_the_coordinate_flag():
    """Same rng draws and the same flag as applying `random_invertible`."""
    for ft in flag_types():
        direct, via_apply = random.Random(7), random.Random(7)
        for _ in range(3):
            flag = random_flag(ft, direct)
            assert flag == coordinate_flag(ft).apply(random_invertible(ft.ambient, via_apply))
            assert_valid(flag)
        assert direct.getstate() == via_apply.getstate()


matrices = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
    )
)


@given(matrices, st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_apply_and_dual_match_the_validating_constructor(case, seed):
    """Any square matrix, singular ones included: `apply` raises exactly when
    the validating constructor rejects the images."""
    n, m = case
    rng = random.Random(seed)
    k = rng.randint(0, n - 1)
    flag = random_flag(FlagType(n, tuple(sorted(rng.sample(range(1, n), k)))), rng)
    images = tuple(s.apply(m) for s in flag.chain)
    try:
        expected = Flag(n, images)
    except DomainError:
        with pytest.raises(DomainError):
            flag.apply(m)
        return
    assert flag.apply(m) == expected
    assert_valid(flag.dual())
    assert_valid(expected.dual())


def test_singular_apply_still_raises():
    line = RatSubspace.span(3, [[1, 0, 0]])
    plane = RatSubspace.span(3, [[1, 0, 0], [0, 1, 0]])
    flag = Flag(3, (line, plane))
    collapse = ((1, 0, 0), (0, 0, 0), (0, 0, 1))  # plane -> line
    with pytest.raises(DomainError, match="strictly increasing"):
        flag.apply(collapse)
    kill = ((0, 0, 0), (0, 0, 0), (0, 0, 1))  # line -> 0
    with pytest.raises(DomainError, match="proper and nonzero"):
        flag.apply(kill)


def test_public_constructor_rejects_a_non_nested_chain():
    axis = RatSubspace.span(3, [[0, 0, 1]])
    plane = RatSubspace.span(3, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DomainError, match="strictly increasing"):
        Flag(3, (axis, plane))
    doc = {"ambient": 3, "chain": [axis.to_json_obj(), plane.to_json_obj()]}
    with pytest.raises(DomainError, match="strictly increasing"):
        Flag.from_json_obj(doc)


def test_evaluate_dual_and_apply_on_every_small_graph():
    """Every valid graph with d*m <= 6, on every source type in Q^m with
    q <= m: the image of the coordinate flag and of a random flag, their
    duals and their images under diag(g, ..., g)."""
    rng = random.Random(8)
    cases = 0
    for d in range(1, 7):
        for m in range(2, 7):
            if d * m > 6:
                continue
            for q in range(1, m + 1):
                for p in range(1, q * d + 1):
                    for g in enumerate_valid_graphs(q, p, d):
                        for dims in itertools.combinations(range(1, m), q - 1):
                            emb = DiagonalEmbedding(g, FlagType(m, dims))
                            big = block_diagonal(random_invertible(m, rng), d)
                            for flag in (
                                coordinate_flag(emb.source_type),
                                random_flag(emb.source_type, rng),
                            ):
                                image = emb.evaluate(flag)
                                for out in (image, image.dual(), image.apply(big)):
                                    assert_valid(out)
                                cases += 1
    assert cases > 2000


@given(st.integers(0, 2**32))
@settings(max_examples=150, deadline=None)
def test_standard_extension_images_pass_the_validating_constructor(seed):
    rng = random.Random(seed)
    se = random_se(rng)
    flag = random_flag(se.source_type, rng)
    strict = se.strict_eval(flag)
    assert_valid(strict)
    assert strict.dims == se.strict_target_type.dims
    assert_valid(se.evaluate(flag))
