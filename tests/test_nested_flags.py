"""Flags the library builds nested by construction skip the containment
test of the public constructor (`Flag._from_nested`).  Each test rebuilds
such flags through `Flag(ambient, chain)`, which runs every check, and
compares."""

import itertools
import random
from fractions import Fraction

import pytest
from conftest import reference_flag_apply, reference_image
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_flagcore import random_se
from test_ratlin import Exact

from diagflag.diagembed import DiagonalEmbedding
from diagflag.egraph import enumerate_valid_graphs
from diagflag.errors import DomainError
from diagflag.flagcore import FlagType, coordinate_flag, level_flag, random_flag
from diagflag.ratlin import Flag, RatSubspace, block_diagonal, random_invertible_ints


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
    """Same rng draws and the same flag as applying `random_invertible_ints`."""
    for ft in flag_types():
        direct, via_apply = random.Random(7), random.Random(7)
        for _ in range(3):
            flag = random_flag(ft, direct)
            assert flag == coordinate_flag(ft).apply(random_invertible_ints(ft.ambient, via_apply))
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
    # Square, rectangular and block-diagonal maps raise the validating
    # constructor's message, word for word.
    flag = Flag(4, (RatSubspace.span(4, [[1, 2, 0, 0]]), RatSubspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])))
    for m, message in [
        (((1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)), "flag chain must be strictly increasing"),
        (((2, -1, 0, 0), (0, 0, 1, 1)), "flag members must be proper and nonzero"),
        (((1, 0, 0, 0), (0, 1, 0, 0)), "flag members must be proper and nonzero"),
        (block_diagonal(((1, 0), (1, 0)), 2), "flag chain must be strictly increasing"),
    ]:
        for apply in (flag.apply, lambda m: reference_flag_apply(flag, m)):
            with pytest.raises(DomainError) as raised:
                apply(m)
            assert str(raised.value) == message


@st.composite
def nested_flags(draw, max_ambient=8, max_members=4):
    """A flag in Q^n, n <= `max_ambient`, with up to `max_members` members,
    spanned by prefixes of the rows e_pi(i) + sum over j > i of c_ij e_pi(j):
    a triangular basis in a drawn coordinate order, so the members' pivots
    come in any pattern, sparse or dense."""
    n = draw(st.integers(1, max_ambient))
    count = draw(st.sampled_from(range(min(max_members, n - 1), -1, -1)))
    dims = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), min_size=count, max_size=count)))
    order = draw(st.permutations(range(n)))
    rows = []
    for i in range(n):
        row = [0] * n
        row[order[i]] = 1
        for j in range(i + 1, n):
            row[order[j]] = draw(st.sampled_from((0, 0, 1, -2, 3)))
        rows.append(row)
    return Flag(n, tuple(RatSubspace.span(n, rows[:d]) for d in dims))


def int_matrices(rows, cols, entries=st.integers(-2, 2)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def spellings(value: Fraction) -> list:
    """The ways a matrix entry may give an exact rational: the `Fraction`,
    a `Fraction` subclass, its string, and an int when it is whole."""
    forms = [value, Exact(value), str(value)]
    return forms + [int(value)] if value.denominator == 1 else forms


@st.composite
def flags_with_matrices(draw):
    """A nested flag and a matrix with one column per coordinate: square,
    rectangular (another number of rows), diag(g, ..., g), rational, or
    rational with each entry in one of its `spellings`.  Small integer
    entries make singular matrices common."""
    flag = draw(nested_flags())
    n = flag.ambient
    kind = draw(st.sampled_from(("square", "rectangular", "block", "rational", "spelled")))
    if kind == "square":
        return flag, draw(int_matrices(n, n))
    if kind == "rectangular":
        return flag, draw(st.integers(1, 9).filter(lambda r: r != n).flatmap(lambda r: int_matrices(r, n)))
    if kind == "block":
        d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        return flag, block_diagonal(draw(int_matrices(n // d, n // d)), d)
    fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    if kind == "spelled":
        fractions = fractions.flatmap(lambda value: st.sampled_from(spellings(value)))
    return flag, draw(st.integers(1, 9).flatmap(lambda r: int_matrices(r, n, fractions)))


@given(flags_with_matrices())
@example(
    (
        Flag(3, (RatSubspace.span(3, [[1, 2, 5]]), RatSubspace.span(3, [[1, 0, -1], [0, 1, 3]]))),
        [[0, Fraction(0), "0"], ["1/2", Exact(2, 3), 0], [Fraction(5, 6), "-3", "1/4"], [1, 0, Exact(-1, 1)]],
    )
)
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
def test_flag_apply_matches_the_dense_reference(case):
    """`Flag.apply` and `RatSubspace.apply` against each member mapped and
    eliminated afresh in `Fraction`s, whatever mix of int 0, `Fraction(0)`,
    strings, `Fraction` subclasses and denominators the matrix holds; a
    matrix that collapses the chain raises the reference's `DomainError`,
    word for word."""
    flag, m = case
    for sub in (RatSubspace.zero(flag.ambient), *flag.chain, RatSubspace.full(flag.ambient)):
        assert sub.apply(m) == reference_image(sub, m)
    try:
        expected = reference_flag_apply(flag, m)
    except DomainError as exc:
        with pytest.raises(DomainError) as raised:
            flag.apply(m)
        assert str(raised.value) == str(exc)
        return
    assert flag.apply(m) == expected


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
                            big = block_diagonal(random_invertible_ints(m, rng), d)
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
