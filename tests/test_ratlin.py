import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diagflag.errors import DomainError
from diagflag.flagcore import level_flag
from diagflag.ratlin import (
    Flag,
    RatSubspace,
    block_diagonal,
    block_embed,
    matrix_rank,
    matvec,
    nilradical_inclusion_oracle,
    nullspace,
    random_invertible,
    rref,
    solve_unique,
    stabilizer_oracle,
    to_fraction,
)

small_entries = st.integers(-4, 4)


# -- reference kernel: plain Gauss-Jordan over Fraction ----------------------


def reference_rref(rows, width):
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


def reference_nullspace(rows, width):
    red = reference_rref(rows, width)
    piv = [next(j for j, x in enumerate(r) if x != 0) for r in red]
    basis = []
    for j in (j for j in range(width) if j not in piv):
        v = [Fraction(0)] * width
        v[j] = Fraction(1)
        for r, pj in zip(red, piv):
            v[pj] = -r[j]
        basis.append(v)
    return reference_rref(basis, width)


def reference_intersection(a, b):
    n = a.ambient
    ann = reference_nullspace(a.rows, n) + reference_nullspace(b.rows, n)
    return reference_nullspace(ann, n)


fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)


@st.composite
def generating_sets(draw, widths=st.integers(1, 36), max_rows=8):
    """Rows of Fractions, with zero rows and repeated or scaled rows."""
    width = draw(widths)
    rows = draw(
        st.lists(st.lists(fractions, min_size=width, max_size=width), max_size=max_rows)
    )
    extra = []
    for r in rows:
        kind = draw(st.sampled_from(("none", "zero", "repeat", "scaled")))
        if kind == "zero":
            extra.append([Fraction(0)] * width)
        elif kind == "repeat":
            extra.append(list(r))
        elif kind == "scaled":
            c = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
            extra.append([c * x for x in r])
    order = draw(st.permutations(rows + extra))
    return width, order


@given(generating_sets())
@settings(max_examples=150, deadline=None)
def test_rref_matches_fraction_gauss_jordan(case):
    width, rows = case
    assert rref(rows, width) == reference_rref(rows, width)


@given(generating_sets())
@settings(max_examples=80, deadline=None)
def test_nullspace_matches_reference_kernel(case):
    width, rows = case
    assert nullspace(rows, width) == reference_nullspace(rows, width)


def test_nullspace_of_integer_rows_and_edge_shapes():
    assert nullspace([], 3) == reference_nullspace([], 3)
    assert nullspace([[0, 0, 0]], 3) == reference_nullspace([], 3)
    assert nullspace([[1, 0], [0, 1]], 2) == ()
    assert nullspace([], 0) == ()
    rows = [[2, -4, 6, 0], [3, -6, 9, 1], [-1, 2, 5, 7]]
    assert nullspace(rows, 4) == reference_nullspace(rows, 4)


def test_rref_accepts_ints_and_strings_like_fractions():
    rows = [[2, "1/3", 0], [Fraction(4), "2/3", 0], [0, 0, "-7/2"]]
    assert rref(rows, 3) == reference_rref([[Fraction(x) for x in r] for r in rows], 3)


@st.composite
def subspace_pairs(draw):
    """(a, b) in one of the relations the intersection must handle."""
    width, rows = draw(generating_sets(st.integers(1, 8), max_rows=6))
    b = RatSubspace.span(width, rows)
    kind = draw(
        st.sampled_from(("contained", "containing", "equal", "zero", "full", "generic"))
    )
    if kind in ("contained", "containing"):
        keep = draw(st.lists(st.sampled_from(range(b.dim)), max_size=b.dim)) if b.dim else []
        a = RatSubspace.span(width, [b.rows[i] for i in keep])
        return (a, b) if kind == "contained" else (b, a)
    if kind == "equal":
        return b, RatSubspace.span(width, reversed(rows))
    if kind == "zero":
        return b, RatSubspace.zero(width)
    if kind == "full":
        return RatSubspace.full(width), b
    _, other = draw(generating_sets(st.just(width), max_rows=6))
    return b, RatSubspace.span(width, other)


@given(subspace_pairs())
@settings(max_examples=150, deadline=None)
def test_intersection_matches_annihilator_reference(pair):
    a, b = pair
    expected = reference_intersection(a, b)
    assert (a & b).rows == expected
    assert (b & a).rows == expected


def test_constructor_validates_rows():
    half = Fraction(1, 2)
    RatSubspace(3, ((Fraction(1), Fraction(0), half), (Fraction(0), Fraction(1), half)))
    bad = [
        ((Fraction(2), Fraction(0), Fraction(0)),),  # pivot not 1
        ((Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0))),
        ((Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))),
        ((Fraction(0), Fraction(0), Fraction(0)),),  # zero row
        ((Fraction(1), Fraction(0)),),  # wrong width
    ]
    for rows in bad:
        with pytest.raises(DomainError):
            RatSubspace(3, rows)
    with pytest.raises(DomainError):
        RatSubspace(-1, ())
    with pytest.raises(DomainError):
        RatSubspace.span(-1, [])


def test_bools_are_not_rationals():
    for value in (True, False):
        with pytest.raises(DomainError):
            to_fraction(value)
    with pytest.raises(DomainError):
        Flag.from_json_obj({"ambient": 2, "chain": [[[True, 0]]]})


def matrices(rows, cols):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


@given(matrices(3, 4), matrices(3, 3))
@settings(max_examples=80)
def test_canonical_under_change_of_basis(rows, mix):
    """Any generating set of the same subspace reduces to one representation."""
    base = RatSubspace.span(4, rows)
    mixed = [
        [sum(mix[i][j] * Fraction(rows[j][c]) for j in range(3)) for c in range(4)]
        for i in range(3)
    ]
    combined = RatSubspace.span(4, [r for r in rows] + mixed)
    assert combined == base


def test_sum_and_intersect_examples():
    e1 = RatSubspace.span(3, [[1, 0, 0]])
    e2 = RatSubspace.span(3, [[0, 1, 0]])
    assert (e1 + e2) == RatSubspace.span(3, [[1, 0, 0], [0, 1, 0]])
    a = RatSubspace.span(3, [[1, 0, 0], [0, 1, 0]])
    b = RatSubspace.span(3, [[0, 1, 0], [0, 0, 1]])
    assert (a & b) == e2


def test_sum_rejects_ambient_mismatch():
    with pytest.raises(DomainError):
        RatSubspace.span(3, [[1, 0, 0]]) + RatSubspace.span(4, [[1, 0, 0, 0]])


def test_modular_law_on_random_pairs():
    rng = random.Random(7)
    for _ in range(500):
        n = rng.randint(1, 5)
        a = RatSubspace.span(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        b = RatSubspace.span(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        assert a.dim + b.dim == (a + b).dim + (a & b).dim


def test_block_embed_examples():
    e1 = RatSubspace.span(2, [[1, 0]])
    assert block_embed(e1, 2, 2) == RatSubspace.span(4, [[0, 0, 1, 0]])
    full = RatSubspace.full(2)
    assert block_embed(full, 1, 3) == RatSubspace.span(6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]])
    with pytest.raises(DomainError):
        block_embed(e1, 3, 2)


def test_block_embed_preserves_dimension():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 4)
        d = rng.randint(1, 3)
        sub = RatSubspace.span(
            m, [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, m))]
        )
        assert block_embed(sub, rng.randint(1, d), d).dim == sub.dim


def test_annihilator_involution_and_dimension():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 5)
        sub = RatSubspace.span(
            n, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
        )
        ann = sub.annihilator()
        assert ann.dim == n - sub.dim
        assert ann.annihilator() == sub


def test_flag_validation():
    line = RatSubspace.span(3, [[1, 0, 0]])
    plane = RatSubspace.span(3, [[1, 0, 0], [0, 1, 0]])
    Flag(3, (line, plane))
    Flag(3, ())  # empty chains are allowed (one-point variety)
    with pytest.raises(DomainError):
        Flag(3, (plane, line))  # not increasing
    with pytest.raises(DomainError):
        Flag(3, (line, line))  # not strict
    with pytest.raises(DomainError):
        Flag(3, (RatSubspace.full(3),))  # not proper
    other = RatSubspace.span(3, [[0, 0, 1]])
    with pytest.raises(DomainError):
        Flag(3, (other, plane))  # plane does not contain the third axis


def test_flag_dual_involution():
    rng = random.Random(5)
    line = RatSubspace.span(4, [[1, 2, 0, 0]])
    big = RatSubspace.span(4, [[1, 2, 0, 0], [0, 0, 1, 1], [0, 1, 0, 3]])
    flag = Flag(4, (line, big))
    dual = flag.dual()
    assert dual.dims == (1, 3)
    assert dual.dual() == flag


def test_member_conventions():
    line = RatSubspace.span(3, [[1, 0, 0]])
    flag = Flag(3, (line,))
    assert flag.member(0) == RatSubspace.zero(3)
    assert flag.member(1) == line
    assert flag.member(2) == RatSubspace.full(3)
    with pytest.raises(DomainError):
        flag.member(3)


def test_stabilizer_nested_flag():
    flag = Flag(
        4,
        (
            RatSubspace.span(4, [[1, 0, 0, 0]]),
            RatSubspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        ),
    )
    res = stabilizer_oracle(flag, 2)
    assert res.block_size == 2
    assert res.is_parabolic
    assert res.dimension == 3
    assert res.root_spaces == frozenset({(1, 2)})


def test_stabilizer_split_line():
    flag = Flag(4, (RatSubspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),))
    res = stabilizer_oracle(flag, 2)
    assert not res.is_parabolic
    assert res.dimension == 2  # diagonal matrices only
    assert res.root_spaces == frozenset()


def test_stabilizer_single_block_is_full_parabolic():
    # one block: the stabilizer is the parabolic of the flag itself
    flag = Flag(4, (RatSubspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),))
    res = stabilizer_oracle(flag, 4)
    assert res.is_parabolic
    assert res.dimension == 4 * 4 - 2 * 2


def test_stabilizer_rejects_bad_block_size():
    flag = Flag(4, (RatSubspace.span(4, [[1, 0, 0, 0]]),))
    with pytest.raises(DomainError):
        stabilizer_oracle(flag, 3)


def test_stabilizer_single_block_matches_level_count():
    # with one block the oracle returns the flag's own parabolic, whose
    # dimension is the number of weakly level-increasing coordinate pairs
    for alpha in ((1, 2, 2, 3), (2, 1, 3, 1), (1, 1, 2, 2)):
        n = len(alpha)
        members = []
        for level in range(1, max(alpha)):
            members.append(
                RatSubspace.span(
                    n, [[1 if t == i else 0 for t in range(n)] for i, v in enumerate(alpha) if v <= level]
                )
            )
        flag = Flag(n, tuple(members))
        res = stabilizer_oracle(flag, n)
        expected = n + sum(
            1
            for i in range(n)
            for j in range(n)
            if i != j and alpha[i] <= alpha[j]
        )
        assert res.is_parabolic
        assert res.dimension == expected


def test_stabilizer_root_spaces_are_the_coordinate_lines_it_contains(rng):
    """E_ab is a root space exactly when the unit matrix E_ab lies in the
    span of the returned basis (the oracle reads it off the zero columns
    of its unreduced constraints instead)."""
    checked_roots = 0
    for ambient, m in ((4, 2), (6, 2), (6, 3), (6, 6)):
        for trial in range(12):
            keys = [rng.randint(1, 3) for _ in range(ambient)]
            flag = level_flag(keys)
            if trial % 3 == 0:
                # a conjugate by a random diag(g, ..., g): few root spaces
                flag = flag.apply(block_diagonal(random_invertible(m, rng), ambient // m))
            res = stabilizer_oracle(flag, m)
            algebra = RatSubspace.span(m * m, [[x for row in b for x in row] for b in res.basis])
            assert algebra.dim == res.dimension

            def contains_unit(a, b):
                return algebra.contains_vector([1 if k == a * m + b else 0 for k in range(m * m)])

            for a in range(m):
                for b in range(m):
                    if a != b:
                        assert ((a + 1, b + 1) in res.root_spaces) == contains_unit(a, b)
            assert res.contains_torus == all(contains_unit(a, a) for a in range(m))
            checked_roots += len(res.root_spaces)
    assert checked_roots > 50


def test_nilradical_inclusion_cases():
    nested = Flag(
        4,
        (
            RatSubspace.span(4, [[1, 0, 0, 0]]),
            RatSubspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
        ),
    )
    assert nilradical_inclusion_oracle(nested, stabilizer_oracle(nested, 2))
    # stabilizer parabolic but nilradical escapes: the line alone
    line_only = Flag(4, (RatSubspace.span(4, [[1, 0, 0, 0]]),))
    assert not nilradical_inclusion_oracle(line_only, stabilizer_oracle(line_only, 2))
    # one block: trivially included
    assert nilradical_inclusion_oracle(line_only, stabilizer_oracle(line_only, 4))
    split = Flag(4, (RatSubspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]]),))
    with pytest.raises(DomainError):
        nilradical_inclusion_oracle(split, stabilizer_oracle(split, 2))


def test_solve_unique_and_nullspace():
    a = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(3)))
    x = solve_unique(a, (Fraction(5), Fraction(10)))
    assert matvec(a, x) == (Fraction(5), Fraction(10))
    ns = nullspace([[1, 1, 0], [0, 0, 1]], 3)
    assert ns == ((Fraction(1), Fraction(-1), Fraction(0)),)


def test_random_invertible_has_full_rank():
    rng = random.Random(0)
    for _ in range(20):
        m = random_invertible(4, rng)
        assert matrix_rank(m, 4) == 4


def test_block_diagonal_shape():
    g = ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1)))
    big = block_diagonal(g, 2)
    assert len(big) == 4
    assert big[2][2] == 1 and big[2][3] == 2 and big[2][0] == 0


def test_subspace_json_roundtrip():
    sub = RatSubspace.span(3, [[1, 2, 3], [0, 1, Fraction(1, 2)]])
    assert RatSubspace.from_json_obj(3, sub.to_json_obj()) == sub
    flag = Flag(3, (RatSubspace.span(3, [[1, 0, Fraction(3, 2)]]),))
    assert Flag.from_json_obj(flag.to_json_obj()) == flag


def test_trusted_constructors_match_the_validating_one():
    for ambient in range(7):
        identity_rows = RatSubspace.full(ambient).rows
        assert RatSubspace.zero(ambient) == RatSubspace(ambient, ())
        assert RatSubspace.full(ambient) == RatSubspace(ambient, identity_rows)
        for k in range(ambient + 1):
            assert RatSubspace.coordinate(ambient, k) == RatSubspace(ambient, identity_rows[:k])
        with pytest.raises(DomainError):
            RatSubspace.coordinate(ambient, ambient + 1)
