import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from conftest import (
    block_embed,
    reference_nilradical_inclusion,
    reference_random_invertible_ints,
    reference_reduce,
    reference_rref,
    reference_spans,
    reference_stabilizer,
    solve_unique,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from diagflag import diagembed
from diagflag.errors import DomainError
from diagflag.flagcore import level_flag
from diagflag.ratlin import (
    SPREAD,
    _COORDINATE_CACHE_SIZE,
    Flag,
    RatSubspace,
    _reduce,
    _scaled,
    block_diagonal,
    integer_matrix,
    is_rref,
    matvec,
    nilradical_inclusion_oracle,
    nullspace,
    random_entries,
    random_invertible_ints,
    rref,
    stabilizer_oracle,
    to_fraction,
)

small_entries = st.integers(-4, 4)


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


big_entries = st.one_of(st.just(0), small_entries, st.integers(-(10**30), 10**30))


@st.composite
def integer_generating_sets(draw):
    """Integer rows of width 1-36 with entries up to 10^30 in size, zero,
    repeated, scaled and negated rows among them, and up to 12 rows on
    widths up to 8, more than columns."""
    width = draw(st.integers(1, 36))
    rows = draw(
        st.lists(
            st.lists(big_entries, min_size=width, max_size=width),
            min_size=1,
            max_size=12 if width <= 8 else 8,
        )
    )
    extra = []
    for r in rows:
        kind = draw(st.sampled_from(("none", "zero", "repeat", "scaled", "negated")))
        if kind == "zero":
            extra.append([0] * width)
        elif kind == "repeat":
            extra.append(list(r))
        elif kind == "scaled":
            c = draw(st.one_of(st.integers(2, 7), st.integers(-(10**30), -2)))
            extra.append([c * x for x in r])
        elif kind == "negated":
            extra.append([-x for x in r])
    return width, draw(st.permutations(rows + extra))


@given(integer_generating_sets())
@settings(max_examples=300, deadline=None)
def test_reduce_matches_the_reference_elimination(case):
    width, rows = case
    expected = reference_reduce(rows, width)
    assert _reduce(rows, width) == expected
    assert _reduce([tuple(r) for r in rows], width) == expected


@pytest.mark.parametrize(
    "rows, width, expected",
    [
        ([], 3, ()),
        ([[0, 0, 0], [0, 0, 0]], 3, ()),
        ([[0, -2, 3]], 3, ((0, 2, -3),)),
        ([[0, 4, -6, 8]], 4, ((0, 2, -3, 4),)),
        ([[0, 0, 0], [0, -4, 6], [0, 0, 0]], 3, ((0, 2, -3),)),
        ([[1, 2, 3], [2, 4, 6], [-3, -6, -9]], 3, ((1, 2, 3),)),
        ([[-1, 2], [2, -4], [0, 0]], 2, ((1, -2),)),
    ],
    ids=["empty", "all-zero", "negative-pivot", "non-primitive", "one-among-zeros", "cancel-to-one", "negative-cancel"],
)
def test_reduce_edge_inputs_match_the_reference(rows, width, expected):
    """Inputs with fewer than two nonzero rows, before or after clearing."""
    assert reference_reduce(rows, width) == expected
    assert _reduce(rows, width) == expected
    assert _reduce([tuple(r) for r in rows], width) == expected


class Exact(Fraction):
    """A `Fraction` subclass: exact, though its type is not `Fraction`."""


def reference_scaled(entries):
    """Reference: each entry's `Fraction(x).as_integer_ratio()`, times the
    lcm of every denominator."""
    ratios = [Fraction(x).as_integer_ratio() for x in entries]
    scale = lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale


def test_scaling_matches_the_ratio_route_on_mixed_entries():
    """`_scaled` and `integer_matrix` keep ints as they are and count every
    other denominator, a `Fraction` subclass's included."""
    half = Exact(1, 2)
    assert type(half) is not Fraction and half.denominator == 2
    cases = [
        [3, Fraction(1, 3), half, "5/4", -2, "0", Fraction(-7, 6)],
        [half, 0, 0],
        [0, Exact(-3, 1), 2],
        [2, 4, 6],
        ["1/2", "-3/2", 1],
        [Fraction(4), Fraction(-6), 0],
        [],
    ]
    for entries in cases:
        assert _scaled(entries) == reference_scaled(entries)
        assert all(type(x) is int for x in _scaled(entries)[0])
        width = len(entries)
        flat, scale = reference_scaled(entries + entries[::-1])
        assert integer_matrix([entries, entries[::-1]], width) == ((tuple(flat[:width]), tuple(flat[width:])), scale)
    assert to_fraction(half) is half
    assert type(to_fraction(7)) is Fraction and to_fraction(7) == 7


def test_scaling_still_refuses_bools_and_exponent_notation():
    for bad in (True, False, "1e3", "2E-1"):
        with pytest.raises(DomainError):
            to_fraction(bad)
        with pytest.raises(DomainError):
            _scaled([1, bad])
        with pytest.raises(DomainError):
            integer_matrix([[1, bad]], 2)


def test_a_row_of_the_wrong_width_is_refused_before_its_entries_are_read():
    """`rref`, `nullspace` and `span` scale the whole matrix at once, and
    `RatSubspace.apply` and `Flag.apply` read theirs in one pass, after
    every row's width is checked: a row of the wrong width, before or after
    an entry that is no rational, gets the width error."""
    line = RatSubspace.span(2, [[1, 0]])
    for read in (
        rref,
        nullspace,
        lambda rows, width: RatSubspace.span(width, rows),
        lambda rows, width: line.apply(rows),
        lambda rows, width: Flag(width, (line,)).apply(rows),
    ):
        for rows in ([[1, 0], ["1/0", 1, 2]], [[1, "x"], [1, 2, 3]]):
            with pytest.raises(DomainError, match=r"^row width 3 != ambient 2$"):
                read(rows, 2)
        with pytest.raises(DomainError, match="cannot interpret"):
            read([[1, "1/0"]], 2)


def test_rational_strings_are_read_only_as_fractions_write_them():
    """A string entry is an ASCII integer, `p/q` or decimal with no sign but
    `-`; every other spelling `Fraction()` takes, and every string it
    refuses with a `ValueError`, is a `DomainError`."""
    for text, value in [("1/2", Fraction(1, 2)), ("-3", -3), ("1.5", Fraction(3, 2)), ("0", 0)]:
        assert to_fraction(text) == value
    for value in (Fraction(-7, 6), Fraction(5), Fraction(0), Fraction(10**30, 7)):
        assert to_fraction(str(value)) == value
    # Past the default limit of 4300 digits, `int()` raises `ValueError`.
    for bad in ("\u0662", "0_2", " 2", "2 ", "+2", "0x10", "x", "", "1/-2", "1" * 5000):
        with pytest.raises(DomainError, match="^cannot interpret "):
            to_fraction(bad)
    with pytest.raises(DomainError) as raised:
        to_fraction("1" * 5000)
    assert str(raised.value) == f"cannot interpret '{'1' * 59} as an exact rational"
    with pytest.raises(DomainError, match="^cannot interpret '0x10' as an exact rational$"):
        RatSubspace.span(2, [["1", "0x10"]])
    with pytest.raises(DomainError, match="^cannot interpret 'x' as an exact rational$"):
        RatSubspace.span(2, [[1, 0]]).apply([[1, "x"], [0, 1]])


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
    """`span` is the constructor for rows from outside: it reduces any
    generating set, canonical or not, and rejects a wrong width and a
    negative ambient."""
    half = Fraction(1, 2)
    canonical = ((Fraction(1), Fraction(0), half), (Fraction(0), Fraction(1), half))
    sub = RatSubspace.span(3, canonical)
    assert sub.rows == canonical and sub.int_rows == ((2, 0, 1), (0, 2, 1))
    assert_canonical(sub)
    not_canonical = [
        ((Fraction(2), Fraction(0), Fraction(0)),),  # pivot not 1
        ((Fraction(0), Fraction(1), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0))),
        ((Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))),
        ((Fraction(0), Fraction(0), Fraction(0)),),  # zero row
    ]
    for rows in not_canonical:
        assert_canonical(RatSubspace.span(3, rows))
    with pytest.raises(DomainError):
        RatSubspace.span(3, [(Fraction(1), Fraction(0))])
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


def test_sum_with_a_zero_side_is_the_other_side():
    a = RatSubspace.span(3, [[1, 2, 0], [0, 3, 1]])
    zero = RatSubspace.zero(3)
    assert a + zero == a and zero + a == a and zero + zero == zero
    for left, right in ((zero, RatSubspace.span(4, [[1, 0, 0, 0]])), (a, RatSubspace.zero(4))):
        with pytest.raises(DomainError):
            left + right
        with pytest.raises(DomainError):
            right + left


def test_containment_of_zero_and_in_the_full_space():
    line = RatSubspace.span(3, [[1, 2, 0]])
    assert RatSubspace.zero(3) <= line and line <= RatSubspace.full(3)
    assert not RatSubspace.full(3) <= line and not line <= RatSubspace.zero(3)
    assert RatSubspace.zero(0) <= RatSubspace.full(0)


@pytest.mark.parametrize(
    "left, right",
    [
        (RatSubspace.zero(3), RatSubspace.span(4, [[1, 0, 0, 0]])),
        (RatSubspace.zero(3), RatSubspace.full(4)),
        (RatSubspace.span(3, [[1, 0, 0]]), RatSubspace.full(4)),
        (RatSubspace.full(4), RatSubspace.full(3)),
    ],
)
def test_containment_fast_paths_reject_ambient_mismatch(left, right):
    with pytest.raises(DomainError):
        left <= right


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
    returned algebra (the oracle reads it off the zero columns of its
    unreduced constraints instead), and every matrix of the algebra has
    diagonal copies preserving the flag."""
    checked_roots = 0
    for ambient, m in ((4, 2), (6, 2), (6, 3), (6, 6)):
        for trial in range(12):
            keys = [rng.randint(1, 3) for _ in range(ambient)]
            flag = level_flag(keys)
            if trial % 3 == 0:
                # a conjugate by a random diag(g, ..., g): few root spaces
                flag = flag.apply(block_diagonal(random_invertible_ints(m, rng), ambient // m))
            res = stabilizer_oracle(flag, m)
            algebra = res.algebra
            assert algebra.ambient == m * m and algebra.dim == res.dimension
            for v in algebra.rows:
                big = block_diagonal(tuple(v[a * m : (a + 1) * m] for a in range(m)), ambient // m)
                assert all(member.apply(big) <= member for member in flag.chain)

            def contains_unit(a, b):
                unit = [1 if k == a * m + b else 0 for k in range(m * m)]
                return RatSubspace.span(m * m, [unit]) <= algebra

            for a in range(m):
                for b in range(m):
                    if a != b:
                        assert ((a + 1, b + 1) in res.root_spaces) == contains_unit(a, b)
            assert res.contains_torus == all(contains_unit(a, a) for a in range(m))
            checked_roots += len(res.root_spaces)
    assert checked_roots > 50


def assert_oracles_match_references(flag, res, reference):
    """Both oracles agree with the dense references in `conftest`: `res` is
    `stabilizer_oracle`'s result for the flag and `reference` the
    `reference_stabilizer` one.  Returns whether the stabilizer was
    parabolic."""
    ref, parabolic, block_size = reference
    assert res == ref
    assert (res.is_parabolic, res.block_size) == (parabolic, block_size)
    if res.is_parabolic:
        assert nilradical_inclusion_oracle(flag, res) == reference_nilradical_inclusion(flag, ref)
    return res.is_parabolic


@pytest.mark.parametrize("n", range(2, 7))
def test_oracles_match_dense_references_on_every_level_flag(n, level_flag_oracles):
    """Every coordinate flag of a surjective level map with n <= 6, at every
    block count d dividing n."""
    parabolic = 0
    for flag, _, res, reference in level_flag_oracles:
        if flag.ambient == n:
            parabolic += assert_oracles_match_references(flag, res, reference)
    assert parabolic > 0


def test_oracles_match_dense_references_on_conjugated_flags():
    """Level flags conjugated by a random diag(g, ..., g), with dense
    annihilators and few root spaces, and by a random invertible matrix of
    full size, whose members mix the blocks, so that constraint entries sum
    over several blocks."""
    rng = random.Random(20261018)
    parabolic = 0
    for _ in range(240):
        n = rng.choice((2, 3, 4, 4, 6, 6, 6))
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        m = n // d
        flag = level_flag([rng.randint(1, 4) for _ in range(n)])
        for g in (block_diagonal(random_invertible_ints(m, rng), d), random_invertible_ints(n, rng)):
            conjugate = flag.apply(g)
            parabolic += assert_oracles_match_references(
                conjugate, stabilizer_oracle(conjugate, m), reference_stabilizer(conjugate, m)
            )
    assert parabolic > 20


def test_a_shared_memo_changes_no_stabilizer(level_flag_oracles):
    """One memo across every level flag with n <= 6 at every block size,
    seeded conjugated flags, and the empty chain at three block sizes:
    each result equals a fresh call, and a sample equals the dense
    reference.  The empty chain has the empty system at every m, so a key
    without m would hand back the m = 2 algebra at m = 3.  The level flags'
    fresh calls and references are the shared fixture's."""
    rng = random.Random(20261019)
    cases = [(flag, m, res, reference) for flag, m, res, reference in level_flag_oracles]
    for _ in range(200):
        n = rng.choice((2, 3, 4, 4, 6, 6, 6))
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        flag = level_flag([rng.randint(1, 4) for _ in range(n)])
        cases.append((flag.apply(block_diagonal(random_invertible_ints(n // d, rng), d)), n // d, None, None))
    cases += [(Flag(6, ()), m, None, None) for m in (2, 3, 6)]
    memo = {}
    for i, (flag, m, fresh, reference) in enumerate(cases):
        res = stabilizer_oracle(flag, m, memo)
        assert res == (stabilizer_oracle(flag, m) if fresh is None else fresh)
        if i % 50 == 0 or flag.chain == ():
            ref, parabolic, block_size = reference_stabilizer(flag, m) if reference is None else reference
            assert res == ref
            assert (res.is_parabolic, res.block_size) == (parabolic, block_size)
    assert len(memo) < len(cases)
    assert [stabilizer_oracle(Flag(6, ()), m, memo).dimension for m in (2, 3, 6)] == [4, 9, 36]


def test_a_shared_memo_changes_no_nilradical_verdict(level_flag_oracles, monkeypatch):
    """One memo across every parabolic level flag with n <= 6 at every
    block size and seeded conjugated flags: each verdict equals a
    memo-free call, and a sample equals the reference.  The level flags'
    fresh results and references are the shared fixture's.  The rest of
    each key fixes its m and its ambient, so dropping either would hand no
    test another's verdict: the roots of a parabolic q form a total
    preorder on 1..m, so a nonempty nil_q names every index up to m and an
    empty one makes every test hold, and F_t, never zero, has rows of
    width n.  `oracle_sweep(6, {2, 3})`, whose memo both oracles share,
    decides 1,099 distinct descent tests for its 3,047 nilradical calls."""
    rng = random.Random(20261021)
    cases = [(flag, m, res, reference[0]) for flag, m, res, reference in level_flag_oracles if res.is_parabolic]
    for _ in range(200):
        n = rng.choice((2, 3, 4, 4, 6, 6, 6))
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        flag = level_flag([rng.randint(1, 4) for _ in range(n)])
        flag = flag.apply(block_diagonal(random_invertible_ints(n // d, rng), d))
        res = stabilizer_oracle(flag, n // d)
        if res.is_parabolic:
            cases.append((flag, n // d, res, None))
    memo = {}
    verdicts = set()
    for i, (flag, m, res, reference) in enumerate(cases):
        got = nilradical_inclusion_oracle(flag, res, memo)
        assert got == nilradical_inclusion_oracle(flag, res)
        if i % 25 == 0:
            assert got == reference_nilradical_inclusion(flag, reference or reference_stabilizer(flag, m)[0])
        verdicts.add(got)
    assert verdicts == {True, False}
    descents = {key: holds for key, holds in memo.items() if key[0] == "descent"}
    assert descents
    for (_, m, n, nil_q, rows, _), holds in descents.items():
        assert max(max(pair) for pair in nil_q) == m if nil_q else holds
        assert {len(row) for row in rows} == {n}

    memos = []

    def kept(flag, stabilizer, memo):
        memos.append(memo)
        return nilradical_inclusion_oracle(flag, stabilizer, memo)

    monkeypatch.setattr(diagembed, "nilradical_inclusion_oracle", kept)
    assert diagembed.oracle_sweep(6, {2, 3}).unipotent_agreements == len(memos) == 3047
    assert all(memo is memos[0] for memo in memos)
    assert sum(key[0] == "descent" for key in memos[0]) == 1099


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


def matrix_rank(rows, width):
    return len(rref(rows, width))


def test_random_invertible_has_full_rank():
    rng = random.Random(0)
    for _ in range(20):
        m = random_invertible_ints(4, rng)
        assert matrix_rank(m, 4) == 4


def test_random_entries_reproduce_the_randint_stream():
    """The draw helper rests on CPython's `randint` taking getrandbits of
    the range's bit length and redrawing beyond the range."""
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_entries(500, rng) == [ref.randint(-SPREAD, SPREAD) for _ in range(500)]
        assert rng.getstate() == ref.getstate()


def test_random_invertible_matches_the_randint_reference():
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        for dim in range(1, 6):
            assert random_invertible_ints(dim, rng) == reference_random_invertible_ints(dim, ref)
        assert rng.getstate() == ref.getstate()


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
    for ambient in range(9):
        identity = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(ambient))
        identity_rows = RatSubspace.full(ambient).rows
        assert RatSubspace.zero(ambient) == RatSubspace.span(ambient, ())
        assert RatSubspace.full(ambient) == RatSubspace.span(ambient, identity_rows)
        for k in range(ambient + 1):
            sub = RatSubspace.coordinate(ambient, k)
            assert sub == RatSubspace.span(ambient, identity_rows[:k])
            assert sub.ambient == ambient and sub.int_rows == identity[:k]
            assert RatSubspace.coordinate(ambient, k) is sub
        assert RatSubspace.zero(ambient) is RatSubspace.coordinate(ambient, 0)
        assert RatSubspace.full(ambient) is RatSubspace.coordinate(ambient, ambient)
        with pytest.raises(DomainError):
            RatSubspace.coordinate(ambient, ambient + 1)


def test_basis_spans_are_the_unit_vector_spans_from_one_cache():
    """Every index set of every ambient up to 6 spans its unit vectors, one
    instance per (ambient, mask); a coordinate subspace is the span of the
    low k bits, and the cache is the one bounded by
    `_COORDINATE_CACHE_SIZE`."""
    assert RatSubspace.basis_span.cache_info().maxsize == _COORDINATE_CACHE_SIZE
    for ambient in range(7):
        units = [[int(i == j) for j in range(ambient)] for i in range(ambient)]
        for mask in range(1 << ambient):
            sub = RatSubspace.basis_span(ambient, mask)
            assert sub == RatSubspace.span(ambient, [units[i] for i in range(ambient) if mask >> i & 1])
            assert RatSubspace.basis_span(ambient, mask) is sub
        for k in range(ambient + 1):
            assert RatSubspace.coordinate(ambient, k) is RatSubspace.basis_span(ambient, (1 << k) - 1)


@pytest.mark.parametrize("ambient, k", [(3, 4), (3, -1), (0, 1), (-1, 0), (-2, -1)])
def test_coordinate_range_check_runs_after_the_cache_holds_entries(ambient, k):
    for a in range(4):
        for j in range(a + 1):
            RatSubspace.coordinate(a, j)
    for _ in range(2):
        with pytest.raises(DomainError, match="^coordinate subspace dimension out of range$"):
            RatSubspace.coordinate(ambient, k)
    if k == 0:
        with pytest.raises(DomainError, match="^coordinate subspace dimension out of range$"):
            RatSubspace.zero(ambient)
    if ambient < 0:
        with pytest.raises(DomainError, match="^coordinate subspace dimension out of range$"):
            RatSubspace.full(ambient)


def test_zero_denominator_strings_are_rejected():
    with pytest.raises(DomainError):
        to_fraction("1/0")
    with pytest.raises(DomainError):
        Flag.from_json_obj({"ambient": 2, "chain": [[["1/0", "1"]]]})


# -- integer storage ---------------------------------------------------------


def assert_canonical(sub):
    """The stored rows are the reduced echelon basis, each row primitive with
    a positive pivot, the `Fraction` view is in reduced row-echelon form,
    and reducing that view again gives the same subspace."""
    seen = []
    for r in sub.int_rows:
        assert len(r) == sub.ambient and all(type(x) is int for x in r)
        p = next(j for j, x in enumerate(r) if x)
        assert r[p] > 0 and gcd(*r) == 1
        seen.append(p)
    assert seen == sorted(set(seen))
    for r, p in zip(sub.int_rows, seen):
        assert all(r[q] == 0 for q in seen if q != p)
    assert is_rref(sub.rows, sub.ambient)
    assert RatSubspace.span(sub.ambient, sub.rows) == sub


@st.composite
def rational_matrices(draw, rows, cols):
    """Fraction matrices, singular ones included (zero rows and columns,
    repeated rows)."""
    m = draw(st.lists(st.lists(fractions, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        m[-1] = list(m[0])
    return tuple(tuple(r) for r in m)


@st.composite
def computed_subspaces(draw):
    """A subspace from one of the module's constructions, with the same
    subspace built through the rational reference route."""
    width, rows = draw(generating_sets(st.integers(1, 7), max_rows=5))
    a = RatSubspace.span(width, rows)
    _, other = draw(generating_sets(st.just(width), max_rows=5))
    b = RatSubspace.span(width, other)
    kind = draw(st.sampled_from(("span", "sum", "meet", "annihilator", "apply", "block", "coordinate")))
    if kind == "span":
        return a, reference_rref(rows, width)
    if kind == "sum":
        return a + b, reference_rref(a.rows + b.rows, width)
    if kind == "meet":
        return a & b, reference_intersection(a, b)
    if kind == "annihilator":
        return a.annihilator(), reference_nullspace(a.rows, width)
    if kind == "apply":
        m = draw(rational_matrices(draw(st.integers(1, 7)), width))
        return a.apply(m), reference_rref([matvec(m, v) for v in a.rows], len(m))
    if kind == "block":
        blocks = draw(st.integers(1, 3))
        block = draw(st.integers(1, blocks))
        pad = lambda k: (Fraction(0),) * (k * width)
        shifted = [pad(block - 1) + v + pad(blocks - block) for v in a.rows]
        return block_embed(a, block, blocks), reference_rref(shifted, blocks * width)
    k = draw(st.integers(0, width))
    made = draw(
        st.sampled_from(
            (RatSubspace.coordinate(width, k), RatSubspace.zero(width), RatSubspace.full(width))
        )
    )
    return made, reference_rref([[int(i == j) for j in range(width)] for i in range(made.dim)], width)


@given(computed_subspaces())
@settings(max_examples=200, deadline=None)
def test_computed_subspaces_store_canonical_integer_rows(case):
    sub, expected_rows = case
    assert_canonical(sub)
    assert sub.rows == expected_rows


def reference_residual(rows, vector):
    """Residual of a vector after Fraction elimination against an echelon
    basis."""
    residual = tuple(Fraction(x) for x in vector)
    for r in rows:
        c = residual[next(j for j, x in enumerate(r) if x)]
        if c:
            residual = tuple(x - c * y if y else x for x, y in zip(residual, r))
    return residual


@given(subspace_pairs(), st.data())
@settings(max_examples=150, deadline=None)
def test_containment_matches_the_fraction_residual(pair, data):
    a, b = pair
    n = a.ambient
    expected = a.dim <= b.dim and all(not any(reference_residual(b.rows, v)) for v in a.rows)
    assert (a <= b) == expected
    coeffs = data.draw(st.lists(small_entries, min_size=b.dim, max_size=b.dim))
    inside = [sum((c * r[i] for c, r in zip(coeffs, b.rows)), Fraction(0)) for i in range(n)]
    anywhere = data.draw(st.lists(fractions, min_size=n, max_size=n))
    for v in (inside, anywhere, [Fraction(0)] * n):
        assert (RatSubspace.span(n, [v]) <= b) == (not any(reference_residual(b.rows, v)))


# -- containment by pivot clearing -------------------------------------------


def reference_coordinate_complement(sub, within):
    """`coordinate_complement` with the reference span test."""
    n = sub.ambient
    covered, chosen = sub, []
    for v in within.int_rows:
        if not reference_spans(covered, [v]):
            chosen.append(v)
            covered = RatSubspace.span_ints(n, covered.int_rows + (v,))
    return RatSubspace.span_ints(n, chosen)


def seeded_vectors(rng, sub, wide):
    """Vectors to test against `sub`: the zero vector, non-primitive
    multiples of its rows and of combinations of them, and random vectors
    with entries up to `wide`."""
    n = sub.ambient
    out = [[0] * n]
    for r in sub.int_rows:
        out.append([rng.choice((-6, -2, 3, 4)) * x for x in r])
    if sub.int_rows:
        coeffs = [rng.randint(-wide, wide) for _ in sub.int_rows]
        out.append([sum(c * r[i] for c, r in zip(coeffs, sub.int_rows)) * 2 for i in range(n)])
    out += [[rng.randint(-wide, wide) for _ in range(n)] for _ in range(2)]
    return out


def test_containment_routine_matches_the_reference_spans():
    """`<=`, `&`, `coordinate_complement` and `residues` against the
    reference span test, on seeded subspaces of ambient at most 8 (the zero
    and full spaces among them) and vectors that include the zero vector,
    non-primitive multiples of member rows and entries beyond SPREAD."""
    rng = random.Random(21)
    wide = 12 * SPREAD
    counts = {"inside": 0, "outside": 0, "zero": 0, "full": 0}
    for _ in range(300):
        n = rng.randint(1, 8)

        def subspace():
            kind = rng.randrange(6)
            if kind == 0:
                return RatSubspace.zero(n)
            if kind == 1:
                return RatSubspace.full(n)
            rows = [[rng.randint(-wide, wide) for _ in range(n)] for _ in range(rng.randint(1, n))]
            return RatSubspace.span_ints(n, rows)

        a, b = subspace(), subspace()
        if rng.random() < 0.3:
            b = a + b
        counts["zero"] += a.dim == 0 or b.dim == 0
        counts["full"] += a.dim == n or b.dim == n
        for v in seeded_vectors(rng, b, wide) + [list(r) for r in a.int_rows]:
            inside = reference_spans(b, [v])
            counts["inside" if inside else "outside"] += 1
            assert b._spans([v]) == inside
            left = list(b.residues([v]))
            assert len(left) == (not inside)
            if left:
                assert RatSubspace.span_ints(n, b.int_rows + (left[0],)) == b + RatSubspace.span_ints(n, [v])
        assert (a <= b) == reference_spans(b, a.int_rows)
        assert (b <= a) == reference_spans(a, b.int_rows)
        meet = a & b
        assert reference_spans(a, meet.int_rows) and reference_spans(b, meet.int_rows)
        assert meet.dim == a.dim + b.dim - (a + b).dim
        assert a.coordinate_complement() == reference_coordinate_complement(a, RatSubspace.full(n))
        assert a.coordinate_complement(within=a + b) == reference_coordinate_complement(a, a + b)
    assert min(counts.values()) > 20


def test_nilradical_oracle_matches_the_reference_spans():
    """Level flags of ambient at most 8, some moved by a random
    diag(g, ..., g): wherever the stabilizer is parabolic, the oracle
    answers as the reference built on `reference_spans` does, and both
    answers occur."""
    rng = random.Random(22)
    answers = set()
    for _ in range(150):
        n = rng.randint(2, 8)
        m = rng.choice([m for m in range(1, n + 1) if n % m == 0])
        flag = level_flag([rng.randint(1, 3) for _ in range(n)])
        if rng.random() < 0.3:
            flag = flag.apply(block_diagonal(random_invertible_ints(m, rng), n // m))
        res = stabilizer_oracle(flag, m)
        if res.is_parabolic:
            got = nilradical_inclusion_oracle(flag, res)
            assert got == reference_nilradical_inclusion(flag, res)
            answers.add(got)
    assert answers == {True, False}
