"""Exact rational linear algebra: subspaces, flags, and stabilizer oracles.

Values are `fractions.Fraction` at every public boundary and integers
inside; no floating point enters anywhere.  A `RatSubspace` stores its
canonical reduced row-echelon basis as `int_rows`, each row its unique
primitive integer multiple with a positive pivot, so equality of
subspaces is equality of representations and all values are hashable.
`rows` is the derived `Fraction` view that `to_json_obj` writes.

`_reduce` is the one elimination; `rref`, `nullspace`, `span`, `+`, `&`,
`annihilator` and `apply` (its matrix scaled to integers, which leaves
every image span as it is) run through it; `+` skips it when a side is
zero.  Containment needs no elimination: `residues` clears each vector
at the pivots of the reduced rows, one cross-multiplication per pivot,
and a vector lies in the span exactly when nothing is left.  `<=` runs it
unless the left side is zero or the right side full, and `&` runs it
both ways before it eliminates.
`_reduce` is one loop that clears each column and divides each cleared
row by its content inline, with no helper call per row.  What `_reduce`
returns is canonical; `_kernel_basis`, the free-column kernel basis, and
`_member_constraints` are only spanning sets, and `_kernel` is the
canonical kernel, `_reduce` of that basis.
`RatSubspace(ambient, int_rows)` trusts that its integer rows are
canonical: what the library computes is canonical by construction and is
not checked again.  Rows from outside go through `span` (and
`from_json_obj`, which calls it), which reduces any generating set of
exact rationals.  `zero`, `full` and `coordinate` return one shared
immutable subspace per (ambient, k), from a cache of bounded size.
`to_fraction` refuses exponent notation, whose expansion no input size
bounds.

The scaling rule lives here alone: `integer_matrix` turns a rational
matrix into integer rows over one positive denominator in lowest terms,
and callers that already hold integers use `RatSubspace.span_ints` and
`RatSubspace.apply_ints`, which take integer rows as they are.

Likewise `Flag(ambient, chain)` and `Flag.from_json_obj` test that each
member contains the one before.  Flags nested by construction go through
the private `Flag._from_nested`: `Flag.apply` (a linear image keeps
inclusions), `Flag.dual` (annihilators reverse them) and the builders in
`flagcore` and `diagembed`.  It keeps the checks on the ambient, on proper
nonzero members and on strictly increasing dimensions, so a singular
matrix that collapses the chain is still rejected.  Likewise the graphs
`build_from_alpha` makes valid by construction (the tests check every
level map with n <= 6) are embedded by `DiagonalEmbedding._from_valid`,
not validated again, and `all_surjections` emits its records unchecked.

The stabilizer oracle at the bottom of the module is the independent
brute-force route used to cross-check the combinatorial criteria of the
graph modules: `stabilizer_oracle(flag, m)` decides, by solving exact
linear systems, which matrices x have block-diagonal copies diag(x, ..., x)
preserving a given flag, and whether the resulting subalgebra is parabolic
relative to the standard diagonal torus.  Its constraints are sparse and
each distinct one is kept once: the canonical kernel and the set of
columns that are zero in every constraint depend only on their span.
`stabilizer_oracle(flag, m, memo)` takes an optional dict that the
caller owns, which keeps each member's rows (`_member_constraints`) and
each solved system (`_solve_stabilizer`), so that a sweep, whose cases
share few members and fewer systems, builds and solves each once;
nothing is cached at module level, and no result changes.
The nilradical oracle `nilradical_inclusion_oracle(flag, stabilizer)`
takes that result and builds only the nonzero generator images.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InternalCheckError, Record, strict_int

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
IntRows = tuple[tuple[int, ...], ...]

_ZERO = Fraction(0)
# Entries of random invertible matrices lie in [-SPREAD, SPREAD]; each is
# one `random_entries` draw.
SPREAD = 3
# Entry types read without `to_fraction`; bool, a subclass of int, is not
# one of them and is rejected there.
_EXACT = (Fraction, int)
# The most coordinate subspaces kept, one per (ambient, k); evaluations
# ask for the same few again and again.
_COORDINATE_CACHE_SIZE = 1024


def to_fraction(x) -> Fraction:
    """An int, a Fraction or a decimal or `p/q` string as a Fraction.

    Exponent notation is refused: `Fraction("1e3000000")` builds 10**3000000
    before anything can bound it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and ("e" in x or "E" in x):
        raise DomainError(f"exponent notation is not accepted: {x[:40]!r}")
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            pass
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(to_fraction(x) for x in r) for r in rows)


def _scaled(entries: Iterable) -> tuple[list[int], int]:
    """Exact rational entries times the lcm of their denominators, and that
    lcm: the one scaling rule.  The result is in lowest terms, since some
    entry carries the full power of each prime dividing the lcm."""
    ratios = [(x if type(x) in _EXACT else to_fraction(x)).as_integer_ratio() for x in entries]
    scale = lcm(*[d for _, d in ratios])
    if scale == 1:
        return [n for n, _ in ratios], 1
    return [n * (scale // d) for n, d in ratios], scale


def _integer_row(row: Iterable, width: int) -> list[int]:
    """The row times the lcm of its denominators."""
    ints, _ = _scaled(row)
    if len(ints) != width:
        raise DomainError(f"row width {len(ints)} != ambient {width}")
    return ints


def integer_matrix(rows: Iterable[Iterable], width: int) -> tuple[IntRows, int]:
    """An exact rational matrix as integer rows over one positive
    denominator, in lowest terms (the gcd of all entries and the
    denominator is 1), so equal matrices give equal pairs."""
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != width:
            raise DomainError(f"row width {len(r)} != ambient {width}")
    flat, den = _scaled(x for r in rows for x in r)
    return tuple(tuple(flat[i * width : (i + 1) * width]) for i in range(len(rows))), den


def _reduce(rows: Iterable[Sequence[int]], width: int) -> IntRows:
    """The one elimination: the canonical integer rows of the span of
    integer rows.

    Gauss-Jordan on primitive integer rows.  A row is cleared at a pivot
    column by cross-multiplying with the two entries reduced by their gcd
    and is then divided by its content, so at every step it is the
    smallest integer multiple of the row rational elimination would hold:
    no fraction-free scheme, Bareiss's included, keeps smaller entries.
    Each pivot row is made positive at its pivot, which clearing later
    columns multiplies by positive entries only.  The first `rank` rows of
    the work list are the pivot rows so far; rows cleared to zero leave
    it.  The clearing is written out in the loop, since on the narrow
    matrices the library reduces call overhead, not arithmetic, is the
    cost.
    """
    work = []
    for r in rows:
        c = gcd(*r)
        if c:
            work.append(r if c == 1 else [x // c for x in r])
    rank = 0
    for col in range(width):
        if rank == len(work):
            break
        for k in range(rank, len(work)):
            if work[k][col]:
                break
        else:
            continue
        prow = work.pop(k)
        p = prow[col]
        if p < 0:
            p = -p
            prow = [-x for x in prow]
        out = []
        for r in work:
            b = r[col]
            if b:
                g = gcd(p, b)
                a, b = p // g, b // g
                r = [a * x - b * y for x, y in zip(r, prow)]
                c = gcd(*r)
                if not c:
                    continue
                if c != 1:
                    r = [x // c for x in r]
            out.append(r)
        out.insert(rank, prow)
        work = out
        rank += 1
    return tuple(map(tuple, work))


def _canonical(rows: Iterable[Iterable], width: int) -> IntRows:
    """The canonical integer rows of the span of exact rational rows."""
    return _reduce([_integer_row(row, width) for row in rows], width)


def _fraction_row(row: Sequence[int]) -> Vector:
    """A canonical integer row divided by its (positive) pivot."""
    a = next(x for x in row if x)
    return tuple(Fraction(x, a) if x else _ZERO for x in row)


def rref(rows: Iterable[Iterable], width: int) -> Matrix:
    """Canonical reduced row-echelon form, zero rows dropped: the rows of
    `_reduce`, each over its pivot."""
    return tuple(_fraction_row(row) for row in _canonical(rows, width))


def pivots(rows: Matrix) -> tuple[int, ...]:
    out = []
    for r in rows:
        for j, x in enumerate(r):
            if x:
                out.append(j)
                break
        else:
            raise InternalCheckError("zero row in echelon basis")
    return tuple(out)


def is_rref(rows: Matrix, width: int) -> bool:
    """Structural test for canonical reduced row-echelon form."""
    last_pivot = -1
    pivot_cols = []
    for r in rows:
        if len(r) != width:
            return False
        j = next((i for i, x in enumerate(r) if x != 0), None)
        if j is None or j <= last_pivot or r[j] != 1:
            return False
        last_pivot = j
        pivot_cols.append(j)
    for idx, r in enumerate(rows):
        for other, j in enumerate(pivot_cols):
            if other != idx and r[j] != 0:
                return False
    return True


def _kernel_basis(red: IntRows, width: int) -> list[list[int]]:
    """A basis of {v : M v = 0}, from the canonical integer rows of M: one
    vector per free column, in column order, not reduced.

    With every row scaled to the common pivot value D, the vector of free
    column j is D e_j minus the rows' entries in column j at their pivots.
    It spans the kernel but is not canonical (its rows need not be
    primitive or echelon); callers that only need the span, such as the
    stabilizer constraints, take it as it is.
    """
    piv = pivots(red)
    scale = lcm(*(r[p] for r, p in zip(red, piv)))
    pivoted = [(p, r, scale // r[p]) for r, p in zip(red, piv)]
    basis = []
    for j in sorted(set(range(width)) - set(piv)):
        v = [0] * width
        v[j] = scale
        for p, r, f in pivoted:
            if r[j]:
                v[p] = -f * r[j]
        basis.append(v)
    return basis


def _kernel(red: IntRows, width: int) -> IntRows:
    """Canonical integer rows of {v : M v = 0}, from those of M: the
    free-column basis of `_kernel_basis`, reduced once more."""
    return _reduce(_kernel_basis(red, width), width)


def nullspace(rows: Iterable[Iterable], width: int) -> Matrix:
    """Canonical basis of {v : M v = 0}, echelonized."""
    return tuple(_fraction_row(row) for row in _kernel(_canonical(rows, width), width))


def matvec(m: Matrix, v: Vector) -> Vector:
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in support), _ZERO) for row in m)


def random_entries(count: int, rng: random.Random) -> list[int]:
    """`count` draws of `rng.randint(-SPREAD, SPREAD)`, taken from the
    generator as CPython's `randint` takes them: `getrandbits` of the bit
    length of the 2 SPREAD + 1 values, redrawn while beyond them."""
    width = 2 * SPREAD + 1
    bits = width.bit_length()
    draw = rng.getrandbits
    out = []
    for _ in range(count):
        r = draw(bits)
        while r >= width:
            r = draw(bits)
        out.append(r - SPREAD)
    return out


def random_invertible_ints(dim: int, rng: random.Random) -> IntRows:
    """Random invertible integer matrix with entries in [-SPREAD, SPREAD],
    drawn row by row."""
    while True:
        entries = random_entries(dim * dim, rng)
        m = tuple(tuple(entries[i : i + dim]) for i in range(0, dim * dim, dim))
        if len(_reduce(m, dim)) == dim:
            return m


class RatSubspace(Record):
    """A subspace of Q^ambient, stored as the canonical integer rows of its
    reduced row-echelon basis (`int_rows`); `rows` is that basis in
    `Fraction`s."""

    ambient: int
    int_rows: IntRows

    def __init__(self, ambient: int, int_rows: IntRows) -> None:
        """The subspace with canonical integer rows `int_rows`, trusted."""
        # Spelled out, not the generic Record constructor: every kernel
        # operation builds a subspace.
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "int_rows", int_rows)

    @classmethod
    def span(cls, ambient: int, vectors: Iterable[Iterable]) -> "RatSubspace":
        if ambient < 0:
            raise DomainError("ambient dimension must be >= 0")
        return cls(ambient, _canonical(vectors, ambient))

    @classmethod
    def span_ints(cls, ambient: int, vectors: Iterable[Sequence[int]]) -> "RatSubspace":
        """`span` of integer vectors of width `ambient`, reduced as they are:
        no scaling and no width check."""
        return cls(ambient, _reduce(vectors, ambient))

    @classmethod
    def zero(cls, ambient: int) -> "RatSubspace":
        return cls.coordinate(ambient, 0)

    @classmethod
    def full(cls, ambient: int) -> "RatSubspace":
        return cls.coordinate(ambient, ambient)

    @classmethod
    @lru_cache(maxsize=_COORDINATE_CACHE_SIZE)
    def coordinate(cls, ambient: int, k: int) -> "RatSubspace":
        """Span of the first k standard basis vectors; identity rows are
        canonical, so no check runs.  Subspaces are immutable, so one
        instance per (ambient, k) serves every call; the range check runs
        whenever one is built."""
        if not 0 <= k <= ambient:
            raise DomainError("coordinate subspace dimension out of range")
        unit = tuple(tuple(int(i == j) for j in range(ambient)) for i in range(k))
        return cls(ambient, unit)

    @property
    def rows(self) -> Matrix:
        """The canonical basis in `Fraction`s: each integer row over its pivot."""
        return tuple(_fraction_row(r) for r in self.int_rows)

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    def __add__(self, other: "RatSubspace") -> "RatSubspace":
        """Sum; a zero side returns the other side, with no elimination."""
        self._check_ambient(other)
        if not other.int_rows:
            return self
        if not self.int_rows:
            return other
        n = self.ambient
        return RatSubspace(n, _reduce(self.int_rows + other.int_rows, n))

    def __and__(self, other: "RatSubspace") -> "RatSubspace":
        """Intersection; one Zassenhaus elimination unless one side
        contains the other.

        The rows of the reduced form of [[A, A], [B, 0]] whose left half is
        zero have right halves that are the reduced basis of the
        intersection.
        """
        self._check_ambient(other)
        if self <= other:
            return self
        if other <= self:
            return other
        n = self.ambient
        pad = (0,) * n
        red = _reduce([v + v for v in self.int_rows] + [w + pad for w in other.int_rows], 2 * n)
        return RatSubspace(n, tuple(r[n:] for r in red if not any(r[:n])))

    def __le__(self, other: "RatSubspace") -> bool:
        """Containment; the zero subspace and the full space answer without
        a span test."""
        self._check_ambient(other)
        if not self.int_rows or len(other.int_rows) == other.ambient:
            return True
        return self.dim <= other.dim and other._spans(self.int_rows)

    def _spans(self, vectors: Iterable[Sequence[int]]) -> bool:
        """Whether every integer vector lies here (see `residues`)."""
        return next(self.residues(vectors), None) is None

    def residues(self, vectors: Iterable[Sequence[int]]) -> Iterator[Sequence[int]]:
        """What is left of each integer vector, in order, once it is cleared
        at the pivots, for the vectors that do not lie here.

        A vector v is cleared at each pivot p by cross-multiplying with the
        row r of that pivot, r[p] v - v[p] r, both coefficients divided by
        their gcd.  The rows are in reduced form, so r is zero at every
        other pivot, and clearing p leaves the entries at the other pivots
        as they were up to a nonzero factor.  After one pass v is zero at
        every pivot and is a nonzero multiple of itself minus a combination
        of the rows; that is zero exactly when v lies here, since a
        combination of the rows that vanishes at every pivot is zero.  So v
        lies here exactly when nothing is left, and what is left spans,
        with the rows, what v and the rows span.  No lcm of the pivots and
        no combination list is built."""
        basis = list(zip(pivots(self.int_rows), self.int_rows))
        for v in vectors:
            w = v
            for p, r in basis:
                c = w[p]
                if c:
                    a = r[p]
                    g = gcd(a, c)
                    if g != 1:
                        a //= g
                        c //= g
                    w = [a * x - c * y for x, y in zip(w, r)]
            if any(w):
                yield w

    def annihilator(self) -> "RatSubspace":
        """The subspace {u : <u, v> = 0 for all v here}, in dual coordinates."""
        return RatSubspace(self.ambient, _kernel(self.int_rows, self.ambient))

    def apply(self, m: Matrix) -> "RatSubspace":
        """Image under the linear map with matrix m (columns act on
        coordinates), computed with all of m scaled to integers by one
        factor, which leaves the image as it is."""
        return self.apply_ints(integer_matrix(m, self.ambient)[0])

    def apply_ints(self, m: IntRows) -> "RatSubspace":
        """`apply` for an integer matrix with `ambient` columns, not checked."""
        images = []
        for v in self.int_rows:
            support = [(j, x) for j, x in enumerate(v) if x]
            images.append([sum(row[j] * x for j, x in support) for row in m])
        return RatSubspace(len(m), _reduce(images, len(m)))

    def coordinate_complement(self, within: "RatSubspace | None" = None) -> "RatSubspace":
        """Deterministic complement spanned by standard basis vectors where
        possible; when `within` is given the complement is taken inside it."""
        n = self.ambient
        space = within if within is not None else RatSubspace.full(n)
        covered = self
        chosen: list[tuple[int, ...]] = []
        for v in space.int_rows:
            if not covered._spans([v]):
                chosen.append(v)
                covered = RatSubspace(n, _reduce(covered.int_rows + (v,), n))
        return RatSubspace(n, _reduce(chosen, n))

    def _check_ambient(self, other: "RatSubspace") -> None:
        if self.ambient != other.ambient:
            raise DomainError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}"
            )

    def to_json_obj(self) -> list:
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json_obj(cls, ambient: int, obj: list) -> "RatSubspace":
        """The span of any generating set of exact rationals."""
        return cls.span(ambient, obj)


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


class Flag(Record):
    """A strictly increasing chain of proper nonzero subspaces of Q^ambient.

    The chain may be empty (flag variety a single point)."""

    ambient: int
    chain: tuple[RatSubspace, ...]

    def __post_init__(self) -> None:
        self._check(nested=False)

    @classmethod
    def _from_nested(cls, ambient: int, chain: tuple[RatSubspace, ...]) -> "Flag":
        """A flag whose chain is nested by construction (an image, the
        annihilators, a monotone formula): the integer checks on ambient,
        properness and strictly increasing dimensions still run, the
        containment tests do not."""
        flag = object.__new__(cls)
        object.__setattr__(flag, "ambient", ambient)
        object.__setattr__(flag, "chain", chain)
        flag._check(nested=True)
        return flag

    def _check(self, nested: bool) -> None:
        ambient = self.ambient
        prev, prev_dim = None, 0
        for sub in self.chain:
            if sub.ambient != ambient:
                raise DomainError("flag member has wrong ambient dimension")
            dim = len(sub.int_rows)
            if not 0 < dim < ambient:
                raise DomainError("flag members must be proper and nonzero")
            if prev is not None and not (dim > prev_dim and (nested or prev <= sub)):
                raise DomainError("flag chain must be strictly increasing")
            prev, prev_dim = sub, dim

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.chain)

    def member(self, i: int) -> RatSubspace:
        """1-based member access with the usual conventions: member(0) is the
        zero subspace and member(len+1) is the whole space."""
        if i == 0:
            return RatSubspace.zero(self.ambient)
        if i == len(self.chain) + 1:
            return RatSubspace.full(self.ambient)
        if not 1 <= i <= len(self.chain):
            raise DomainError(f"flag member index {i} out of range")
        return self.chain[i - 1]

    def apply(self, m: Matrix) -> "Flag":
        """Image flag, with m scaled to integers once; a linear image keeps
        inclusions, and a matrix that collapses the chain fails the
        dimension checks."""
        ints = integer_matrix(m, self.ambient)[0]
        return Flag._from_nested(len(m), tuple(s.apply_ints(ints) for s in self.chain))

    def dual(self) -> "Flag":
        """The flag of annihilators, in reverse order (duality map);
        annihilators reverse inclusions."""
        return Flag._from_nested(
            self.ambient, tuple(s.annihilator() for s in reversed(self.chain))
        )

    def to_json_obj(self) -> dict:
        return {
            "ambient": self.ambient,
            "chain": [s.to_json_obj() for s in self.chain],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Flag":
        try:
            ambient = strict_int(obj["ambient"], "ambient")
            chain = tuple(
                RatSubspace.from_json_obj(ambient, rows) for rows in obj["chain"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad flag document: {exc}") from exc
        return cls(ambient, chain)


def block_diagonal(m: Matrix, blocks: int) -> Matrix:
    """diag(m, ..., m) with `blocks` copies; the zeros are int 0."""
    size = len(m)
    n = size * blocks
    rows = []
    for b in range(blocks):
        for i in range(size):
            row = [0] * n
            for j in range(size):
                row[b * size + j] = m[i][j]
            rows.append(tuple(row))
    return tuple(rows)


class StabilizerResult(Record):
    """Lie algebra of matrices x in gl(m) whose diagonal copies preserve a flag.

    `algebra` is that subalgebra as a subspace of Q^(m*m), each matrix
    flattened row by row; `dimension` is its dimension.  `root_spaces`
    lists the off-diagonal coordinate lines E_ij (1-based pairs) contained
    in the algebra, `contains_torus` records whether all diagonal matrices
    are, and `is_parabolic` is the torus-relative criterion: the torus is
    contained and for every i != j at least one of E_ij, E_ji belongs to
    the algebra.  `block_size` is m.
    """

    block_size: int
    algebra: RatSubspace
    root_spaces: frozenset[tuple[int, int]]
    contains_torus: bool
    is_parabolic: bool

    @property
    def dimension(self) -> int:
        return self.algebra.dim


def _by_block(row: Sequence[int], m: int, step: int) -> dict[int, list[tuple[int, int]]]:
    """The nonzero entries of a row of width d*m, grouped by block: block k
    holds (step * (i mod m), row[i]) for its coordinates i."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, x in enumerate(row):
        if x:
            groups.setdefault(i // m, []).append((step * (i % m), x))
    return groups


def _member_constraints(rows: IntRows, m: int) -> IntRows:
    """Linear constraints on vec(x) (row-major, m*m unknowns) expressing
    that diag(x, ..., x) preserves the member with canonical rows `rows`,
    each distinct row once, in first-seen order.

    The constraint of a member row v and an annihilator row u is u^T
    diag(x, ..., x) v = 0; its entry (a, b) is the sum over blocks k of
    u[k+a] v[k+b], so it is built from the pairs of nonzero entries of u
    and v in one block.  The rows u are the unreduced free-column basis of
    the annihilator: only its span matters.  Repeats add nothing to the
    span or to the set of columns that are nonzero somewhere."""
    size = m * m
    ann = [_by_block(u, m, m) for u in _kernel_basis(rows, len(rows[0]))]
    out: dict[tuple[int, ...], None] = {}
    for v in rows:
        v_blocks = _by_block(v, m, 1)
        for u_blocks in ann:
            row = [0] * size
            for k, us in u_blocks.items():
                vs = v_blocks.get(k)
                if vs:
                    for a, x in us:
                        for b, y in vs:
                            row[a + b] += x * y
            out[tuple(row)] = None
    return tuple(out)


def _solve_stabilizer(constraints: IntRows, m: int) -> StabilizerResult:
    """The stabilizer algebra cut out of gl(m) by `constraints`, with its
    root spaces, torus and parabolicity verdict."""
    size = m * m
    algebra = RatSubspace(size, _kernel(_reduce(constraints, size), size))
    # E_ab lies in the nullspace iff column a*m+b of the constraints is zero;
    # the set of such columns is a property of their span.
    nonzero_cols = {j for j in range(size) if any(row[j] for row in constraints)}
    root_spaces = frozenset(
        (a + 1, b + 1)
        for a in range(m)
        for b in range(m)
        if a != b and (a * m + b) not in nonzero_cols
    )
    contains_torus = all((a * m + a) not in nonzero_cols for a in range(m))
    is_parabolic = contains_torus and all(
        (i, j) in root_spaces or (j, i) in root_spaces
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    )
    return StabilizerResult(
        block_size=m,
        algebra=algebra,
        root_spaces=root_spaces,
        contains_torus=contains_torus,
        is_parabolic=is_parabolic,
    )


def stabilizer_oracle(flag: Flag, m: int, memo: dict | None = None) -> StabilizerResult:
    """Compute q = {x in gl(m) : diag(x,...,x) preserves the flag} exactly.

    The parabolicity verdict is relative to the standard diagonal torus:
    it asks that q contain all diagonal matrices and, for each off-diagonal
    pair, at least one of the two coordinate lines E_ij, E_ji.

    The constraints are the union of each member's distinct constraint
    rows, in first-seen order.  `memo`, a dict the caller owns, keeps the
    work of earlier calls: each member's rows under ("member", m, its
    integer rows) and each result under ("system", m, the constraint
    tuple).  The tags keep the two apart, as a member of Q^(m*m) and a
    system can be the same tuple, and m is in both keys because the empty
    chain has the empty system at every block size.  A result is a
    function of its key alone, and the union of the members' rows in chain
    order is the first-seen order of the rows built afresh, so a memo
    changes no result.  Without one, a fresh dict serves the one call.
    """
    n = flag.ambient
    if m < 1 or n % m != 0:
        raise DomainError(f"block size {m} does not divide ambient {n}")
    if memo is None:
        memo = {}
    rows: dict[tuple[int, ...], None] = {}
    for member in flag.chain:
        key = ("member", m, member.int_rows)
        member_rows = memo.get(key)
        if member_rows is None:
            member_rows = memo[key] = _member_constraints(member.int_rows, m)
        rows.update(dict.fromkeys(member_rows))
    constraints = tuple(rows)
    key = ("system", m, constraints)
    result = memo.get(key)
    if result is None:
        result = memo[key] = _solve_stabilizer(constraints, m)
    return result


def nilradical_inclusion_oracle(flag: Flag, stabilizer: StabilizerResult) -> bool:
    """Whether the nilradical of the diagonal stabilizer q sits inside the
    nilradical of the full stabilizer p of the flag.

    `stabilizer` is `stabilizer_oracle(flag, m)`, which must report q
    parabolic; q is then the sum of the torus and its root spaces, and
    nil(q) is spanned by the E_ij with E_ji absent.  Each generator is
    embedded block-diagonally and tested against the strict-descent
    condition x F_t <= F_{t-1}, with one span test per member F_t for the
    nonzero images of its rows under every generator.
    """
    m = stabilizer.block_size
    if not stabilizer.is_parabolic:
        raise DomainError("stabilizer is not parabolic; nilradical comparison undefined")
    if stabilizer.dimension != m + len(stabilizer.root_spaces):
        raise InternalCheckError("parabolic stabilizer is not torus-decomposable")
    n = flag.ambient
    roots = stabilizer.root_spaces
    nil_q = [(i, j) for (i, j) in sorted(roots) if (j, i) not in roots]
    members = [flag.member(t) for t in range(len(flag.chain) + 2)]
    for t in range(1, len(members)):
        # A zero image lies in every span, so only nonzero ones are built.
        images = []
        for (i, j) in nil_q:
            a, b = i - 1, j - 1
            for v in members[t].int_rows:
                column = v[b::m]
                if any(column):
                    image = [0] * n
                    image[a::m] = column
                    images.append(image)
        if not members[t - 1]._spans(images):
            return False
    return True
