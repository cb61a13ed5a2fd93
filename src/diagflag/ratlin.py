"""Exact rational linear algebra: subspaces, flags, and stabilizer oracles.

Values are `fractions.Fraction` at every public boundary and integers
inside; no floating point enters anywhere.  A `RatSubspace` stores its
canonical reduced row-echelon basis as `int_rows`, each row its unique
primitive integer multiple with a positive pivot, so equality of
subspaces is equality of representations and all values are hashable.
`rows` is the derived `Fraction` view that `to_json_obj` writes.

`_reduce` is the one elimination; `rref`, `nullspace`, `span`, `+`, `&`,
`annihilator` and the images run through it; `+` skips it when a side is
zero.  Containment needs no elimination: `residues` clears each vector
at the pivots of the reduced rows, one cross-multiplication per pivot,
and a vector lies in the span exactly when nothing is left.  `<=` runs it
unless the left side is zero or the right side full, and `&` runs it
both ways before it eliminates.
`_reduce` is one loop that clears each column and divides each cleared
row by its content inline, with no helper call per row, and returns at
once when at most one nonzero row is left.  What `_reduce` returns is
canonical; `_kernel_basis`, the free-column kernel basis, and
`_member_constraints` are only spanning sets, and `_kernel` is the
canonical kernel, `_reduce` of that basis.  `_nested_images` maps a
nested chain in one pass, each member's new pivot rows once (the walk of
`_new_images`, which the classifier's verification shares), and reduces
each image from the one before; `Flag.apply`, `RatSubspace.apply` (a
one-member chain) and the strict evaluations of `flagcore` take it.
`RatSubspace(ambient, int_rows)` trusts that its integer rows are
canonical: what the library computes is canonical by construction and is
not checked again.  Rows from outside go through `span` (and
`from_json_obj`, which calls it), which reduces any generating set of
exact rationals.  `basis_span(ambient, mask)` returns one shared
immutable subspace per (ambient, index set), the span of the e_i whose
bit i is set in the mask, from one cache of bounded size; `zero`, `full`,
`coordinate` and the level flags of `flagcore` all take theirs from it.
`to_fraction` reads a string only in ASCII, as `str(Fraction)` writes
it, and refuses exponent notation, whose expansion no input size bounds.

The scaling rule lives here alone, in `_scaled`: `integer_matrix` turns
a rational matrix into integer rows over one positive denominator in
lowest terms (`rref`, `nullspace` and `span` reduce those rows), and
`_read_columns` reads the matrix of `Flag.apply` and `RatSubspace.apply`
once, each entry scaled once and kept, if nonzero, in its column's (row,
value) list.  Integer callers use `span_ints` and `_integer_columns`.

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
share few members and fewer systems, builds and solves each once (at
m = n, where no two flags share a system, it keeps the rows alone);
nothing is cached at module level, and no result changes.
The nilradical oracle `nilradical_inclusion_oracle(flag, stabilizer,
memo)` takes that result and the same dict, which keeps the verdict of
each member's descent test x F_t <= F_{t-1} under a "descent" key (none
at m = n), so a sweep decides each distinct test once; on a miss it
builds only the nonzero generator images and runs one span test.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InternalCheckError, Record, ScaleError, reading, strict_int, strict_list

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
IntRows = tuple[tuple[int, ...], ...]
# The nonzero entries of each column of an integer matrix, as (row, value).
_Columns = list[list[tuple[int, int]]]

_ZERO = Fraction(0)
# Entries of random invertible matrices lie in [-SPREAD, SPREAD]; each is
# one `random_entries` draw.
SPREAD = 3
# The most coordinate subspaces kept, one per (ambient, index set);
# evaluations and sweeps ask for the same few again and again.
_COORDINATE_CACHE_SIZE = 1024
# The most characters the entries of a flag document may hold, as JSON
# numbers or strings: reducing a member costs far more per entry than
# reading it, most for many short entries, and the worst document at the
# limit, 100 rows of 100 one-digit entries, reduces in about 0.5 s.
_FLAG_CHARACTER_LIMIT = 10**4


def to_fraction(x) -> Fraction:
    """An int, a Fraction or a decimal or `p/q` string as a Fraction.

    A string is read only in ASCII digits, with no sign but `-`, as
    `str(Fraction)` writes it.  Exponent notation is refused:
    `Fraction("1e3000000")` builds 10**3000000 before anything can bound
    it.  Every refusal of `Fraction()` is a DomainError, which quotes at
    most 60 characters of the entry."""
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    text = isinstance(x, str) and re.fullmatch(r"-?([0-9]+(/[0-9]+|\.[0-9]*)?|\.[0-9]+)", x)
    if text or isinstance(x, int) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"cannot interpret {x!r:.60} as an exact rational")


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(to_fraction(x) for x in r) for r in rows)


def _scaled(entries: Iterable) -> tuple[list[int], int]:
    """Exact rational entries times the lcm of their denominators, and that
    lcm: the one scaling rule.  The result is in lowest terms, since some
    entry carries the full power of each prime dividing the lcm.  An int is
    kept as it is; any other entry, a `Fraction` subclass included, is read
    as its (numerator, denominator), a `Fraction` with no `to_fraction`
    call, and only the denominators above 1 enter the lcm."""
    out, denominators = [], []
    for x in entries:
        if type(x) is not int:
            x, d = (x if isinstance(x, Fraction) else to_fraction(x)).as_integer_ratio()
            if d != 1:
                x = (x, d)
                denominators.append(d)
        out.append(x)
    if not denominators:
        return out, 1
    scale = lcm(*denominators)
    return [x * scale if type(x) is int else x[0] * (scale // x[1]) for x in out], scale


def _scaled_matrix(rows: Iterable[Iterable], width: int) -> tuple[list[int], int, int]:
    """`_scaled` of a matrix's entries, row after row, and its number of
    rows; every row's width is checked before any entry is read."""
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != width:
            raise DomainError(f"row width {len(r)} != ambient {width}")
    flat, scale = _scaled([x for r in rows for x in r])
    return flat, scale, len(rows)


def integer_matrix(rows: Iterable[Iterable], width: int) -> tuple[IntRows, int]:
    """An exact rational matrix as integer rows over one positive
    denominator, in lowest terms (the gcd of all entries and the
    denominator is 1), so equal matrices give equal pairs."""
    flat, den, count = _scaled_matrix(rows, width)
    return tuple(tuple(flat[i * width : (i + 1) * width]) for i in range(count)), den


def _integer_columns(m: IntRows, width: int) -> _Columns:
    """Each column of the integer matrix m as its nonzero (row, value) pairs."""
    return [[(i, row[j]) for i, row in enumerate(m) if row[j]] for j in range(width)]


def _read_columns(rows: Iterable[Iterable], width: int) -> tuple[_Columns, int]:
    """`_integer_columns` of an exact rational matrix scaled to integers, and
    its number of rows, read in one `_scaled_matrix` pass."""
    flat, _, count = _scaled_matrix(rows, width)
    return [[(i, a) for i, a in enumerate(flat[j::width]) if a] for j in range(width)], count


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
    cost.  One nonzero row needs no clearing, only a positive pivot.
    """
    work = []
    for r in rows:
        c = gcd(*r)
        if c:
            work.append(r if c == 1 else [x // c for x in r])
    if len(work) < 2:
        if work and next(x for x in work[0] if x) < 0:
            return (tuple(-x for x in work[0]),)
        return tuple(map(tuple, work))
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
    """The canonical integer rows of the span of exact rational rows; one
    scaling serves the whole matrix, as `_reduce` divides each row by its content."""
    return _reduce(integer_matrix(rows, width)[0], width)


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


def _new_images(chain: Iterable["RatSubspace"], columns: _Columns, size: int) -> Iterator[list[list[int]]]:
    """For nested subspaces, in order, the images under the integer matrix
    with `size` rows and these columns of each one's rows at pivots new to
    the chain.  Nested subspaces have nested pivot sets, so these rows span
    the member with the member before; each is mapped through the nonzero
    entries of each column."""
    seen: set[int] = set()
    for sub in chain:
        new = []
        for v in sub.int_rows:
            for p, x in enumerate(v):
                if x:
                    break
            if p in seen:
                continue
            seen.add(p)
            w = [0] * size
            for j, x in enumerate(v):
                if x:
                    for i, a in columns[j]:
                        w[i] += a * x
            new.append(w)
        yield new


def _nested_images(chain: Iterable["RatSubspace"], columns: _Columns, size: int) -> list["RatSubspace"]:
    """The images of nested subspaces, in order, under the integer matrix
    with `size` rows and these columns: each is `_reduce` of the one before
    and the images `_new_images` gives."""
    image: IntRows = ()
    out = []
    for new in _new_images(chain, columns, size):
        if new:
            image = _reduce([*image, *new], size)
        out.append(RatSubspace(size, image))
    return out


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
    def coordinate(cls, ambient: int, k: int) -> "RatSubspace":
        """Span of the first k standard basis vectors: `basis_span` of the
        low k bits, after a range check on every call."""
        if not 0 <= k <= ambient:
            raise DomainError("coordinate subspace dimension out of range")
        return cls.basis_span(ambient, (1 << k) - 1)

    @classmethod
    @lru_cache(maxsize=_COORDINATE_CACHE_SIZE)
    def basis_span(cls, ambient: int, mask: int) -> "RatSubspace":
        """Span of the e_i whose bit i is set in `mask`, for 0 <= mask <
        2^ambient, trusted; identity rows in index order are canonical, so
        no check runs.  Only the bits of `mask` are visited, so the zero
        subspace costs nothing whatever the ambient.  Subspaces are
        immutable, so one instance per (ambient, mask) serves every call."""
        return cls(
            ambient,
            tuple((0,) * i + (1,) + (0,) * (ambient - 1 - i) for i in range(mask.bit_length()) if mask >> i & 1),
        )

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
        coordinates): the one-member chain of `_nested_images`, with m read
        once by `_read_columns`, scaled to integers by one factor, which
        leaves the image as it is."""
        return _nested_images((self,), *_read_columns(m, self.ambient))[0]

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
        """The span of any generating set of exact rationals, an array of
        row arrays."""
        return cls.span(ambient, _rows(obj))


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
        """Image flag, with m read once by `_read_columns` and the chain
        mapped by one `_nested_images` pass; a linear image keeps
        inclusions, and a collapsed chain fails the dimension checks."""
        columns, size = _read_columns(m, self.ambient)
        return Flag._from_nested(size, tuple(_nested_images(self.chain, columns, size)))

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
        """The flag of a document.  The shape of the whole chain is checked,
        and the characters of its entries counted against
        `_FLAG_CHARACTER_LIMIT`, before any member is reduced."""
        with reading("flag"):
            ambient = strict_int(obj["ambient"], "ambient")
            members = [_rows(rows) for rows in strict_list(obj["chain"], "chain")]
            characters = sum(len(str(x)) for member in members for row in member for x in row)
            if characters > _FLAG_CHARACTER_LIMIT:
                raise ScaleError(
                    f"flag documents are limited to {_FLAG_CHARACTER_LIMIT} characters of entries; got {characters}"
                )
            chain = tuple(RatSubspace.span(ambient, rows) for rows in members)
        return cls(ambient, chain)


def _rows(obj) -> list:
    """A subspace of a document: an array of row arrays."""
    return [strict_list(row, "a row") for row in strict_list(obj, "a member")]


def block_diagonal(m: Matrix, blocks: int) -> Matrix:
    """diag(m, ..., m) with `blocks` copies of the square m; the zeros are
    int 0."""
    size = len(m)
    n = size * blocks
    rows = []
    for b in range(blocks):
        for m_row in m:
            row = [0] * n
            row[b * size : (b + 1) * size] = m_row
            rows.append(tuple(row))
    return tuple(rows)


class StabilizerResult(Record):
    """Lie algebra of matrices x in gl(m) whose diagonal copies preserve a flag.

    `algebra` is that subalgebra as a subspace of Q^(m*m), each matrix
    flattened row by row; `dimension` is its dimension and `block_size`
    is m.  `root_spaces` lists the off-diagonal coordinate lines E_ij
    (1-based pairs) contained in the algebra, `contains_torus` records
    whether all diagonal matrices are, and `is_parabolic` is the
    torus-relative criterion read off those two: the torus is contained
    and for every i != j at least one of E_ij, E_ji belongs to the
    algebra.  A memoized result computes it once.
    """

    algebra: RatSubspace
    root_spaces: frozenset[tuple[int, int]]
    contains_torus: bool

    @property
    def dimension(self) -> int:
        return self.algebra.dim

    @property
    def block_size(self) -> int:
        return isqrt(self.algebra.ambient)

    @cached_property
    def is_parabolic(self) -> bool:
        roots, m = self.root_spaces, self.block_size
        return self.contains_torus and all(
            (i, j) in roots or (j, i) in roots for i in range(1, m + 1) for j in range(i + 1, m + 1)
        )

    @cached_property
    def nil_q(self) -> tuple[tuple[int, int], ...]:
        """The root spaces E_ij whose opposite E_ji is absent, sorted: for a
        parabolic q they span its nilradical."""
        roots = self.root_spaces
        return tuple(sorted((i, j) for (i, j) in roots if (j, i) not in roots))


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
    root spaces and torus."""
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
    return StabilizerResult(algebra, root_spaces, contains_torus)


def stabilizer_oracle(flag: Flag, m: int, memo: dict | None = None) -> StabilizerResult:
    """Compute q = {x in gl(m) : diag(x,...,x) preserves the flag} exactly.

    The parabolicity verdict is relative to the standard diagonal torus:
    it asks that q contain all diagonal matrices and, for each off-diagonal
    pair, at least one of the two coordinate lines E_ij, E_ji.

    The constraints are the union of each member's distinct constraint
    rows, in first-seen order.  `memo`, a dict the caller owns, keeps the
    work of earlier calls: each member's rows under ("member", m, its
    integer rows) and each result under ("system", m, the constraint
    tuple); `nilradical_inclusion_oracle` keeps its "descent" verdicts
    in the same dict.  The tags keep the kinds apart, as a member of
    Q^(m*m) and a system can be the same tuple, and m is in both keys
    here because the empty chain has the empty system at every block
    size.  A result is a function of its key alone, and the union of the
    members' rows in chain order is the first-seen order of the rows built
    afresh, so a memo changes no result.  Without one, a fresh dict serves
    the one call.

    At m = n (a sweep's block count 1) the memo keeps the members' rows,
    which distinct flags share, and no system.  There q is the flag's own
    stabilizer in gl(n), a parabolic subalgebra whose invariant subspaces
    are exactly the flag's members, so q determines the flag: no two
    distinct flags in Q^n share a system at m = n, and a sweep meets each
    level flag once.  Only a later case in a larger ambient at the same
    block size could reuse one, three times in `oracle_sweep(6, {1, 2,
    3})`.  Keeping them put the tracemalloc peak of `oracle_sweep(6, {1})`
    at 55.6 MiB, against 0.7 MiB.
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
    if m == n:  # q determines the flag: no other flag in Q^n shares it
        return _solve_stabilizer(constraints, m)
    key = ("system", m, constraints)
    result = memo.get(key)
    if result is None:
        result = memo[key] = _solve_stabilizer(constraints, m)
    return result


def nilradical_inclusion_oracle(flag: Flag, stabilizer: StabilizerResult, memo: dict | None = None) -> bool:
    """Whether the nilradical of the diagonal stabilizer q sits inside the
    nilradical of the full stabilizer p of the flag.

    `stabilizer` is `stabilizer_oracle(flag, m)`, which must report q
    parabolic; q is then the sum of the torus and its root spaces, and
    nil(q) is spanned by `stabilizer.nil_q`, the E_ij with E_ji absent.
    Each generator is embedded block-diagonally and tested against the
    strict-descent condition x F_t <= F_{t-1}, with one span test per
    member F_t for the nonzero images of its rows under every generator.
    `memo`, a dict the caller owns (the one `stabilizer_oracle` takes),
    keeps each member's verdict under ("descent", m, ambient, nil_q, the
    integer rows of F_t and of F_{t-1}).  The rest of the key fixes m and
    the ambient: the roots of a parabolic q form a total preorder on
    1..m, so a nonempty nil_q names every index up to m and an empty one
    makes every test hold, and F_t is never zero, so its rows have width
    n.  Both stay in the key so that it names its test without that
    argument.  A verdict is a function of its key alone, so a memo
    changes no result; without one, a fresh dict serves the one call.
    At m = n the memo keeps no verdict: nil_q there is the nilradical of
    the flag's own parabolic, which determines the flag, so no two distinct
    flags share a test (see `stabilizer_oracle`).
    """
    m = stabilizer.block_size
    if not stabilizer.is_parabolic:
        raise DomainError("stabilizer is not parabolic; nilradical comparison undefined")
    if stabilizer.dimension != m + len(stabilizer.root_spaces):
        raise InternalCheckError("parabolic stabilizer is not torus-decomposable")
    n = flag.ambient
    if memo is None or m == n:  # at m = n no other flag shares a test
        memo = {}
    nil_q = stabilizer.nil_q
    members = [flag.member(t) for t in range(len(flag.chain) + 2)]
    for t in range(1, len(members)):
        key = ("descent", m, n, nil_q, members[t].int_rows, members[t - 1].int_rows)
        holds = memo.get(key)
        if holds is None:
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
            holds = memo[key] = members[t - 1]._spans(images)
        if not holds:
            return False
    return True
