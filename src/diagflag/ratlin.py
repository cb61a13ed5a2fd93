"""Exact rational linear algebra: subspaces, flags, and stabilizer oracles.

Values are `fractions.Fraction` at every public boundary; no floating
point enters anywhere.  Row reduction (`rref`, and through it
`nullspace`, `matrix_rank`, `solve_unique` and every subspace operation)
runs on integers internally: each input row is scaled to integers, the
elimination is fraction-free, and a `Fraction` is built once per output
entry.  Subspaces are stored in canonical reduced row-echelon form, so
equality of subspaces is equality of representations and all values are
hashable.

`RatSubspace(ambient, rows)` and `RatSubspace.from_json_obj` validate
that the rows are in canonical form; `span` accepts any generating set
and reduces it.  Subspaces that the module computes itself (`span`, `+`,
`&`, `annihilator`, `apply`, `block_embed`) come straight from `rref`, and
`zero`, `full` and `coordinate` are identity rows; none is checked again.

Likewise `Flag(ambient, chain)` and `Flag.from_json_obj` test that each
member contains the one before, a residual computation in rationals.
Flags the library builds nested by construction go through the private
`Flag._from_nested`: `Flag.apply` (a linear image keeps inclusions),
`Flag.dual` (annihilators reverse them) and the builders in `flagcore` and
`diagembed`.  It keeps the integer checks on the ambient, on proper nonzero
members and on strictly increasing dimensions, so a singular matrix that
collapses the chain is still rejected.

The stabilizer oracle at the bottom of the module is the independent
brute-force route used to cross-check the combinatorial criteria of the
graph modules: `stabilizer_oracle(flag, m)` decides, by solving exact
linear systems, which matrices x have block-diagonal copies diag(x, ..., x)
preserving a given flag, and whether the resulting subalgebra is parabolic
relative to the standard diagonal torus.  The nilradical oracle
`nilradical_inclusion_oracle(flag, stabilizer)` takes that result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import DomainError, InternalCheckError, strict_int

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
# Entry types `rref` reads without `to_fraction`; bool, a subclass of int,
# is not one of them and is rejected there.
_EXACT = (Fraction, int)


def to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise DomainError(f"cannot interpret {x!r} as an exact rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def as_vector(entries: Iterable) -> Vector:
    return tuple(to_fraction(x) for x in entries)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(as_vector(r) for r in rows)


def _integer_row(row: Iterable, width: int) -> list[int]:
    """The row scaled to a primitive integer vector (all zeros stays so)."""
    ratios = [
        (x if type(x) in _EXACT else to_fraction(x)).as_integer_ratio() for x in row
    ]
    if len(ratios) != width:
        raise DomainError(f"row width {len(ratios)} != ambient {width}")
    scale = lcm(*[d for _, d in ratios])
    if scale == 1:
        return _primitive([n for n, _ in ratios])
    return _primitive([n * (scale // d) for n, d in ratios])


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by its content (all zeros stays so)."""
    content = gcd(*row)
    return row if content < 2 else [x // content for x in row]


def _clear(row: list[int], prow: list[int], col: int) -> list[int] | None:
    """`row` with column `col` cleared against the pivot row `prow`, made
    primitive again; None when nothing is left."""
    g = gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    new = [a * x - b * y for x, y in zip(row, prow)]
    content = gcd(*new)
    if content == 0:
        return None
    return new if content == 1 else [x // content for x in new]


def rref(rows: Iterable[Iterable], width: int) -> Matrix:
    """Canonical reduced row-echelon form, zero rows dropped.

    Gauss-Jordan elimination on primitive integer rows.  A row is cleared
    at a pivot column by cross-multiplying with the two entries reduced by
    their gcd and is then divided by its content, so at every step it is
    the smallest integer multiple of the row rational elimination would
    hold: no fraction-free scheme, Bareiss's included, keeps smaller
    entries.  Fractions are built only for the output, each entry over its
    row's pivot.  The reduced form is unique, so the result is that of
    elimination over the rationals.
    """
    reduced = _reduce([_integer_row(row, width) for row in rows], width)
    return tuple(_fraction_row(row) for row in reduced)


def _reduce(rows: list[list[int]], width: int) -> list[list[int]]:
    """The integer elimination of `rref`: reduced primitive integer rows in
    pivot order, each a multiple of its canonical row."""
    rest = [r for r in rows if any(r)]
    done: list[list[int]] = []
    for col in range(width):
        if not rest:
            break
        k = next((i for i, r in enumerate(rest) if r[col]), None)
        if k is None:
            continue
        prow = rest.pop(k)
        done = [_clear(r, prow, col) if r[col] else r for r in done]
        done.append(prow)
        rest = [r for r in rest if not r[col]] + [
            c for c in (_clear(r, prow, col) for r in rest if r[col]) if c is not None
        ]
    return done


def _fraction_row(row: list[int]) -> Vector:
    """A primitive integer row divided by its leading entry."""
    a = next(x for x in row if x)
    return tuple(Fraction(x, a) if x else _ZERO for x in row)


def pivots(rows: Matrix) -> tuple[int, ...]:
    out = []
    for r in rows:
        j = next((i for i, x in enumerate(r) if x), None)
        if j is None:
            raise InternalCheckError("zero row in echelon basis")
        out.append(j)
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


def reduce_against(rows: Matrix, vector: Vector) -> Vector:
    """Residual of a vector after elimination against an echelon basis."""
    return _residual(zip(pivots(rows), rows), vector)


def _residual(basis: Iterable[tuple[int, Vector]], vector: Vector) -> Vector:
    residual = vector
    for p, r in basis:
        c = residual[p]
        if c:
            residual = [x - c * y if y else x for x, y in zip(residual, r)]
    return tuple(residual)


def nullspace(rows: Iterable[Iterable], width: int) -> Matrix:
    """Canonical basis of {v : M v = 0}, echelonized.

    The free-column basis is read off the reduced integer rows: with every
    row scaled to the common pivot value D, the kernel vector of free
    column j is D e_j minus the rows' entries in column j at their pivots.
    It is reduced once more in integers, and a `Fraction` is built only
    per output entry.
    """
    red = _reduce([_integer_row(row, width) for row in rows], width)
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
        basis.append(_primitive(v))
    return tuple(_fraction_row(row) for row in _reduce(basis, width))


def matvec(m: Matrix, v: Vector) -> Vector:
    support = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in support), _ZERO) for row in m)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DomainError("matrix shape mismatch")
    bt = tuple(zip(*b)) if b else ()
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt)
        for row in a
    )


def identity(n: int) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def matrix_rank(rows: Iterable[Iterable], width: int) -> int:
    return len(rref(rows, width))


def solve_unique(a: Matrix, rhs: Vector) -> Vector:
    """Solve a x = rhs when the solution is unique; error otherwise."""
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


def random_invertible(dim: int, rng: random.Random, spread: int = 3) -> Matrix:
    """Random invertible integer matrix with entries in [-spread, spread]."""
    return tuple(
        tuple(Fraction(x) for x in row) for row in random_invertible_ints(dim, rng, spread)
    )


def random_invertible_ints(
    dim: int, rng: random.Random, spread: int = 3
) -> tuple[tuple[int, ...], ...]:
    """`random_invertible` with int entries: the same draws, no Fractions."""
    while True:
        m = tuple(tuple(rng.randint(-spread, spread) for _ in range(dim)) for _ in range(dim))
        if matrix_rank(m, dim) == dim:
            return m


@dataclass(frozen=True)
class RatSubspace:
    """A subspace of Q^ambient with a canonical echelon basis (rows)."""

    ambient: int
    rows: Matrix

    def __post_init__(self) -> None:
        if self.ambient < 0:
            raise DomainError("ambient dimension must be >= 0")
        if not is_rref(self.rows, self.ambient):
            raise DomainError("basis is not in canonical reduced row-echelon form")

    @classmethod
    def _from_rref(cls, ambient: int, rows: Matrix) -> "RatSubspace":
        """A subspace from rows that `rref` produced; no check is repeated."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "ambient", ambient)
        object.__setattr__(sub, "rows", rows)
        return sub

    @classmethod
    def span(cls, ambient: int, vectors: Iterable[Iterable]) -> "RatSubspace":
        if ambient < 0:
            raise DomainError("ambient dimension must be >= 0")
        return cls._from_rref(ambient, rref(vectors, ambient))

    @classmethod
    def zero(cls, ambient: int) -> "RatSubspace":
        return cls.coordinate(ambient, 0)

    @classmethod
    def full(cls, ambient: int) -> "RatSubspace":
        return cls.coordinate(ambient, ambient)

    @classmethod
    def coordinate(cls, ambient: int, k: int) -> "RatSubspace":
        """Span of the first k standard basis vectors; identity rows are
        canonical, so no check runs."""
        if not 0 <= k <= ambient:
            raise DomainError("coordinate subspace dimension out of range")
        return cls._from_rref(ambient, identity(ambient)[:k] if k else ())

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __add__(self, other: "RatSubspace") -> "RatSubspace":
        self._check_ambient(other)
        return RatSubspace.span(self.ambient, self.rows + other.rows)

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
        pad = (_ZERO,) * n
        red = rref([v + v for v in self.rows] + [w + pad for w in other.rows], 2 * n)
        return RatSubspace._from_rref(n, tuple(r[n:] for r in red if not any(r[:n])))

    def __le__(self, other: "RatSubspace") -> bool:
        self._check_ambient(other)
        if self.dim > other.dim:
            return False
        basis = list(zip(pivots(other.rows), other.rows))
        return all(not any(_residual(basis, v)) for v in self.rows)

    def contains_vector(self, v: Iterable) -> bool:
        return not any(reduce_against(self.rows, as_vector(v)))

    def annihilator(self) -> "RatSubspace":
        """The subspace {u : <u, v> = 0 for all v here}, in dual coordinates."""
        return RatSubspace._from_rref(self.ambient, nullspace(self.rows, self.ambient))

    def apply(self, m: Matrix) -> "RatSubspace":
        """Image under the linear map with matrix m (columns act on coordinates)."""
        new_ambient = len(m)
        return RatSubspace.span(new_ambient, [matvec(m, v) for v in self.rows])

    def coordinate_complement(self, within: "RatSubspace | None" = None) -> "RatSubspace":
        """Deterministic complement spanned by standard basis vectors where
        possible; when `within` is given the complement is taken inside it."""
        space = within if within is not None else RatSubspace.full(self.ambient)
        comp_rows: list[Vector] = []
        current = self
        for v in space.rows:
            if not (current + RatSubspace.span(self.ambient, comp_rows)).contains_vector(v):
                comp_rows.append(v)
        return RatSubspace.span(self.ambient, comp_rows)

    def _check_ambient(self, other: "RatSubspace") -> None:
        if self.ambient != other.ambient:
            raise DomainError(
                f"ambient mismatch: {self.ambient} vs {other.ambient}"
            )

    def to_json_obj(self) -> list:
        return [[str(x) for x in row] for row in self.rows]

    @classmethod
    def from_json_obj(cls, ambient: int, obj: list) -> "RatSubspace":
        return cls(ambient, rref(obj, ambient))


def block_embed(sub: RatSubspace, block: int, blocks: int) -> RatSubspace:
    """Shift a subspace of Q^m into block `block` of Q^(blocks*m).

    Block indices are 1-based; block i occupies coordinates
    (i-1)*m .. i*m - 1.
    """
    if not 1 <= block <= blocks:
        raise DomainError(f"block index {block} out of range 1..{blocks}")
    m = sub.ambient
    left = (block - 1) * m
    right = (blocks - block) * m
    zero_l = (_ZERO,) * left
    zero_r = (_ZERO,) * right
    rows = tuple(zero_l + v + zero_r for v in sub.rows)
    return RatSubspace._from_rref(blocks * m, rows)


@dataclass(frozen=True)
class Flag:
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
        containment residuals do not."""
        flag = object.__new__(cls)
        object.__setattr__(flag, "ambient", ambient)
        object.__setattr__(flag, "chain", chain)
        flag._check(nested=True)
        return flag

    def _check(self, nested: bool) -> None:
        prev = None
        for sub in self.chain:
            if sub.ambient != self.ambient:
                raise DomainError("flag member has wrong ambient dimension")
            if not 0 < sub.dim < self.ambient:
                raise DomainError("flag members must be proper and nonzero")
            if prev is not None and not (sub.dim > prev.dim and (nested or prev <= sub)):
                raise DomainError("flag chain must be strictly increasing")
            prev = sub

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
        """Image flag; a linear image keeps inclusions, and a matrix that
        collapses the chain fails the dimension checks."""
        return Flag._from_nested(len(m), tuple(s.apply(m) for s in self.chain))

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
    """diag(m, ..., m) with `blocks` copies."""
    size = len(m)
    n = size * blocks
    rows = []
    for b in range(blocks):
        for i in range(size):
            row = [Fraction(0)] * n
            for j in range(size):
                row[b * size + j] = m[i][j]
            rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class StabilizerResult:
    """Lie algebra of matrices x in gl(m) whose diagonal copies preserve a flag.

    `root_spaces` lists the off-diagonal coordinate lines E_ij (1-based
    pairs) contained in the algebra, `contains_torus` records whether all
    diagonal matrices are, and `is_parabolic` is the torus-relative
    criterion: the torus is contained and for every i != j at least one of
    E_ij, E_ji belongs to the algebra.  `block_size` is m.
    """

    block_size: int
    dimension: int
    basis: tuple[Matrix, ...]
    root_spaces: frozenset[tuple[int, int]]
    contains_torus: bool
    is_parabolic: bool


def _stabilizer_constraints(flag: Flag, m: int) -> list[list[int]]:
    """Linear constraints on vec(x) (row-major, m*m unknowns) expressing
    that diag(x, ..., x) preserves every flag member.

    Each member and annihilator row is scaled to integers first; that
    scales each constraint by a nonzero factor and leaves their span as it
    is."""
    n = flag.ambient
    blocks = range(0, n, m)
    rows: list[list[int]] = []
    for member in flag.chain:
        ann = [_integer_row(u, n) for u in member.annihilator().rows]
        for v in (_integer_row(v, n) for v in member.rows):
            for u in ann:
                rows.append(
                    [
                        sum(u[k + a] * v[k + b] for k in blocks)
                        for a in range(m)
                        for b in range(m)
                    ]
                )
    return rows


def stabilizer_oracle(flag: Flag, m: int) -> StabilizerResult:
    """Compute q = {x in gl(m) : diag(x,...,x) preserves the flag} exactly.

    The parabolicity verdict is relative to the standard diagonal torus:
    it asks that q contain all diagonal matrices and, for each off-diagonal
    pair, at least one of the two coordinate lines E_ij, E_ji.
    """
    n = flag.ambient
    if m < 1 or n % m != 0:
        raise DomainError(f"block size {m} does not divide ambient {n}")
    constraints = _stabilizer_constraints(flag, m)
    basis_vecs = nullspace(constraints, m * m)
    basis = tuple(
        tuple(tuple(v[a * m + b] for b in range(m)) for a in range(m))
        for v in basis_vecs
    )
    # E_ab lies in the nullspace iff column a*m+b of the constraints is zero;
    # row reduction keeps a column zero exactly when it was zero.
    nonzero_cols = {
        j for row in constraints for j in range(m * m) if row[j] != 0
    }
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
        dimension=len(basis),
        basis=basis,
        root_spaces=root_spaces,
        contains_torus=contains_torus,
        is_parabolic=is_parabolic,
    )


def nilradical_inclusion_oracle(flag: Flag, stabilizer: StabilizerResult) -> bool:
    """Whether the nilradical of the diagonal stabilizer q sits inside the
    nilradical of the full stabilizer p of the flag.

    `stabilizer` is `stabilizer_oracle(flag, m)`, which must report q
    parabolic; q is then the sum of the torus and its root spaces, and
    nil(q) is spanned by the E_ij with E_ji absent.  Each generator is
    embedded block-diagonally and tested against the strict-descent
    condition x F_t <= F_{t-1}.
    """
    m = stabilizer.block_size
    if not stabilizer.is_parabolic:
        raise DomainError("stabilizer is not parabolic; nilradical comparison undefined")
    if stabilizer.dimension != m + len(stabilizer.root_spaces):
        raise InternalCheckError("parabolic stabilizer is not torus-decomposable")
    n = flag.ambient
    d = n // m
    roots = stabilizer.root_spaces
    nil_q = [(i, j) for (i, j) in sorted(roots) if (j, i) not in roots]
    members = [flag.member(t) for t in range(len(flag.chain) + 2)]
    for (i, j) in nil_q:
        a, b = i - 1, j - 1
        for t in range(1, len(members)):
            target = members[t - 1]
            for v in members[t].rows:
                image = [Fraction(0)] * n
                for k in range(d):
                    image[k * m + a] = v[k * m + b]
                if any(image) and not target.contains_vector(image):
                    return False
    return True
