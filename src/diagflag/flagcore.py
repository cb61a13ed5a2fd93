"""Flag types, standard-extension data, Picard pullbacks, and a classifier.

A standard extension sends a flag {V_1, ..., V_k} to the flag with members
eps(V_kappa(j)) + Z_j, for an injective linear map eps, a nested chain of
subspaces Z_1 <= ... <= Z_l living in a complement of the image of eps,
and a nondecreasing index map kappa (with the conventions V_0 = 0 and
V_{k+1} = V); optionally the result is composed with the duality map that
replaces each member by the annihilator of its mirror.  This module
evaluates and composes such data, computes constant spaces of arbitrary
evaluable embeddings by stabilized sampling, and recognizes standard
extensions at small scale by exhaustive recovery of a witness.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DomainError, InternalCheckError, ScaleError, strict_int
from .ratlin import (
    Flag,
    Matrix,
    RatSubspace,
    as_matrix,
    identity,
    matmul,
    matrix_rank,
    nullspace,
    random_invertible_ints,
    solve_unique,
)

CLASSIFY_SCALE_LIMIT = 6


@dataclass(frozen=True)
class FlagType:
    """Ambient dimension and the strictly increasing member dimensions."""

    ambient: int
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ambient < 1:
            raise DomainError("ambient dimension must be positive")
        prev = 0
        for d in self.dims:
            if not prev < d < self.ambient:
                raise DomainError(
                    f"member dimensions must satisfy 0 < d_1 < ... < d_k < {self.ambient}; got {self.dims}"
                )
            prev = d

    @property
    def length(self) -> int:
        return len(self.dims)

    def to_json_obj(self) -> dict:
        return {"ambient": self.ambient, "dims": list(self.dims)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FlagType":
        try:
            return cls(
                strict_int(obj["ambient"], "ambient"),
                tuple(strict_int(d, "a member dimension") for d in obj["dims"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad flag-type document: {exc}") from exc


def flag_type_of(flag: Flag) -> FlagType:
    return FlagType(flag.ambient, flag.dims)


def coordinate_flag(ft: FlagType) -> Flag:
    return Flag._from_nested(
        ft.ambient, tuple(RatSubspace.coordinate(ft.ambient, d) for d in ft.dims)
    )


def level_flag(keys: Sequence) -> Flag:
    """The coordinate flag of totally ordered keys on the basis vectors: one
    member per key value but the largest, spanned by the e_i keyed at most
    that value.

    Identity rows in index order are canonical RREF, so no elimination runs,
    and the members grow with the bound, so no containment test runs.
    """
    n = len(keys)
    unit = identity(n)
    members = tuple(
        RatSubspace._from_rref(n, tuple(unit[i] for i, k in enumerate(keys) if k <= bound))
        for bound in sorted(set(keys))[:-1]
    )
    return Flag._from_nested(n, members)


def random_flag(ft: FlagType, rng: random.Random) -> Flag:
    """Random flag of the given type: the image of the coordinate flag under
    a random invertible integer matrix g.  The image of the span of
    e_1..e_d is the span of the first d columns of g, so each member is
    reduced straight from its column prefix."""
    cols = tuple(zip(*random_invertible_ints(ft.ambient, rng)))
    return Flag._from_nested(
        ft.ambient, tuple(RatSubspace.span(ft.ambient, cols[:d]) for d in ft.dims)
    )


def dual_type(ft: FlagType) -> FlagType:
    return FlagType(ft.ambient, tuple(ft.ambient - d for d in reversed(ft.dims)))


def duality(flag: Flag) -> Flag:
    """Member-reversing annihilator map; an involution in coordinates."""
    return flag.dual()


@dataclass(frozen=True)
class PicardPullback:
    """Matrix of a pullback on Picard groups in the preferred generators.

    Row j expresses the pullback of the j-th target generator as a
    nonnegative integer combination of the source generators.
    """

    source_rank: int
    target_rank: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.matrix) != self.target_rank:
            raise DomainError("pullback matrix has wrong number of rows")
        for row in self.matrix:
            if len(row) != self.source_rank:
                raise DomainError("pullback matrix has wrong number of columns")
            if any(x < 0 for x in row):
                raise DomainError("pullback entries must be nonnegative")

    def to_json_obj(self) -> dict:
        return {
            "source_rank": self.source_rank,
            "target_rank": self.target_rank,
            "matrix": [list(r) for r in self.matrix],
        }


def is_linear(pullback: PicardPullback) -> bool:
    """Every target generator pulls back to zero or a single source generator."""
    for row in pullback.matrix:
        nonzero = [x for x in row if x != 0]
        if nonzero and nonzero != [1]:
            return False
    return True


@dataclass(frozen=True)
class StandardExtensionData:
    """Witness (eps, Z-chain, kappa, dualized) for a standard extension.

    `epsilon` is the matrix of an injective map from the source space into
    the target space (columns act on source coordinates), `z_chain` lists
    Z_1 <= ... <= Z_l in the target, `kappa` is the nondecreasing member
    map with values in 0..k+1, and `dualized` composes the evaluation with
    the duality map.  `source_dims` fixes k and the source member
    dimensions, which the other fields do not determine.
    """

    source_type: FlagType
    epsilon: Matrix
    z_chain: tuple[RatSubspace, ...]
    kappa: tuple[int, ...]
    dualized: bool = False

    def __post_init__(self) -> None:
        m = self.source_type.ambient
        k = self.source_type.length
        if any(len(row) != m for row in self.epsilon):
            raise DomainError("epsilon must have one column per source coordinate")
        nw = len(self.epsilon)
        if matrix_rank(self.epsilon, m) != m:
            raise DomainError("epsilon must be injective")
        if len(self.kappa) != len(self.z_chain):
            raise DomainError("kappa and z_chain must have equal length")
        prev = None
        for z in self.z_chain:
            if z.ambient != nw:
                raise DomainError("z_chain member has wrong ambient dimension")
            if prev is not None and not prev <= z:
                raise DomainError("z_chain must be nested")
            prev = z
        image = self.image_of_epsilon()
        if self.z_chain and (image & self.z_chain[-1]).dim != 0:
            raise DomainError("z_chain must meet the image of epsilon trivially")
        prev_v = 0
        for v in self.kappa:
            if not 0 <= v <= k + 1:
                raise DomainError(f"kappa value {v} out of range 0..{k + 1}")
            if v < prev_v:
                raise DomainError("kappa must be nondecreasing")
            prev_v = v
        attained = set(self.kappa)
        if not set(range(1, k + 1)) <= attained:
            raise DomainError("kappa must attain every source member index")
        pairs = list(zip(self.kappa, self.z_chain))
        if len(set(pairs)) != len(pairs):
            raise DomainError("(kappa, Z) pairs must be pairwise distinct")
        for v, z in pairs:
            if v == 0 and z.dim == 0:
                raise DomainError("member (0, 0) would be the zero subspace")
            if v == k + 1 and m + z.dim >= nw:
                raise DomainError("member (k+1, Z) would be the whole space")

    @property
    def target_ambient(self) -> int:
        return len(self.epsilon)

    def image_of_epsilon(self) -> RatSubspace:
        cols = tuple(zip(*self.epsilon))
        return RatSubspace.span(self.target_ambient, cols)

    def full_complement(self) -> RatSubspace:
        """Deterministic complement Z of the image containing the chain."""
        base = self.z_chain[-1] if self.z_chain else RatSubspace.zero(self.target_ambient)
        spanned = self.image_of_epsilon() + base
        return base + spanned.coordinate_complement()

    @property
    def strict_target_type(self) -> FlagType:
        m = self.source_type.ambient
        ext = (0, *self.source_type.dims, m)
        dims = tuple(ext[v] + z.dim for v, z in zip(self.kappa, self.z_chain))
        return FlagType(self.target_ambient, dims)

    @property
    def target_type(self) -> FlagType:
        strict = self.strict_target_type
        return dual_type(strict) if self.dualized else strict

    def strict_eval(self, flag: Flag) -> Flag:
        if flag_type_of(flag) != self.source_type:
            raise DomainError("flag does not match the source type")
        # kappa is nondecreasing and the Z_j are nested (both validated), so
        # the members eps(F_kappa(j)) + Z_j are nested too.
        members = tuple(
            flag.member(v).apply(self.epsilon) + z for v, z in zip(self.kappa, self.z_chain)
        )
        return Flag._from_nested(self.target_ambient, members)

    def evaluate(self, flag: Flag) -> Flag:
        out = self.strict_eval(flag)
        return duality(out) if self.dualized else out

    def to_json_obj(self) -> dict:
        return {
            "source_dims": list(self.source_type.dims),
            "source_ambient": self.source_type.ambient,
            "epsilon": [[str(x) for x in row] for row in self.epsilon],
            "z_chain": [z.to_json_obj() for z in self.z_chain],
            "kappa": list(self.kappa),
            "dualized": self.dualized,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StandardExtensionData":
        try:
            source = FlagType(
                strict_int(obj["source_ambient"], "source_ambient"),
                tuple(strict_int(d, "a source dimension") for d in obj["source_dims"]),
            )
            epsilon = as_matrix(obj["epsilon"])
            nw = len(epsilon)
            chain = tuple(RatSubspace.from_json_obj(nw, z) for z in obj["z_chain"])
            kappa = tuple(strict_int(v, "a kappa value") for v in obj["kappa"])
            dualized = bool(obj.get("dualized", False))
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad standard-extension document: {exc}") from exc
        return cls(source, epsilon, chain, kappa, dualized)


def identity_extension(ft: FlagType) -> StandardExtensionData:
    zero = RatSubspace.zero(ft.ambient)
    return StandardExtensionData(
        source_type=ft,
        epsilon=identity(ft.ambient),
        z_chain=(zero,) * ft.length,
        kappa=tuple(range(1, ft.length + 1)),
    )


def se_eval(se: StandardExtensionData, flag: Flag) -> Flag:
    return se.evaluate(flag)


def _dual_conjugate(s: StandardExtensionData) -> StandardExtensionData:
    """Data of duality . s . duality, again a strict standard extension.

    Writing W = V' + Z with V' the image of eps, the conjugated map uses
    eps~(f) = the functional vanishing on Z and equal to f . eps^{-1} on
    V', the chain Z~_j = annihilator(V' + Z_{l+1-j}), and the reflected
    index map kappa~(j) = k + 1 - kappa(l + 1 - j).
    """
    if s.dualized:
        raise DomainError("conjugation expects strict data")
    m = s.source_type.ambient
    k = s.source_type.length
    ell = len(s.kappa)
    nw = s.target_ambient
    image = s.image_of_epsilon()
    z_full = s.full_complement()
    # Solve w . epsilon = e_i, w . z = 0 for each source coordinate.
    eq_rows = tuple(zip(*s.epsilon)) + z_full.rows  # m + (nw - m) equations in w
    cols = []
    for i in range(m):
        rhs = tuple(
            Fraction(1 if j == i else 0) for j in range(m)
        ) + (Fraction(0),) * z_full.dim
        cols.append(solve_unique(eq_rows, rhs))
    eps_tilde = tuple(tuple(col[r] for col in cols) for r in range(nw))
    kappa_t = tuple(k + 1 - s.kappa[ell - j] for j in range(1, ell + 1))
    chain_t = tuple(
        (image + s.z_chain[ell - j]).annihilator() for j in range(1, ell + 1)
    )
    return StandardExtensionData(
        source_type=dual_type(s.source_type),
        epsilon=eps_tilde,
        z_chain=chain_t,
        kappa=kappa_t,
    )


def _strict_compose(a: StandardExtensionData, b: StandardExtensionData) -> StandardExtensionData:
    """Strict composition b . a of strict data."""
    ka = a.source_type.length
    la = len(a.kappa)
    za_full = a.full_complement()

    def kappa_a_ext(v: int) -> int:
        if v == 0:
            return 0
        if v == la + 1:
            return ka + 1
        return a.kappa[v - 1]

    def z_a_ext(v: int) -> RatSubspace:
        if v == 0:
            return RatSubspace.zero(a.target_ambient)
        if v == la + 1:
            return za_full
        return a.z_chain[v - 1]

    epsilon = matmul(b.epsilon, a.epsilon)
    kappa = tuple(kappa_a_ext(v) for v in b.kappa)
    chain = tuple(
        z_a_ext(v).apply(b.epsilon) + z for v, z in zip(b.kappa, b.z_chain)
    )
    return StandardExtensionData(a.source_type, epsilon, chain, kappa)


def se_compose(a: StandardExtensionData, b: StandardExtensionData) -> StandardExtensionData:
    """Data evaluating to se_eval(b) . se_eval(a)."""
    if a.target_type != b.source_type:
        raise DomainError("target type of the first map must equal the source type of the second")
    if not a.dualized and not b.dualized:
        return _strict_compose(a, b)
    if not a.dualized and b.dualized:
        return replace(_strict_compose(a, replace(b, dualized=False)), dualized=True)
    a_strict = replace(a, dualized=False)
    conj_b = _dual_conjugate(replace(b, dualized=False))
    composed = _strict_compose(a_strict, conj_b)
    return replace(composed, dualized=not b.dualized)


def sample_images(
    evaluate: Callable[[Flag], Flag], source_type: FlagType, seed: int = 0
) -> Iterator[Flag]:
    """Deterministic unbounded stream of image flags: the coordinate flag
    first, then images of seeded random flags."""
    rng = random.Random(f"diagflag-sample-{seed}")
    yield evaluate(coordinate_flag(source_type))
    while True:
        yield evaluate(random_flag(source_type, rng))


def support_and_constants(
    images: Iterable[Flag], window: int = 25, max_samples: int = 500
) -> tuple[tuple[RatSubspace, ...], tuple[int, ...]]:
    """Memberwise intersection over sampled image flags, plus its support.

    Intersects until the chain is unchanged for `window` consecutive new
    samples.  Returns the chain of constant spaces and the 1-based indices
    where the constant space is strictly smaller than the member, i.e.
    where the member genuinely varies.
    """
    if window < 1:
        raise DomainError(f"the stability window must be at least 1, got {window}")
    it = iter(images)
    try:
        first = next(it)
    except StopIteration:
        raise DomainError("empty sample") from None
    target_dims = first.dims
    current = list(first.chain)
    stable = 0
    seen = 1
    while stable < window:
        try:
            flag = next(it)
        except StopIteration:
            raise DomainError("sample exhausted before the intersection stabilized") from None
        seen += 1
        if seen > max_samples:
            raise InternalCheckError("constant-space sampling failed to stabilize")
        if flag.dims != target_dims:
            raise DomainError("sampled images have inconsistent flag types")
        updated = [c & s for c, s in zip(current, flag.chain)]
        if updated == current:
            stable += 1
        else:
            current = updated
            stable = 0
    support = tuple(
        j + 1 for j, (c, q) in enumerate(zip(current, target_dims)) if c.dim < q
    )
    return tuple(current), support


@dataclass(frozen=True)
class Classification:
    """Result of the standard-extension recognition search."""

    kind: str  # "strict_se" | "se_via_dual" | "not_se"
    data: StandardExtensionData | None

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "data": None if self.data is None else self.data.to_json_obj(),
        }


def _kappa_candidates(
    source_type: FlagType,
    target_dims: tuple[int, ...],
    constants: tuple[RatSubspace, ...],
    support: tuple[int, ...],
) -> list[tuple[int, ...]]:
    """Index maps consistent with the sampled constants.

    On support positions the member dimension q_j - dim C_j identifies the
    source member uniquely; constant positions must form a prefix mapped
    to 0 and a suffix mapped to k+1.  Sources of length zero admit several
    splits, all of which are returned.
    """
    m = source_type.ambient
    k = source_type.length
    ell = len(target_dims)
    dim_to_index = {0: 0, m: k + 1}
    for i, d in enumerate(source_type.dims, start=1):
        dim_to_index[d] = i
    support_set = set(support)
    if k == 0:
        # Every position is constant; any nondecreasing 0/k+1 split works.
        out = []
        for split in range(ell + 1):
            out.append(tuple(0 if j <= split else k + 1 for j in range(1, ell + 1)))
        return out
    kappa = [0] * ell
    if support:
        lo, hi = min(support), max(support)
        if any(j not in support_set for j in range(lo, hi + 1)):
            return []  # constant positions inside the support interval
    else:
        return []  # k >= 1 needs every member index attained
    for j in range(1, ell + 1):
        if j in support_set:
            diff = target_dims[j - 1] - constants[j - 1].dim
            idx = dim_to_index.get(diff)
            if idx is None or not 1 <= idx <= k:
                return []
            kappa[j - 1] = idx
        elif j < lo:
            kappa[j - 1] = 0
        else:
            kappa[j - 1] = k + 1
    values = [kappa[j - 1] for j in sorted(support)]
    if values != sorted(values) or set(range(1, k + 1)) - set(values):
        return []
    return [tuple(kappa)]


def _epsilon_solution_space(
    samples: Sequence[tuple[Flag, Flag]],
    source_type: FlagType,
    kappa: tuple[int, ...],
    nw: int,
    stable_samples: int = 3,
) -> Matrix:
    """Nullspace basis for the linear constraints eps(F_kappa(j)) <= image_j.

    Constraint rows are folded into an incrementally maintained echelon
    basis; sampling stops once a few consecutive flags add no new rank.
    """
    m = source_type.ambient
    width = nw * m
    echelon: list[list[Fraction]] = []
    piv: list[int] = []

    def insert(row: list[Fraction]) -> None:
        for br, bp in zip(echelon, piv):
            c = row[bp]
            if c:
                for i in range(bp, width):
                    bv = br[i]
                    if bv:
                        row[i] -= c * bv
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            return
        inv = row[lead]
        row = [x / inv for x in row]
        pos = bisect.bisect_left(piv, lead)
        echelon.insert(pos, row)
        piv.insert(pos, lead)

    stable = 0
    for flag, image in samples:
        before = len(echelon)
        for j, v in enumerate(kappa, start=1):
            if v == 0:
                continue
            member = flag.member(v)
            ann = image.chain[j - 1].annihilator().rows
            for src in member.rows:
                for u in ann:
                    row = [Fraction(0)] * width
                    for r in range(nw):
                        ur = u[r]
                        if ur:
                            base = r * m
                            for c in range(m):
                                sc = src[c]
                                if sc:
                                    row[base + c] = ur * sc
                    insert(row)
        if len(echelon) == width:
            return ()
        if len(echelon) == before:
            stable += 1
            if stable >= stable_samples:
                break
        else:
            stable = 0
    return nullspace([tuple(r) for r in echelon], width)


def _epsilon_candidates(basis: Matrix, nw: int, m: int, seed: int) -> Iterator[Matrix]:
    """Deterministic stream of candidate eps matrices from a nullspace basis:
    single basis vectors, signed pairs, then seeded random combinations."""

    def unflatten(vec: Sequence[Fraction]) -> Matrix:
        return tuple(tuple(vec[r * m + c] for c in range(m)) for r in range(nw))

    for v in basis:
        yield unflatten(v)
    for (i, vi), (j, vj) in itertools.combinations(enumerate(basis), 2):
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


def _build_z_chain(
    kappa: tuple[int, ...],
    constants: tuple[RatSubspace, ...],
    image: RatSubspace,
    k: int,
) -> tuple[RatSubspace, ...] | None:
    """Chain from constants: C_j itself except on the k+1 suffix, where Z_j
    is a deterministic complement of the image inside C_j."""
    chain: list[RatSubspace] = []
    prev = RatSubspace.zero(image.ambient)
    for v, c in zip(kappa, constants):
        if v <= k:
            z = c
        else:
            if not (image <= c) or not (prev <= c):
                return None
            z = prev + (image + prev).coordinate_complement(within=c)
        if not prev <= z:
            return None
        chain.append(z)
        prev = z
    return tuple(chain)


def _verify_witness(
    data: StandardExtensionData,
    evaluate: Callable[[Flag], Flag],
    samples: Sequence[tuple[Flag, Flag]],
    source_type: FlagType,
    seed: int,
    extra: int = 20,
) -> bool:
    for flag, image in samples:
        if data.evaluate(flag) != image:
            return False
    rng = random.Random(f"diagflag-verify-{seed}")
    for _ in range(extra):
        flag = random_flag(source_type, rng)
        if data.evaluate(flag) != evaluate(flag):
            return False
    return True


def _recover_strict(
    evaluate: Callable[[Flag], Flag],
    source_type: FlagType,
    seed: int,
    window: int,
) -> StandardExtensionData | None:
    m = source_type.ambient
    k = source_type.length
    samples: list[tuple[Flag, Flag]] = []

    def image_stream() -> Iterator[Flag]:
        rng = random.Random(f"diagflag-classify-{seed}")
        flag = coordinate_flag(source_type)
        while True:
            image = evaluate(flag)
            samples.append((flag, image))
            yield image
            flag = random_flag(source_type, rng)

    try:
        constants, support = support_and_constants(image_stream(), window=window)
    except DomainError:
        return None
    if not samples:
        return None
    target_dims = samples[0][1].dims
    nw = samples[0][1].ambient
    if len(target_dims) == 0:
        # Point target: witnessed by any injective eps, provided the source
        # is a point too (kappa must attain every member index).
        if m > nw or k > 0:
            return None
        eps = tuple(identity(nw)[r][:m] for r in range(nw))
        return StandardExtensionData(source_type, eps, (), ())
    for kappa in _kappa_candidates(source_type, target_dims, constants, support):
        basis = _epsilon_solution_space(samples, source_type, kappa, nw)
        if not basis:
            continue
        z_last_support = constants[max(support) - 1] if support else None
        for eps in _epsilon_candidates(basis, nw, m, seed):
            if matrix_rank(eps, m) != m:
                continue
            cols = tuple(zip(*eps))
            image = RatSubspace.span(nw, cols)
            if z_last_support is not None and (image & z_last_support).dim != 0:
                continue
            chain = _build_z_chain(kappa, constants, image, k)
            if chain is None:
                continue
            try:
                data = StandardExtensionData(source_type, eps, chain, kappa)
            except DomainError:
                continue
            if _verify_witness(data, evaluate, samples, source_type, seed):
                return data
    return None


def classify_bruteforce(
    evaluate: Callable[[Flag], Flag],
    source_type: FlagType,
    seed: int = 0,
    window: int = 12,
    scale_limit: int = CLASSIFY_SCALE_LIMIT,
) -> Classification:
    """Decide whether an evaluable embedding is a standard extension.

    The search recovers the candidate Z-chain from sampled constant
    spaces, the index map from dimension bookkeeping, and eps from an
    exact linear system; a witness is accepted only after re-evaluation
    agrees with the embedding on every collected and freshly drawn sample.
    The first witness in this documented search order is returned.  When
    the strict search fails, the embedding composed with duality is
    searched the same way.  Target dimension is capped at `scale_limit`.
    """
    probe = evaluate(coordinate_flag(source_type))
    if probe.ambient > scale_limit:
        raise ScaleError(
            f"classification is limited to target dimension {scale_limit}; got {probe.ambient}"
        )
    strict = _recover_strict(evaluate, source_type, seed, window)
    if strict is not None:
        return Classification("strict_se", strict)

    def dual_evaluate(flag: Flag) -> Flag:
        return duality(evaluate(flag))

    via_dual = _recover_strict(dual_evaluate, source_type, seed + 1, window)
    if via_dual is not None:
        return Classification("se_via_dual", replace(via_dual, dualized=True))
    return Classification("not_se", None)
