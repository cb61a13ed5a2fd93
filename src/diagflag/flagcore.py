"""Flag types, standard-extension data, Picard pullbacks, and a classifier.

A standard extension sends a flag {V_1, ..., V_k} to the flag with members
eps(V_kappa(j)) + Z_j, for an injective linear map eps, a nested chain of
subspaces Z_1 <= ... <= Z_l living in a complement of the image of eps,
and a nondecreasing index map kappa (with the conventions V_0 = 0 and
V_{k+1} = V); optionally the result is composed with the duality map that
replaces each member by the annihilator of its mirror.  This module
evaluates and composes such data, computes constant spaces of arbitrary
evaluable embeddings by stabilized sampling, and recognizes standard
extensions at small scale by exhaustive recovery of a witness: the
generic brute force for any evaluate callable.  `diagembed.classify`
classifies a graph embedding from its graph in closed form, with no
search; the tests compare it with this one.

eps is stored as integer rows over one denominator, like the bases of
`RatSubspace`: evaluation, composition, the duality conjugation and the
classifier's candidate search run on integers, and `Fraction`s appear only
in the `epsilon` view.  Strict evaluation maps the distinct members kappa
picks, which are nested, by one `_nested_images` pass of `ratlin`.  Data
is checked once, at the boundary: the constructor trusts its arguments, as
the composition, the duality conjugation and the point-target witness
build valid data by their formulas, and `check()` runs on data from
outside (`from_epsilon`, `from_json_obj`) and on the classifier's guessed
eps candidates.
`level_flag` and `level_dims` are the one home of the coordinate flag of
ordered keys.

All constant-space sampling, `support_and_constants` and both classifier
passes, settles after one window: `SAMPLE_WINDOW` consecutive samples that
change no member.  Both classifier passes run one routine; the duality
pass differs only in its seed, its merge (running sums of the embedding's
own image members, see `_recover_strict`) and its witness's `dualized`.
Each candidate witness is built in its final form, so the witness
returned is the object verified.  A `Classification` stores only its
witness; its kind is read off it.

A classifier pass ends early once it can have no index map.  The deficit
of member j is |dim C_j - q_j|, for C_j its running intersection (or sum)
and q_j the first image's dimension.  Lemma: no deficit ever decreases.
Proof: an intersection only shrinks and a sum only grows.  An index map
for a source of length k >= 1 reads each nonzero settled deficit as a
source member dimension (the dual pass's deficits are its constants' at
mirrored positions), so a deficit above d_k rules every one out.

The brute force's sample flags, and the flags that verify a witness,
depend only on the source type and the seed, so two bounded memos keep
them per process (see `classify_bruteforce`); every embedding-specific
step runs per call.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import threading
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .errors import (
    DomainError,
    InternalCheckError,
    Record,
    ScaleError,
    reading,
    strict_bool,
    strict_int,
    strict_list,
)
from .ratlin import (
    Flag,
    IntRows,
    Matrix,
    RatSubspace,
    _integer_columns,
    _kernel_basis,
    _nested_images,
    _new_images,
    _reduce,
    as_matrix,
    integer_matrix,
    random_entries,
)

CLASSIFY_SCALE_LIMIT = 6
# Sampled constant spaces, the classifier's and `support_and_constants`',
# are final once this many samples change no member.
SAMPLE_WINDOW = 12
# Constant-space sampling gives up after this many image flags.
SAMPLE_LIMIT = 500
# The eps constraints are complete once this many samples add no rank.
STABLE_SAMPLES = 3
# Random flags, kept per (source type, seed), a witness must also map right.
VERIFY_SAMPLES = 20
# The classifier's sampling streams kept in memory, and its sets of
# verification flags: every source type of ambient at most
# CLASSIFY_SCALE_LIMIT (one per subset of the possible member
# dimensions), at the strict pass's seed and the dual pass's.
_SAMPLE_STREAMS = 2 * (2**CLASSIFY_SCALE_LIMIT - 1)
# Serializes the draws: a draw appends to a stream that every caller
# in the process reads.
_SAMPLE_LOCK = threading.Lock()


class FlagType(Record):
    """Ambient dimension and the strictly increasing member dimensions."""

    ambient: int
    dims: tuple[int, ...]

    def __init__(self, ambient: int, dims: tuple[int, ...]) -> None:
        # Spelled out, not the generic Record constructor: flag types are
        # built for every restriction and every exhaustion step.
        if ambient < 1:
            raise DomainError("ambient dimension must be positive")
        prev = 0
        for d in dims:
            if not prev < d < ambient:
                raise DomainError(
                    f"member dimensions must satisfy 0 < d_1 < ... < d_k < {ambient}; got {dims}"
                )
            prev = d
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "dims", dims)

    @property
    def length(self) -> int:
        return len(self.dims)

    def to_json_obj(self) -> dict:
        return {"ambient": self.ambient, "dims": list(self.dims)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FlagType":
        with reading("flag-type"):
            return cls(
                strict_int(obj["ambient"], "ambient"),
                tuple(strict_int(d, "a member dimension") for d in strict_list(obj["dims"], "dims")),
            )


def check_flag_type(flag: Flag, ft: FlagType) -> None:
    """DomainError unless `flag` has type `ft`, compared field by field."""
    if flag.ambient != ft.ambient or flag.dims != ft.dims:
        refuse_mismatched_flag(flag.ambient)


def refuse_mismatched_flag(ambient: int) -> NoReturn:
    """The DomainError for a flag in Q^ambient of the wrong type; an ambient
    no flag type allows is reported as such."""
    FlagType(ambient, ())
    raise DomainError("flag does not match the source type")


def coordinate_flag(ft: FlagType) -> Flag:
    return Flag._from_nested(
        ft.ambient, tuple(RatSubspace.coordinate(ft.ambient, d) for d in ft.dims)
    )


def level_flag(keys: Sequence) -> Flag:
    """The coordinate flag of totally ordered keys on the basis vectors: one
    member per key value but the largest, spanned by the e_i keyed at most
    that value.

    The indices are sorted by key once, and a running mask gathers them in
    that order; where the key value changes, the member is the cached
    `RatSubspace.basis_span` of the mask so far, so no row is built and no
    elimination or containment test runs.  The largest value gives none.
    """
    n = len(keys)
    order = sorted(range(n), key=keys.__getitem__)
    members = []
    mask = 0
    for i, j in zip(order, order[1:]):
        mask |= 1 << i
        if keys[i] != keys[j]:
            members.append(RatSubspace.basis_span(n, mask))
    return Flag._from_nested(n, tuple(members))


def level_dims(keys: Sequence) -> tuple[int, ...]:
    """The member dimensions of `level_flag(keys)`: for each key value but the
    largest, the number of keys at most it, where the sorted keys step up."""
    ordered = sorted(keys)
    return tuple(i for i in range(1, len(ordered)) if ordered[i - 1] != ordered[i])


def random_flag(ft: FlagType, rng: random.Random) -> Flag:
    """Random flag of the given type: the image of the coordinate flag under
    a random invertible integer matrix g, drawn as `random_invertible_ints`
    draws it.  The image of the span of e_1..e_d is the span of the first d
    columns of g, so each member is reduced from the rows of the one before
    and its new columns, and a g whose columns lose rank is drawn again.
    The invertibility test reduces only what the last member leaves of the
    remaining columns (all of them for a type with no member): the
    residues vanish at its pivots, so their span meets it trivially, and g
    has rank n exactly when they have rank n - d_k."""
    n = ft.ambient
    while True:
        entries = random_entries(n * n, rng)
        members = []
        sub = RatSubspace.zero(n)
        done = 0
        for d in ft.dims:
            sub = RatSubspace.span_ints(n, sub.int_rows + tuple(entries[j::n] for j in range(done, d)))
            if sub.dim < d:
                break
            members.append(sub)
            done = d
        else:
            rest = sub.residues(entries[j::n] for j in range(done, n))
            if len(_reduce(rest, n)) == n - done:
                return Flag._from_nested(n, tuple(members))


def dual_type(ft: FlagType) -> FlagType:
    return FlagType(ft.ambient, tuple(ft.ambient - d for d in reversed(ft.dims)))


def duality(flag: Flag) -> Flag:
    """Member-reversing annihilator map; an involution in coordinates."""
    return flag.dual()


class PicardPullback(Record):
    """Matrix of a pullback on Picard groups in the preferred generators.

    Row j expresses the pullback of the j-th target generator as a
    nonnegative integer combination of the source generators.  Only
    `diagembed.graph_pullback` builds one, by counting, so none is checked.
    """

    source_rank: int
    matrix: tuple[tuple[int, ...], ...]

    @property
    def target_rank(self) -> int:
        return len(self.matrix)

    def to_json_obj(self) -> dict:
        return {
            "source_rank": self.source_rank,
            "target_rank": self.target_rank,
            "matrix": [list(r) for r in self.matrix],
        }


class StandardExtensionData(Record):
    """Witness (eps, Z-chain, kappa, dualized) for a standard extension.

    eps is the matrix of an injective map from the source space into the
    target space (columns act on source coordinates), stored once, as
    `int_epsilon` over the positive `denominator` in lowest terms, so that
    `==` and hashing are equality of the rational matrix; `epsilon` is the
    derived `Fraction` view.  `z_chain` lists Z_1 <= ... <= Z_l in the
    target, `kappa` is the nondecreasing member map with values in 0..k+1,
    and `dualized` composes the evaluation with the duality map.
    `source_type` fixes k and the source member dimensions, which the other
    fields do not determine.

    The constructor trusts its arguments and only restores lowest terms:
    the builders here and in `indlimit` produce valid data by their
    formulas.  `check()` is the one validation; `from_epsilon` (and
    `from_json_obj` through it) runs it on data from outside.
    """

    source_type: FlagType
    int_epsilon: IntRows
    denominator: int
    z_chain: tuple[RatSubspace, ...]
    kappa: tuple[int, ...]
    dualized: bool = False

    def __init__(
        self,
        source_type: FlagType,
        int_epsilon: IntRows,
        denominator: int,
        z_chain: tuple[RatSubspace, ...],
        kappa: tuple[int, ...],
        dualized: bool = False,
    ) -> None:
        # Spelled out, not the generic Record constructor: every composition
        # and exhaustion step builds one.
        g = gcd(denominator, *(x for row in int_epsilon for x in row)) if denominator > 1 else 1
        if g > 1:
            int_epsilon = tuple(tuple(x // g for x in row) for row in int_epsilon)
            denominator //= g
        set_field = object.__setattr__
        set_field(self, "source_type", source_type)
        set_field(self, "int_epsilon", int_epsilon)
        set_field(self, "denominator", denominator)
        set_field(self, "z_chain", z_chain)
        set_field(self, "kappa", kappa)
        set_field(self, "dualized", dualized)

    @classmethod
    def from_epsilon(
        cls,
        source_type: FlagType,
        epsilon: Matrix,
        z_chain: tuple[RatSubspace, ...],
        kappa: tuple[int, ...],
        dualized: bool = False,
    ) -> "StandardExtensionData":
        """Data with eps given in exact rationals, checked."""
        m = source_type.ambient
        if any(len(row) != m for row in epsilon):
            raise DomainError("epsilon must have one column per source coordinate")
        rows, den = integer_matrix(epsilon, m)
        return cls(source_type, rows, den, z_chain, kappa, dualized).check()

    def check(self) -> "StandardExtensionData":
        """self, when every condition of the data holds; DomainError naming
        the first that fails otherwise."""
        m = self.source_type.ambient
        k = self.source_type.length
        nw = self.target_ambient
        if any(len(row) != m for row in self.int_epsilon):
            raise DomainError("epsilon must have one column per source coordinate")
        if self.denominator < 1:
            raise DomainError(f"the denominator of epsilon must be positive, got {self.denominator}")
        image = self.image_of_epsilon()
        if image.dim != m:
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
        return self

    @property
    def epsilon(self) -> Matrix:
        """eps in `Fraction`s."""
        den = self.denominator
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.int_epsilon)

    @property
    def target_ambient(self) -> int:
        return len(self.int_epsilon)

    def image_of_epsilon(self) -> RatSubspace:
        """The span of the columns; scaling eps does not move it."""
        return RatSubspace.span_ints(self.target_ambient, zip(*self.int_epsilon))

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
        check_flag_type(flag, self.source_type)
        # kappa is nondecreasing and the Z_j are nested (both validated), so
        # the members eps(F_kappa(j)) + Z_j are nested too.  The integer
        # rows of eps span the same images as eps.
        members = _extended(flag.member, self.int_epsilon, flag.ambient, self.kappa, self.z_chain)
        return Flag._from_nested(self.target_ambient, members)

    def evaluate(self, flag: Flag) -> Flag:
        out = self.strict_eval(flag)
        return duality(out) if self.dualized else out

    def to_json_obj(self) -> dict:
        return {
            "source_dims": list(self.source_type.dims),
            "source_ambient": self.source_type.ambient,
            # Over denominator 1, an entry's text is the integer's.
            "epsilon": [[str(x) for x in row] for row in (self.epsilon if self.denominator > 1 else self.int_epsilon)],
            "z_chain": [z.to_json_obj() for z in self.z_chain],
            "kappa": list(self.kappa),
            "dualized": self.dualized,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "StandardExtensionData":
        with reading("standard-extension"):
            source = FlagType(
                strict_int(obj["source_ambient"], "source_ambient"),
                tuple(strict_int(d, "a source dimension") for d in strict_list(obj["source_dims"], "source_dims")),
            )
            epsilon = as_matrix(strict_list(r, "an epsilon row") for r in strict_list(obj["epsilon"], "epsilon"))
            nw = len(epsilon)
            chain = tuple(RatSubspace.from_json_obj(nw, z) for z in strict_list(obj["z_chain"], "z_chain"))
            kappa = tuple(strict_int(v, "a kappa value") for v in strict_list(obj["kappa"], "kappa"))
            dualized = strict_bool(obj.get("dualized", False), "dualized")
        return cls.from_epsilon(source, epsilon, chain, kappa, dualized)


def _extended(
    member: Callable[[int], RatSubspace],
    eps: IntRows,
    width: int,
    kappa: tuple[int, ...],
    z_chain: tuple[RatSubspace, ...],
) -> tuple[RatSubspace, ...]:
    """The members eps(member(kappa(j))) + Z_j, for eps with `width`
    columns.  kappa is nondecreasing and the members nested, so the
    distinct members it picks form a chain, mapped by one `_nested_images`
    pass."""
    picked = dict.fromkeys(kappa)
    images = dict(zip(picked, _nested_images([member(v) for v in picked], _integer_columns(eps, width), len(eps))))
    return tuple(images[v] + z for v, z in zip(kappa, z_chain))


def se_eval(se: StandardExtensionData, flag: Flag) -> Flag:
    return se.evaluate(flag)


def _dual_conjugate(s: StandardExtensionData) -> StandardExtensionData:
    """Strict data of duality . strict(s) . duality; `s.dualized` is unread.

    Writing W = V' + Z with V' the image of eps, the conjugated map uses
    eps~(f) = the functional vanishing on Z and equal to f . eps^{-1} on
    V', the chain Z~_j = annihilator(V' + Z_{l+1-j}), and the reflected
    index map kappa~(j) = k + 1 - kappa(l + 1 - j).
    """
    m = s.source_type.ambient
    k = s.source_type.length
    ell = len(s.kappa)
    nw = s.target_ambient
    image = s.image_of_epsilon()
    # Column i of eps~ is the w with w . eps = e_i and w . Z = 0: one
    # elimination of the square, invertible system [eps^T | den I; Z | 0]
    # leaves row r as a_r e_r followed by a_r times row r of eps~.
    system = [
        col + tuple(s.denominator * (c == i) for c in range(m))
        for i, col in enumerate(zip(*s.int_epsilon))
    ]
    system += [z + (0,) * m for z in s.full_complement().int_rows]
    solved = RatSubspace.span_ints(nw + m, system).int_rows
    scale = lcm(*(row[r] for r, row in enumerate(solved)))
    eps_tilde = tuple(tuple(x * (scale // row[r]) for x in row[nw:]) for r, row in enumerate(solved))
    kappa_t = tuple(k + 1 - s.kappa[ell - j] for j in range(1, ell + 1))
    chain_t = tuple((image + s.z_chain[ell - j]).annihilator() for j in range(1, ell + 1))
    return StandardExtensionData(dual_type(s.source_type), eps_tilde, scale, chain_t, kappa_t)


def _strict_compose(
    a: StandardExtensionData, b: StandardExtensionData, dualized: bool
) -> StandardExtensionData:
    """The strict parts composed, b . a, with `dualized` set as given: eps is
    the integer product over the product of the denominators."""
    la = len(a.kappa)
    kappa_ext = (0, *a.kappa, a.source_type.length + 1)
    z_ext = (
        RatSubspace.zero(a.target_ambient),
        *a.z_chain,
        a.full_complement() if la + 1 in b.kappa else None,
    )
    cols = tuple(zip(*a.int_epsilon))
    product = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in b.int_epsilon
    )
    kappa = tuple(kappa_ext[v] for v in b.kappa)
    chain = _extended(z_ext.__getitem__, b.int_epsilon, a.target_ambient, b.kappa, b.z_chain)
    return StandardExtensionData(
        a.source_type, product, a.denominator * b.denominator, chain, kappa, dualized
    )


def se_compose(a: StandardExtensionData, b: StandardExtensionData) -> StandardExtensionData:
    """Data evaluating to se_eval(b) . se_eval(a).

    When a is dualized, strict(b) . duality = duality . conj(b), with
    conj(b) = duality . strict(b) . duality the strict data of
    `_dual_conjugate`, so the duality moves to the end."""
    if a.target_type != b.source_type:
        raise DomainError("target type of the first map must equal the source type of the second")
    if not a.dualized:
        return _strict_compose(a, b, b.dualized)
    return _strict_compose(a, _dual_conjugate(b), not b.dualized)


def _settle(
    images: Iterable[Flag],
    merge: Callable[[RatSubspace, RatSubspace], RatSubspace],
    bound: int | None = None,
) -> tuple[list[RatSubspace], tuple[int, ...]] | None:
    """The members of the first image, each folded with the same member of
    every next image by `merge`, until `SAMPLE_WINDOW` consecutive images
    change none of them; returned with the images' member dimensions.  None
    once a deficit |dim current_j - q_j| exceeds `bound`: it never
    decreases, as an intersection only shrinks and a sum only grows, so the
    settled members would exceed it too.  The test runs only when a member
    changes.
    """
    it = iter(images)
    try:
        first = next(it)
    except StopIteration:
        raise DomainError("empty sample") from None
    target_dims = first.dims
    current = list(first.chain)
    stable = 0
    seen = 1
    while stable < SAMPLE_WINDOW:
        try:
            flag = next(it)
        except StopIteration:
            raise DomainError("sample exhausted before the intersection stabilized") from None
        seen += 1
        if seen > SAMPLE_LIMIT:
            raise InternalCheckError("constant-space sampling failed to stabilize")
        if flag.dims != target_dims:
            raise DomainError("sampled images have inconsistent flag types")
        updated = [merge(c, s) for c, s in zip(current, flag.chain)]
        if updated == current:
            stable += 1
        else:
            current = updated
            stable = 0
            if bound is not None and any(abs(c.dim - q) > bound for c, q in zip(current, target_dims)):
                return None
    return current, target_dims


def _support(constants: Sequence[RatSubspace], target_dims: Sequence[int]) -> tuple[int, ...]:
    """The 1-based indices where the constant space is strictly smaller than
    the member."""
    return tuple(j + 1 for j, (c, q) in enumerate(zip(constants, target_dims)) if c.dim < q)


def support_and_constants(images: Iterable[Flag]) -> tuple[tuple[RatSubspace, ...], tuple[int, ...]]:
    """Memberwise intersection over sampled image flags, plus its support.

    Intersects until the chain is unchanged for `SAMPLE_WINDOW` consecutive
    new samples, the classifier's window.  Returns the chain of constant
    spaces and the 1-based indices where the constant space is strictly
    smaller than the member, i.e. where the member genuinely varies.
    """
    current, target_dims = _settle(images, RatSubspace.__and__)
    return tuple(current), _support(current, target_dims)


def _sum_into(total: RatSubspace, member: RatSubspace) -> RatSubspace:
    return total if member <= total else total + member


class Classification(Record):
    """Result of the standard-extension recognition search: the witness, or
    None when the embedding is not a standard extension."""

    data: StandardExtensionData | None

    @property
    def kind(self) -> str:
        """"not_se" without a witness, "se_via_dual" for a dualized one,
        "strict_se" otherwise."""
        if self.data is None:
            return "not_se"
        return "se_via_dual" if self.data.dualized else "strict_se"

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

    `support` is increasing.  On support positions the member dimension
    q_j - dim C_j identifies the source member uniquely; the support must
    be one run, with constant positions before it mapped to 0 and after it
    to k+1.  Sources of length zero admit several splits, all of which are
    returned.
    """
    k = source_type.length
    ell = len(target_dims)
    if k == 0:
        # Every position is constant; any nondecreasing 0/k+1 split works.
        return [(0,) * split + (1,) * (ell - split) for split in range(ell + 1)]
    if not support or support[-1] - support[0] + 1 != len(support):
        return []  # k >= 1 needs every member index attained, by one run
    index = {d: i for i, d in enumerate(source_type.dims, start=1)}
    values = tuple(index.get(target_dims[j - 1] - constants[j - 1].dim) for j in support)
    if None in values or list(values) != sorted(values) or set(values) != set(range(1, k + 1)):
        return []
    return [(0,) * (support[0] - 1) + values + (k + 1,) * (ell - support[-1])]


def _epsilon_solution_space(
    samples: Sequence[tuple[Flag, Flag]],
    source_type: FlagType,
    kappa: tuple[int, ...],
    nw: int,
    dualized: bool,
) -> tuple[RatSubspace, int]:
    """The solutions of the linear constraints eps(F_kappa(j)) <= image_j,
    eps flattened row by row, and the number of samples read; with
    `dualized`, image_j is member j of the dual of each sample's image.

    The constraints of each sample are spanned together with those before;
    sampling stops once a few consecutive flags add no new rank.  Only
    their span is read, so the rows u spanning annihilator(image_j) are
    the unreduced `_kernel_basis` of the member, or, dualized, the rows
    of original member l - 1 - j (0-based): no dual image is formed.

    Three shortcuts leave the span after every sample as it would be with
    every constraint, so the stopping sample and the solutions are the
    same.  Each kappa value is constrained at its first position only: the
    image members are nested, so the first is the smallest, its
    annihilator the largest, and its constraints span those of the later
    positions with the same source member.  A (source member, image
    member) block that an earlier sample already gave is skipped, as its
    rows are in the span already (keyed on the member read, which its
    annihilator determines).  Rows that lie in the span are dropped
    before the elimination, which then runs only when some row is new.

    Lemma: let eps be a solution whose strict witness, with the chain
    `_build_z_chain` makes from the constants C_j of these images (of the
    dual images, in the dual pass), passes `check()` and has the images'
    type.  Then it evaluates to the image of every sample read.  Proof:
    eps(F_kappa(j)) lies in image_j for every sample read, by its own
    constraint or, at a later position of its kappa value, by that of
    the smaller first image member (F_0 = 0 needs none).  Z_j is C_j, or
    lies in C_j on the k+1 suffix, and C_j, an intersection over every
    collected sample, lies in image_j.  So eps(F_kappa(j)) + Z_j lies in
    image_j.  `check()` makes eps injective and Z_j meet its image
    trivially, so the sum is direct, of dimension d_kappa(j) + dim Z_j:
    the witness's member dimension, which is dim image_j.  A subspace of
    image_j of its dimension is image_j.  So `_verify_witness` compares
    only the samples after these.
    """
    m = source_type.ambient
    width = nw * m
    last = len(kappa) - 1
    first = {v: kappa.index(v) for v in kappa if v}
    acc = RatSubspace.zero(width)
    spanned: set[tuple[IntRows, IntRows]] = set()
    stable = read = 0
    for flag, image in samples:
        read += 1
        rows = []
        for v, j in first.items():
            source, target = flag.member(v).int_rows, image.chain[last - j if dualized else j].int_rows
            if (source, target) in spanned:
                continue
            spanned.add((source, target))
            ann = target if dualized else _kernel_basis(target, nw)
            rows += [[x * y for x in u for y in src] for u in ann for src in source]
        new = tuple(acc.residues(rows))
        if not new:
            stable += 1
            if stable >= STABLE_SAMPLES:
                break
            continue
        acc = RatSubspace.span_ints(width, acc.int_rows + new)
        if acc.dim == width:
            return RatSubspace.zero(width), read
        stable = 0
    return acc.annihilator(), read


def _epsilon_candidates(
    solutions: RatSubspace, nw: int, m: int, seed: int
) -> Iterator[tuple[IntRows, int]]:
    """Deterministic stream of candidate eps matrices, each as integer rows
    over a denominator: the echelon basis vectors of the solution space,
    signed pairs of them, then seeded random combinations, each projective
    class (a matrix up to a nonzero factor) only the first time it comes.

    Each basis vector is its canonical integer row over its pivot; all are
    brought to the lcm of the pivots, so sums run on integers and every
    candidate of the stream has that one denominator.  The basis is
    independent, so two combinations are proportional exactly when their
    coefficient vectors are: a candidate is keyed by its coefficients over
    their content, signed so the first nonzero one is positive.  A repeat
    is dropped after its coefficients are drawn, so every later candidate
    is the one of the full stream.  A one-dimensional space has one class,
    so its stream ends after the basis vector.

    Lemma: whether `_recover_strict` accepts a candidate eps depends only
    on its class.  Proof: for c != 0, c.eps has the column image of eps,
    so the image test, the test against the last support constant and
    `_build_z_chain` (which read only the image) agree; every clause of
    `check()` reads eps through that image, its positive denominator or
    not at all; and `_verify_witness` tests images of rows under eps,
    which c.eps scales by c.  So the first accepted candidate of the full
    stream is the first of its class, and dropping repeats returns the
    same witness."""
    rows = solutions.int_rows
    leads = [next(x for x in r if x) for r in rows]
    den = lcm(*leads)
    basis = [[x * (den // a) for x in r] for r, a in zip(rows, leads)]
    d = len(basis)

    def coefficients() -> Iterator[list[int]]:
        for i in range(d):
            yield [int(t == i) for t in range(d)]
        for i, j in itertools.combinations(range(d), 2):
            for sign in (1, -1):
                yield [1 if t == i else sign if t == j else 0 for t in range(d)]
        if d == 1:
            return
        rng = random.Random(f"diagflag-epsilon-{seed}")
        for _ in range(60):
            yield [rng.randint(-3, 3) for _ in basis]

    seen = set()
    for coeffs in coefficients():
        g = gcd(*coeffs)
        if not g:
            continue
        if next(c for c in coeffs if c) < 0:
            g = -g
        key = tuple(c // g for c in coeffs)
        if key in seen:
            continue
        seen.add(key)
        terms = [(c, v) for c, v in zip(coeffs, basis) if c]
        vec = [sum(c * v[i] for c, v in terms) for i in range(nw * m)]
        yield tuple(tuple(vec[r * m : (r + 1) * m]) for r in range(nw)), den


def _build_z_chain(
    kappa: tuple[int, ...],
    constants: tuple[RatSubspace, ...],
    image: RatSubspace,
    k: int,
) -> tuple[RatSubspace, ...] | None:
    """Chain from constants: C_j itself except on the k+1 suffix, where Z_j
    is prev plus a deterministic complement of image + prev inside C_j.

    The constants are memberwise intersections of nested flags, so they
    and the chain are nested: only the image needs testing."""
    chain: list[RatSubspace] = []
    prev = RatSubspace.zero(image.ambient)
    for v, c in zip(kappa, constants):
        if v <= k:
            z = c
        elif image <= c:
            z = prev + (image + prev).coordinate_complement(within=c)
        else:
            return None
        chain.append(z)
        prev = z
    return tuple(chain)


def _containment_test(data: StandardExtensionData) -> Callable[[Flag, Flag], bool]:
    """Whether checked data evaluates a source flag to an image, decided
    without evaluating it.  An image not of the target type is refused.
    Proof of the rest: `check()` makes eps injective and each W_j =
    eps(F_kappa(j)) + Z_j a direct sum, of the type's dimension, which E_j
    has, so W_j <= E_j makes W_j = E_j.  Both chains are nested, so each
    row is tested once, at its first position: the rows of the picked F_v
    at pivots new to them, mapped through eps, at the first position of v,
    and those of Z_j new to the Z-chain, found once, at j.  Dualized data
    evaluates to the annihilators of the W_j mirrored, so the same rows
    must be orthogonal to E_{l-1-j} (0-based), of the same dimension."""
    target = data.target_type
    kappa, last, dualized = data.kappa, len(data.kappa) - 1, data.dualized
    first = {v: kappa.index(v) for v in kappa if v}
    z_rows = list(_new_images(data.z_chain, [[(j, 1)] for j in range(target.ambient)], target.ambient))
    eps = _integer_columns(data.int_epsilon, data.source_type.ambient)

    def maps(flag: Flag, image: Flag) -> bool:
        if image.ambient != target.ambient or image.dims != target.dims:
            return False
        rows = [list(z) for z in z_rows]
        picked = _new_images([flag.member(v) for v in first], eps, target.ambient)
        for j, new in zip(first.values(), picked):
            rows[j] += new
        for j, w in enumerate(rows):
            if not dualized:
                if not image.chain[j]._spans(w):
                    return False
            elif any(sum(map(operator.mul, u, x)) for u in image.chain[last - j].int_rows for x in w):
                return False
        return True

    return maps


def _verify_witness(
    data: StandardExtensionData,
    evaluate: Callable[[Flag], Flag],
    samples: Sequence[tuple[Flag, Flag]],
    solved: int,
    seed: int,
) -> bool:
    """Whether a checked witness maps every collected sample (flag,
    evaluate(flag)) and every flag of `_verify_flags` as `evaluate` does,
    by `_containment_test`.

    A witness of another target type than the images' maps no flag right,
    and is refused before `evaluate` runs; one of the images' type maps
    the first `solved` samples, those the eps solve read, right by the
    lemma of `_epsilon_solution_space`, so only the samples after them are
    compared."""
    first, target = samples[0][1], data.target_type
    if (target.ambient, target.dims) != (first.ambient, first.dims):
        return False
    maps = _containment_test(data)
    if not all(maps(flag, image) for flag, image in samples[solved:]):
        return False
    return all(maps(flag, evaluate(flag)) for flag in _verify_flags(data.source_type, seed))


# typed, here and below: the seeds 1 and True are equal keys but name
# different streams.
@functools.lru_cache(maxsize=_SAMPLE_STREAMS, typed=True)
def _verify_flags(source_type: FlagType, seed: int) -> tuple[Flag, ...]:
    """The `VERIFY_SAMPLES` flags that verify a witness at (source type,
    seed): the `random_flag` draws of `Random(f"diagflag-verify-{seed}")`."""
    rng = random.Random(f"diagflag-verify-{seed}")
    return tuple(random_flag(source_type, rng) for _ in range(VERIFY_SAMPLES))


@functools.lru_cache(maxsize=_SAMPLE_STREAMS, typed=True)
def _sample_stream(source_type: FlagType, seed: int) -> tuple[list[Flag], random.Random]:
    """The classifier's sampling stream for (source type, seed): the flags
    drawn so far, and the generator that draws the next."""
    return [], random.Random(f"diagflag-classify-{seed}")


def _sample_flags(source_type: FlagType, seed: int) -> Iterator[Flag]:
    """The `random_flag` draws of `Random(f"diagflag-classify-{seed}")`, in
    order, each drawn once while its stream is kept and then read from it.  A
    draw that raises restores the generator, so the stream stays as if that
    draw had never started."""
    drawn, rng = _sample_stream(source_type, seed)
    for i in itertools.count():
        if i == len(drawn):
            with _SAMPLE_LOCK:
                if i == len(drawn):
                    state = rng.getstate()
                    try:
                        drawn.append(random_flag(source_type, rng))
                    except BaseException:
                        rng.setstate(state)
                        raise
        yield drawn[i]


def _recover_strict(
    evaluate: Callable[[Flag], Flag],
    source_type: FlagType,
    seed: int,
    first: Flag,
    dualized: bool = False,
) -> StandardExtensionData | None:
    """A witness for `evaluate` with the given `dualized`, from samples of
    `evaluate` starting at `first`, the image of the coordinate flag.  Each
    candidate is built as the witness it would be and verified against
    `evaluate` itself.

    The strict pass intersects the images' members.  The dual pass keeps
    running sums instead: member j of a dual image is the annihilator of
    member l + 1 - j, and an intersection of annihilators is the
    annihilator of the sum, which changes exactly when the sum does.  So
    the annihilators of the settled sums, reversed, are the dual images'
    constants, and sum j carries the deficit of dual member l + 1 - j.
    No dual image is formed: the eps solve reads the annihilator of dual
    member j, which is original member l + 1 - j, and the verification
    tests a dualized witness against the original images.  For k >= 1,
    None once a deficit exceeds d_k: `_kappa_candidates` reads each
    nonzero deficit as a source member dimension, and deficits never
    decrease (see `_settle`).  The search then tries each kappa of
    `_kappa_candidates` and each eps of `_epsilon_candidates` in order, and
    returns the first candidate that passes `check()` and
    `_verify_witness`.  Acceptance depends only on a candidate's class, so
    one per class is tried."""
    bound = source_type.dims[-1] if source_type.length else None
    samples: list[tuple[Flag, Flag]] = []

    def image_stream() -> Iterator[Flag]:
        flags = _sample_flags(source_type, seed)
        flag, image = coordinate_flag(source_type), first
        while True:
            samples.append((flag, image))
            yield image
            flag = next(flags)
            image = evaluate(flag)

    try:
        settled = _settle(image_stream(), _sum_into if dualized else RatSubspace.__and__, bound)
    except DomainError:
        return None
    if settled is None:
        return None
    constants, target_dims = settled
    if dualized:
        constants = [s.annihilator() for s in reversed(constants)]
        target_dims = tuple(c.ambient - d for c, d in zip(constants, reversed(target_dims)))
    nw, m, k = first.ambient, source_type.ambient, source_type.length
    if not target_dims:
        # Point target: witnessed by any injective eps, provided the source
        # is a point too (kappa must attain every member index).  The
        # strict pass decides a point target by the same test first, so
        # the dual pass never returns a witness here.
        if m > nw or k > 0:
            return None
        eps = tuple(tuple(int(r == c) for c in range(m)) for r in range(nw))
        return StandardExtensionData(source_type, eps, 1, (), (), dualized)
    support = _support(constants, target_dims)
    for kappa in _kappa_candidates(source_type, target_dims, constants, support):
        solutions, solved = _epsilon_solution_space(samples, source_type, kappa, nw, dualized)
        if not solutions.dim:
            continue
        z_last_support = constants[support[-1] - 1] if support else None
        for eps, den in _epsilon_candidates(solutions, nw, m, seed):
            image = RatSubspace.span_ints(nw, zip(*eps))
            if image.dim != m:
                continue
            # check() would reject these candidates as well (the criterion-05
            # set classifies the same without this test), but one
            # intersection is cheaper than building the chain and checking
            # it, and on that set it rejects 6,302 candidates.
            if z_last_support is not None and (image & z_last_support).dim != 0:
                continue
            chain = _build_z_chain(kappa, constants, image, k)
            if chain is None:
                continue
            try:
                data = StandardExtensionData(source_type, eps, den, chain, kappa, dualized).check()
            except DomainError:
                continue
            if _verify_witness(data, evaluate, samples, solved, seed):
                return data
    return None


def classify_bruteforce(
    evaluate: Callable[[Flag], Flag],
    source_type: FlagType,
    seed: int = 0,
) -> Classification:
    """Decide whether an evaluable embedding is a standard extension.

    The search recovers the candidate Z-chain from sampled constant
    spaces, the index map from dimension bookkeeping, and eps from an
    exact linear system; a witness is returned only after its own
    evaluation agrees with the embedding on every collected sample and
    every verification flag.  The first witness in this documented
    search order is returned: the strict pass at `seed`, then, when it
    finds none, the pass for duality . embedding at seed + 1.  Target
    dimension is capped at `CLASSIFY_SCALE_LIMIT`.

    A pass over a source of length k >= 1 ends with no witness once a
    constant's deficit |dim C_j - q_j| exceeds d_k; as no deficit
    decreases, the result is the one of sampling every window.  A pass
    tries each eps candidate once up to a nonzero factor; as scaling eps
    changes neither its image nor any evaluation, the witness is the one
    of trying every multiple.

    The sample flags of each pass are drawn once per process and kept, at
    most `_SAMPLE_STREAMS` streams with the least recently used dropped,
    so the result is the same whatever was classified before.  The
    `VERIFY_SAMPLES` flags that verify a witness (see `_verify_witness`)
    are kept the same way, per (source type, seed).
    """
    first = evaluate(coordinate_flag(source_type))
    if first.ambient > CLASSIFY_SCALE_LIMIT:
        raise ScaleError(f"classification is limited to target dimension {CLASSIFY_SCALE_LIMIT}; got {first.ambient}")
    strict = _recover_strict(evaluate, source_type, seed, first)
    if strict is not None:
        return Classification(strict)
    return Classification(_recover_strict(evaluate, source_type, seed + 1, first, dualized=True))
