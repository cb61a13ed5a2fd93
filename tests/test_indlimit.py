import functools
import hashlib
import itertools
import json
import math
import random

import pytest
from conftest import (
    MIXED_GRAPH,
    PRODUCT_LEVEL_GRAPH,
    insertion_graph,
    reference_greedy_numbering,
    reference_verify_certificate,
    small_graphs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from diagflag.diagembed import (
    DiagonalEmbedding,
    is_linear_graph,
    is_standard_extension_graph,
)
from diagflag import indlimit
from diagflag.egraph import EGraph, SurjectionAlpha, build_from_alpha, partition_edges, validate_egraph
from diagflag.errors import DomainError, InternalCheckError, ScaleError, replace
from diagflag.flagcore import (
    FlagType,
    StandardExtensionData,
    classify_bruteforce,
    level_flag,
    random_flag,
)
from diagflag.indlimit import (
    CERTIFICATE_STEP_LIMIT,
    Admissible,
    AdmissibilityCertificate,
    ConstantTail,
    GeneralizedFlagType,
    GeometricTail,
    GraphFactor,
    NotAdmissible,
    RefutationProof,
    SnGraph,
    Unknown,
    admissible,
    build_realization_sn_graph,
    canonical_exhaustion,
    decompose_sn_graph,
    factor_linear_egraph,
    factor_pullback_additivity,
    validate_sn_graph,
    verify_certificate,
    verify_refutation,
)
from diagflag.ratlin import Flag, RatSubspace
from diagflag.supernat import INF, ExhaustionSpec, SupernaturalNumber

SN2 = SupernaturalNumber.from_factors({2: INF})
SN23 = SupernaturalNumber.from_factors({2: INF, 3: INF})
SN2F5 = SupernaturalNumber.from_factors({2: 3, 5: INF})


# --- generalized flag types -------------------------------------------------


def test_gft_validation():
    GeneralizedFlagType((1, 2), None, True, ordered_presentation=(1, 2, INF))
    with pytest.raises(DomainError):
        GeneralizedFlagType((), None, False)
    with pytest.raises(DomainError):
        GeneralizedFlagType((1,), GeometricTail(1, 2), False, ordered_presentation=(1,))
    with pytest.raises(DomainError):
        GeneralizedFlagType((1, 2), None, True, ordered_presentation=(1, INF))
    with pytest.raises(DomainError):
        GeneralizedFlagType((1,), None, False, ordered_presentation=(1, INF))


def test_gft_json_roundtrip():
    for gft in (
        GeneralizedFlagType((1, 2), GeometricTail(1, 2), True),
        GeneralizedFlagType((), ConstantTail(3), True),
        GeneralizedFlagType((5,), None, True, ordered_presentation=(INF, 5, INF)),
    ):
        assert GeneralizedFlagType.from_json_obj(gft.to_json_obj()) == gft


# --- chained graphs ----------------------------------------------------------


def test_sn_graph_levels_and_period():
    sg = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH,), period=1)
    assert sg.level(1) == PRODUCT_LEVEL_GRAPH
    assert sg.level(7) == PRODUCT_LEVEL_GRAPH
    assert validate_sn_graph(sg, upto=5).ok
    bare = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH,))
    with pytest.raises(DomainError):
        bare.level(2)


def test_sn_graph_validation_catches_mismatches():
    g_small = EGraph(1, 1, 2, frozenset({(1, 1, 1), (1, 1, 2)}))
    sg = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH, g_small))
    report = validate_sn_graph(sg)
    assert any("chain" in v for v in report.violations)
    sg2 = SnGraph(ExhaustionSpec(2, (2,)), (PRODUCT_LEVEL_GRAPH,), period=1)
    report2 = validate_sn_graph(sg2, upto=3)
    assert any("exceeds" in v for v in report2.violations)
    sg3 = SnGraph(ExhaustionSpec(4, (3,)), (PRODUCT_LEVEL_GRAPH,), period=1)
    report3 = validate_sn_graph(sg3, upto=2)
    assert any("step ratio" in v for v in report3.violations)


def test_sn_graph_json_roundtrip():
    sg = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH,), period=1)
    assert SnGraph.from_json_obj(sg.to_json_obj()) == sg


# --- canonical exhaustions ---------------------------------------------------


def test_canonical_exhaustion_full_flags():
    steps = canonical_exhaustion(list(range(1, 8)), 7, 6)
    for n, (ft, data) in enumerate(steps, start=1):
        assert ft == FlagType(n, tuple(range(1, n)))
        assert data.target_type == FlagType(n + 1, tuple(range(1, n + 1)))
        assert all(z.dim == 0 for z in data.z_chain)


def test_canonical_exhaustion_alternating():
    steps = canonical_exhaustion([1, 2, 1, 2, 1, 2, 1], 2, 6)
    # one member throughout; growth of the member alternates with ambient growth
    for n, (ft, data) in enumerate(steps[1:], start=2):
        assert ft.length == 1
        zdims = [z.dim for z in data.z_chain]
        assert zdims == ([1] if n % 2 == 0 else [0])


def test_canonical_exhaustion_single_level():
    steps = canonical_exhaustion([1] * 7, 1, 6)
    for ft, data in steps:
        assert ft.length == 0
        assert len(data.kappa) == 0


def test_canonical_exhaustion_rejects_bad_sigma():
    with pytest.raises(DomainError):
        canonical_exhaustion([1, 1, 1], 2, 2)  # never reaches chain position 2
    with pytest.raises(DomainError):
        canonical_exhaustion([1, 3, 1], 2, 2)  # value outside the chain
    with pytest.raises(DomainError):
        canonical_exhaustion([1, 2], 2, 2)  # too short for n_max


@pytest.mark.parametrize("bad", [2.7, "2", True, 2.0, None])
def test_canonical_exhaustion_takes_integer_sigma_values_only(bad):
    with pytest.raises(DomainError, match="must be an integer"):
        canonical_exhaustion([1, bad, 2, 1], 2, 3)
    with pytest.raises(DomainError, match="must be an integer"):
        canonical_exhaustion([1, 2, 2, 1, bad], 2, 3)  # beyond the prefix too


def test_canonical_exhaustion_data_is_valid_se(rng):
    steps = canonical_exhaustion([2, 1, 2, 2, 1, 1, 2, 1], 2, 7)
    for ft, data in steps:
        assert data.source_type == ft
        if ft.length == 0:
            continue
        flag = random_flag(ft, rng)
        image = data.evaluate(flag)
        assert image.dims == data.target_type.dims


def reference_prefix_flag_dims(values, chain_size, n):
    """Distinct nonzero dimensions spanned by the first n basis vectors at
    each chain position; the last entry is n itself."""
    counts = [sum(1 for k in range(n) if values[k] <= a) for a in range(1, chain_size + 1)]
    return sorted({c for c in counts if c > 0})


def reference_prefix_flag(values, chain_size, n):
    """The canonical flag of the first n vectors, as spans of unit vectors."""
    members = []
    seen_dims = set()
    for a in range(1, chain_size + 1):
        vectors = [[1 if t == k else 0 for t in range(n)] for k in range(n) if values[k] <= a]
        if vectors and len(vectors) < n and len(vectors) not in seen_dims:
            seen_dims.add(len(vectors))
            members.append(RatSubspace.span(n, vectors))
    return Flag(n, tuple(members))


@pytest.mark.parametrize(
    "sigma, chain_size, n_max",
    [
        (list(range(1, 8)), 7, 6),
        ([1, 2, 1, 2, 1, 2, 1], 2, 6),
        ([1] * 7, 1, 6),
        ([2, 1, 2, 2, 1, 1, 2, 1], 2, 7),
    ],
)
def test_canonical_exhaustion_prefix_flags_match_unit_vector_spans(sigma, chain_size, n_max):
    for n in range(1, n_max + 2):
        flag = level_flag(sigma[:n])
        assert flag == reference_prefix_flag(sigma, chain_size, n)
        assert [*flag.dims, n] == reference_prefix_flag_dims(sigma, chain_size, n)
    steps = canonical_exhaustion(sigma, chain_size, n_max)
    for n, (ft, data) in enumerate(steps, start=1):
        assert ft == FlagType(n, tuple(reference_prefix_flag_dims(sigma, chain_size, n)[:-1]))
        source = reference_prefix_flag(sigma, chain_size, n)
        assert data.evaluate(source) == reference_prefix_flag(sigma, chain_size, n + 1)


def reference_canonical_exhaustion(values, n_max):
    """The step data built from the canonical flags themselves: entry
    position and member count read off the flags, every step checked by
    evaluating the flag of the first n vectors."""
    out = []
    flag_n = level_flag(values[:1])
    for n in range(1, n_max + 1):
        flag_next = level_flag(values[: n + 1])
        dims_n = (*flag_n.dims, n)
        dims_next = (*flag_next.dims, n + 1)
        p_n, p_next = len(dims_n), len(dims_next)
        if p_next not in (p_n, p_n + 1):
            raise InternalCheckError("member count may grow by at most one per step")
        source = FlagType(n, flag_n.dims)
        level = values[n]
        entry_dim = sum(1 for k in range(n + 1) if values[k] <= level)
        i0 = dims_next.index(entry_dim) + 1
        k = p_n - 1
        ell = k if p_next == p_n else k + 1
        new_line = RatSubspace.span(n + 1, [(0,) * n + (1,)])
        zero = RatSubspace.zero(n + 1)
        unit = tuple(tuple(int(r == c) for c in range(n)) for r in range(n + 1))
        if p_next == p_n:
            kappa = tuple(range(1, k + 1))
        else:
            kappa = tuple(j if j < i0 else j - 1 for j in range(1, ell + 1))
        chain = tuple(zero if j < i0 else new_line for j in range(1, ell + 1))
        data = StandardExtensionData.from_epsilon(source, unit, chain, kappa)
        if data.evaluate(flag_n) != flag_next:
            raise InternalCheckError("step data does not map the canonical flag forward")
        out.append((source, data))
        flag_n = flag_next
    return out


@st.composite
def sigmas(draw):
    """A sigma surjective onto 1..chain on its first n_max + 1 values,
    sometimes with further values after them."""
    chain = draw(st.integers(1, 5))
    n_max = draw(st.integers(max(chain - 1, 1), 8))
    prefix = draw(st.permutations(range(1, chain + 1)))
    prefix += draw(st.lists(st.integers(1, chain), min_size=n_max + 1 - chain, max_size=n_max + 1 - chain))
    order = draw(st.permutations(range(n_max + 1)))
    tail = draw(st.lists(st.integers(1, chain), max_size=2))
    return [prefix[i] for i in order] + tail, chain, n_max


@given(sigmas())
@settings(max_examples=150, deadline=None)
def test_canonical_exhaustion_matches_the_flag_reference(case):
    sigma, chain_size, n_max = case
    steps = canonical_exhaustion(sigma, chain_size, n_max)
    expected = reference_canonical_exhaustion(sigma, n_max)
    assert steps == expected
    for n, ((ft, data), (_, ref)) in enumerate(zip(steps, expected), start=1):
        assert hash(data) == hash(ref)
        rebuilt = StandardExtensionData.from_epsilon(ft, data.epsilon, data.z_chain, data.kappa, data.dualized)
        assert rebuilt == data and hash(rebuilt) == hash(data)
        assert data.evaluate(level_flag(sigma[:n])) == level_flag(sigma[: n + 1])


@given(sigmas())
@settings(max_examples=100, deadline=None)
def test_canonical_exhaustion_steps_pass_check(case):
    """The steps are built without checks; every one passes `check()`."""
    for _, data in canonical_exhaustion(*case):
        assert data.check() is data


def seeded_sigmas(seed, count):
    """Surjective sigmas with chains up to 6 and n_max up to 9."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        chain = rng.randint(1, 6)
        n_max = rng.randint(max(chain - 1, 1), 9)
        sigma = [rng.randint(1, chain) for _ in range(n_max + 1)]
        if set(sigma) == set(range(1, chain + 1)):
            out.append((sigma, chain, n_max))
    return out


# The source types and step documents of the canonical exhaustions of a
# fixed seeded sigma set, hashed; any change in the step data shows here.
EXHAUSTION_DIGEST = "1c6a0e0890880bff1a7d28e3db8f0cff071393b6a41deb3e2674bf9f53678e20"


def test_canonical_exhaustion_output_is_pinned():
    docs = [
        [[ft.to_json_obj(), data.to_json_obj()] for ft, data in canonical_exhaustion(*case)]
        for case in seeded_sigmas(2024, 150)
    ]
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == EXHAUSTION_DIGEST


# --- realization -------------------------------------------------------------


def test_realization_line_then_everything():
    gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF))
    real = build_realization_sn_graph(gft, SN2, ExhaustionSpec(2, (2,)), levels=6)
    assert validate_sn_graph(real.sn_graph, upto=6).ok
    assert all(t.dims == (1,) for t in real.level_types)
    assert [q[1] for q in real.level_quotients] == [1, 3, 7, 15, 31, 63, 127]
    for g in real.sn_graph.prefix:
        assert is_standard_extension_graph(g)
    assert real.sn_graph.period == 1


def test_realization_point():
    gft = GeneralizedFlagType((), None, True, ordered_presentation=(INF,))
    real = build_realization_sn_graph(gft, SN2, ExhaustionSpec(1, (2,)), levels=4)
    assert all(t.length == 0 for t in real.level_types)
    assert validate_sn_graph(real.sn_graph, upto=4).ok


def test_realization_mixed_quotients(rng):
    gft = GeneralizedFlagType((1, 2), None, True, ordered_presentation=(1, 2, INF, INF))
    real = build_realization_sn_graph(gft, SN23, ExhaustionSpec(6, (6,)), levels=4)
    assert validate_sn_graph(real.sn_graph, upto=4).ok
    for quotients in real.level_quotients:
        assert quotients[0] == 1 and quotients[1] == 2
    # infinite quotients strictly grow over the prefix
    first, last = real.level_quotients[0], real.level_quotients[-1]
    assert last[2] > first[2] and last[3] > first[3]
    for g in real.sn_graph.prefix:
        assert is_standard_extension_graph(g)
    # the level embeddings evaluate real flags into the next level's type
    for n in (1, 2):
        emb = DiagonalEmbedding(real.sn_graph.prefix[n - 1], real.level_types[n - 1])
        flag = random_flag(real.level_types[n - 1], rng)
        assert emb.evaluate(flag).dims == real.level_types[n].dims


def test_realization_first_levels_classify_strict():
    # slow multipliers keep the first two targets inside the oracle scale
    gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF))
    real = build_realization_sn_graph(gft, SN2, ExhaustionSpec(2, (2, 1)), levels=4)
    for n in range(2):
        emb = DiagonalEmbedding(real.sn_graph.prefix[n], real.level_types[n])
        if emb.n <= 6:
            result = classify_bruteforce(emb.evaluate, emb.source_type, seed=n)
            assert result.kind == "strict_se"


def test_realization_preconditions():
    gft_tail = GeneralizedFlagType((), GeometricTail(1, 2), True)
    with pytest.raises(DomainError):
        build_realization_sn_graph(gft_tail, SN2, ExhaustionSpec(2, (2,)))
    gft_unordered = GeneralizedFlagType((1,), None, True)
    with pytest.raises(DomainError):
        build_realization_sn_graph(gft_unordered, SN2, ExhaustionSpec(2, (2,)))
    gft = GeneralizedFlagType((1, 2), None, True, ordered_presentation=(1, 2, INF))
    with pytest.raises(DomainError):
        build_realization_sn_graph(gft, SN2, ExhaustionSpec(2, (2,)))  # s1 too small
    with pytest.raises(DomainError):
        build_realization_sn_graph(gft, SN2, ExhaustionSpec(3, (2,)))  # not an exhaustion


def test_realization_over_mixed_supernatural():
    gft = GeneralizedFlagType((2,), None, True, ordered_presentation=(2, INF))
    real = build_realization_sn_graph(gft, SN2F5, ExhaustionSpec(40, (5,)), levels=4)
    assert validate_sn_graph(real.sn_graph, upto=4).ok
    assert all(t.dims == (2,) for t in real.level_types)


def test_realization_alternating_cycle_round_robin():
    # step ratios alternate 2, 3; the one/two new blocks rotate between the
    # two infinite quotients, so both grow along the prefix
    gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(INF, 1, INF))
    real = build_realization_sn_graph(gft, SN23, ExhaustionSpec(6, (2, 3)), levels=6)
    assert validate_sn_graph(real.sn_graph, upto=6).ok
    assert {g.d for g in real.sn_graph.prefix} == {2, 3}
    first, last = real.level_quotients[0], real.level_quotients[-1]
    assert last[0] > first[0] and last[2] > first[2]
    assert all(q[1] == 1 for q in real.level_quotients)
    for g in real.sn_graph.prefix:
        assert is_standard_extension_graph(g)


# --- admissibility -----------------------------------------------------------


def test_admissible_finite():
    result = admissible(GeneralizedFlagType((5, 7), None, True), SN2)
    assert isinstance(result, Admissible)
    assert result.certificate.kind == "finite"
    assert verify_certificate(GeneralizedFlagType((5, 7), None, True), SN2, result.certificate)


def test_admissible_geometric_doubling():
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    result = admissible(gft, SN2)
    assert isinstance(result, Admissible)
    cert = result.certificate
    assert cert.exhaustion == ExhaustionSpec(1, (2,))
    assert cert.numbering_prefix[:5] == (1, 2, 4, 8, 16)
    assert cert.verified_prefix_length >= 12
    assert verify_certificate(gft, SN2, cert)


def test_not_admissible_constant_tail():
    gft = GeneralizedFlagType((), ConstantTail(1), True)
    result = admissible(gft, SN2)
    assert isinstance(result, NotAdmissible)
    assert result.proof.witness_divisor == 2
    assert verify_refutation(gft, SN2, result.proof)


@pytest.mark.parametrize("prime, beyond", [(3, 111), (5, 213), (7, 122)])
def test_constant_tail_witness_is_the_least_divisor_above(prime, beyond):
    """Over p^inf, `beyond` of the values c <= 300 have no divisor in
    (c, max(64, 2c + 2)]; the witness is still the least divisor above c."""
    sn = SupernaturalNumber.from_factors({prime: INF})
    outside = 0
    for c in range(1, 301):
        gft = GeneralizedFlagType((), ConstantTail(c), True)
        result = admissible(gft, sn)
        assert isinstance(result, NotAdmissible)
        least = prime ** next(k for k in itertools.count() if prime**k > c)
        assert result.proof.witness_divisor == least
        assert verify_refutation(gft, sn, result.proof)
        outside += least > max(64, 2 * c + 2)
    assert outside == beyond


def test_admissible_unknown_for_incompatible_ratio():
    gft = GeneralizedFlagType((), GeometricTail(1, 3), False)
    result = admissible(gft, SN2, bound=16)
    assert isinstance(result, Unknown)
    assert result.candidates_searched > 0


@pytest.mark.parametrize("bound", [-5, 0, 1])
def test_admissible_rejects_bound_below_two(bound):
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    with pytest.raises(DomainError):
        admissible(gft, SN2, bound=bound)


def test_admissible_refuses_a_search_beyond_its_limit(monkeypatch):
    """The search would try |s1 candidates| * (M + M^2) exhaustions: over
    2^inf 3^inf at bound 64, 17 * (16 + 256) = 4624."""
    gft = GeneralizedFlagType((), GeometricTail(1, 5), True)
    with pytest.raises(ScaleError, match="bound 10000 gives 296274 exhaustions"):
        admissible(gft, SN23, bound=10**4)
    monkeypatch.setattr(indlimit, "_SEARCH_LIMIT", 4624)
    assert isinstance(admissible(gft, SN23), Unknown)
    monkeypatch.setattr(indlimit, "_SEARCH_LIMIT", 4623)
    with pytest.raises(ScaleError, match="bound 64 gives 4624 exhaustions"):
        admissible(gft, SN23)


def test_admissible_geometric_with_finite_part():
    gft = GeneralizedFlagType((1,), GeometricTail(2, 2), False)
    result = admissible(gft, SN2)
    assert isinstance(result, Admissible)
    assert result.certificate.numbering_prefix[0] == 1
    assert verify_certificate(gft, SN2, result.certificate)


def test_admissible_geometric_base3_over_mixed():
    sn = SupernaturalNumber.from_factors({2: INF, 3: 1})
    gft = GeneralizedFlagType((), GeometricTail(3, 2), False)
    result = admissible(gft, sn)
    assert isinstance(result, Admissible)
    assert result.certificate.exhaustion.s1 == 3


def test_certificate_verification_rejects_tampering():
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    result = admissible(gft, SN2)
    cert = result.certificate
    bad = AdmissibilityCertificate(
        kind=cert.kind,
        exhaustion=cert.exhaustion,
        numbering_prefix=cert.numbering_prefix[:3],
        tail_rule=cert.tail_rule,
        verified_prefix_length=3,
    )
    assert not verify_certificate(gft, SN2, bad)
    swapped = AdmissibilityCertificate(
        kind=cert.kind,
        exhaustion=ExhaustionSpec(1, (4,)),
        numbering_prefix=cert.numbering_prefix,
        tail_rule=cert.tail_rule,
        verified_prefix_length=cert.verified_prefix_length,
    )
    assert not verify_certificate(gft, SN2, swapped)


def test_certificate_verification_rejects_an_unplaced_explicit_quotient():
    """{2^20} plus tail(1, 2) over 2^inf: the prefix 1, 2, ..., 2^11 along
    s1 = 1, cycle (2) meets both clauses at every step shown, but leaves
    2^20 unplaced; at step 21 both 2^20's fall into one window."""
    gft = GeneralizedFlagType((2**20,), GeometricTail(1, 2), True)
    cert = AdmissibilityCertificate(
        kind="numbered",
        exhaustion=ExhaustionSpec(1, (2,)),
        numbering_prefix=tuple(2**i for i in range(12)),
        tail_rule="remaining tail dimensions in increasing order",
        verified_prefix_length=12,
    )
    assert isinstance(admissible(gft, SN2), Unknown)
    assert not verify_certificate(gft, SN2, cert)


def test_certificate_verification_rejects_an_explicit_quotient_beyond_the_prefix():
    gft = GeneralizedFlagType((1,), GeometricTail(2, 2), False)
    cert = admissible(gft, SN2).certificate
    assert verify_certificate(gft, SN2, cert)
    # A power of 2 beyond every term of the prefix passes clause 2 at each
    # step, so only the unplaced-quotient check rejects it.
    beyond = 2 * max(cert.numbering_prefix)
    extended = GeneralizedFlagType((1, beyond), GeometricTail(2, 2), False)
    assert not verify_certificate(extended, SN2, cert)


def _numbered(s1, cycle, prefix):
    return AdmissibilityCertificate(
        kind="numbered",
        exhaustion=ExhaustionSpec(s1, cycle),
        numbering_prefix=tuple(prefix),
        tail_rule="remaining tail dimensions in increasing order",
        verified_prefix_length=len(prefix),
    )


def test_certificate_verification_follows_the_tail_rule_past_the_prefix():
    """Tail(1, 2) over 2^inf along s1 = 1, cycle (2,)*12 + (4,): the prefix
    1, 2, ..., 2^11 meets both clauses, and so does step 13, which places
    2^12; at step 14 the term 2^14 does not divide the next tail dimension
    2^13."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2), True)
    cert = _numbered(1, (2,) * 12 + (4,), [2**i for i in range(12)])
    assert not verify_certificate(gft, SN2, cert)
    assert verify_certificate(gft, SN2, _numbered(1, (2,), [2**i for i in range(12)]))


def test_certificate_verification_accepts_a_long_cycle():
    """A cycle of 250 doublings is the doubling chain, so the certificate
    holds although its state first repeats after 262 steps, past the
    greedy's `_MAX_STEPS`; the walk runs its own bound of prefix plus
    cycle length.  Ending the cycle with a 4 instead breaks it past that
    cap: step 250 places 2^249 at term 2^249 and leaves the term 2^251,
    which exceeds the next tail dimension 2^250 at step 251."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2), True)
    prefix = [2**i for i in range(12)]
    assert verify_certificate(gft, SN2, _numbered(1, (2,) * 250, prefix))
    assert not verify_certificate(gft, SN2, _numbered(1, (2,) * 249 + (4,), prefix))
    # With the prefix's dimensions explicit and the tail from 2^12 on, no
    # state is recorded before step 12, so the first repeat is at step
    # 12 + 250, the last one the walk takes.
    explicit = GeneralizedFlagType(tuple(prefix), GeometricTail(2**12, 2), True)
    assert verify_certificate(explicit, SN2, _numbered(1, (2,) * 250, prefix))


def test_certificate_verification_walks_steps_not_multipliers():
    """At bound 2^50, tail(1, 2^50) over 2^inf is certified along s1 = 1,
    cycle (2^50,).  The walk takes the prefix plus one step; a bound that
    counted the states a multiplier allows would have 2^50 of them."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2**50), True)
    result = admissible(gft, SN2, bound=2**50)
    assert result.certificate.exhaustion == ExhaustionSpec(1, (2**50,))
    assert verify_certificate(gft, SN2, result.certificate)


def test_certificate_verification_refuses_a_walk_beyond_its_limit():
    gft = GeneralizedFlagType((), GeometricTail(1, 2), True)
    prefix = [2**i for i in range(12)]
    longest = CERTIFICATE_STEP_LIMIT - len(prefix)
    assert verify_certificate(gft, SN2, _numbered(1, (2,) * longest, prefix))
    with pytest.raises(ScaleError, match="verification is limited"):
        verify_certificate(gft, SN2, _numbered(1, (2,) * (longest + 1), prefix))


def test_certificate_verification_checks_a_constant_tail():
    """Explicit quotients 1, 2, ..., 2^11 with a constant tail of 1 over
    2^inf: the prefix places the explicit quotients along s1 = 1, cycle
    (2,), but the term 2 of step 2 does not divide the tail dimension 1.
    The type is refuted, and only the refutation verifies."""
    gft = GeneralizedFlagType(tuple(2**i for i in range(12)), ConstantTail(1), True)
    cert = _numbered(1, (2,), [2**i for i in range(12)])
    assert not verify_certificate(gft, SN2, cert)
    result = admissible(gft, SN2)
    assert isinstance(result, NotAdmissible)
    assert verify_refutation(gft, SN2, result.proof)


def test_certificate_verification_rejects_a_numbered_certificate_without_an_exhaustion():
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    cert = admissible(gft, SN2).certificate
    assert not verify_certificate(gft, SN2, replace(cert, exhaustion=None))


def test_certificate_verification_rejects_an_exhaustion_of_another_number():
    """s1 = 1, cycle (2,) exhausts 2^inf but not 2^inf 3^inf: no term is a
    multiple of 3."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    cert = admissible(gft, SN2).certificate
    assert verify_certificate(gft, SN2, cert)
    assert not verify_certificate(gft, SN23, cert)


def test_certificate_verification_rejects_a_pick_outside_the_type():
    """Tail(1, 4) over 2^inf is certified along s1 = 1, cycle (4,).  At
    step 1 the pick 2 is 2 * s_1 with 2 <= d_1 - 1, but it is neither an
    explicit quotient nor the next tail dimension 1."""
    gft = GeneralizedFlagType((), GeometricTail(1, 4), False)
    cert = admissible(gft, SN2).certificate
    assert cert.exhaustion == ExhaustionSpec(1, (4,))
    assert verify_certificate(gft, SN2, cert)
    assert not verify_certificate(gft, SN2, _numbered(1, (4,), (2,) + cert.numbering_prefix[1:]))


def test_certificate_verification_rejects_an_explicit_quotient_the_term_does_not_divide():
    """The doubling certificate of tail(1, 2), for the type with one more
    quotient 3: steps 1 and 2 place 1 and 2, and s_2 = 2 does not divide
    the remaining 3."""
    cert = admissible(GeneralizedFlagType((), GeometricTail(1, 2), False), SN2).certificate
    gft = GeneralizedFlagType((3,), GeometricTail(1, 2), False)
    assert not verify_certificate(gft, SN2, cert)


def test_certificate_verification_rejects_a_tail_dimension_the_term_does_not_divide():
    """Along s1 = 4, cycle (2,), step 1 places the explicit 4, and s_1 = 4
    does not divide the first tail dimension 2."""
    gft = GeneralizedFlagType((4,), GeometricTail(2, 2), False)
    cert = _numbered(4, (2,), [4 * 2**i for i in range(12)])
    assert not verify_certificate(gft, SN2, cert)


def test_certificate_verification_rejects_an_unknown_kind():
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    cert = admissible(gft, SN2).certificate
    assert not verify_certificate(gft, SN2, replace(cert, kind="bogus"))
    finite = GeneralizedFlagType((5, 7), None, True)
    bogus = replace(admissible(finite, SN2).certificate, kind="bogus")
    assert not verify_certificate(finite, SN2, bogus)


def test_certificate_verification_rejects_a_finite_certificate_with_an_exhaustion_or_prefix():
    gft = GeneralizedFlagType((5, 7), None, True)
    cert = admissible(gft, SN2).certificate
    assert verify_certificate(gft, SN2, cert)
    numbered = admissible(GeneralizedFlagType((), GeometricTail(1, 2), False), SN2).certificate
    assert not verify_certificate(gft, SN2, replace(numbered, kind="finite"))
    assert not verify_certificate(gft, SN2, replace(cert, exhaustion=ExhaustionSpec(1, (2,))))
    assert not verify_certificate(gft, SN2, replace(cert, numbering_prefix=(5,), verified_prefix_length=1))


def test_certificate_verification_rejects_a_misrecorded_prefix_length():
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    cert = admissible(gft, SN2).certificate
    for length in (0, len(cert.numbering_prefix) - 1, len(cert.numbering_prefix) + 1):
        assert not verify_certificate(gft, SN2, replace(cert, verified_prefix_length=length))
    finite = GeneralizedFlagType((5, 7), None, True)
    cert = admissible(finite, SN2).certificate
    assert not verify_certificate(finite, SN2, replace(cert, verified_prefix_length=12))


@pytest.mark.parametrize("cycle, certified", [((2,), 198), ((2, 2), 197)])
def test_greedy_numbering_gives_up_at_its_step_limit(cycle, certified):
    """Explicit quotients 2^0 .. 2^(c-1) and tail(2^c, 2) over 2^inf along
    s1 = 1: the explicit quotients are placed by step c, and the state
    after it recurs one cycle later.  The walk certifies when that step is
    below `_MAX_STEPS` (200)."""
    for c in (certified, certified + 1):
        gft = GeneralizedFlagType(tuple(2**i for i in range(c)), GeometricTail(2**c, 2), True)
        picked = indlimit._greedy_numbering(gft, 1, cycle)
        assert picked == reference_greedy_numbering(gft, 1, cycle)
        if c == certified:
            assert picked == tuple(2**i for i in range(c + len(cycle)))
        else:
            assert picked is None


@st.composite
def greedy_inputs(draw):
    """A type with up to three explicit quotients and a geometric tail, and
    an exhaustion of s1 and up to three multipliers, periodic for the tail
    or not; the greedy's arithmetic asks no more of them."""
    finite = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32]), max_size=3)))
    tail = GeometricTail(draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12])), draw(st.sampled_from([2, 3, 4, 6, 8, 9])))
    s1 = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    cycle = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 16]), min_size=1, max_size=3)))
    return GeneralizedFlagType(finite, tail, True), s1, cycle


@settings(max_examples=300, deadline=None)
@given(greedy_inputs())
def test_greedy_numbering_matches_the_reference(inputs):
    """The reference hashes states for any cycle; the search hands the
    greedy only cycles with ratio^len(cycle) = cycle product, as no other
    cycle's state ever repeats."""
    gft, s1, cycle = inputs
    periodic = gft.tail.ratio ** len(cycle) == math.prod(cycle)
    expected = reference_greedy_numbering(gft, s1, cycle)
    assert expected is None or periodic
    if periodic:
        assert indlimit._greedy_numbering(gft, s1, cycle) == expected


@functools.cache
def emitted_certificates():
    """(type, sn, certificate) for each certificate `admissible` emits on a
    small grid of tails and finite parts, with two finite types."""
    out = []
    for factors in ({2: INF}, {2: INF, 3: INF}, {2: INF, 3: 1}):
        sn = SupernaturalNumber.from_factors(factors)
        for base, ratio, finite in itertools.product(range(1, 9), range(2, 9), [(), (1,), (2,), (1, 2)]):
            gft = GeneralizedFlagType(finite, GeometricTail(base, ratio), True)
            result = admissible(gft, sn)
            if isinstance(result, Admissible):
                out.append((gft, sn, result.certificate))
        gft = GeneralizedFlagType((3, 5), None, True)
        out.append((gft, sn, admissible(gft, sn).certificate))
    return out


def _mutated(draw, gft, sn, cert):
    """One mutation of a certificate, of the type it certifies or of sn."""
    kind = draw(st.sampled_from(
        ["none", "kind", "s1", "cycle", "pick", "cut", "extend", "length", "no_exhaustion", "quotient", "tail", "sn"]
    ))
    spec, prefix = cert.exhaustion, cert.numbering_prefix
    factor = draw(st.sampled_from([2, 3, 4]))
    if kind == "kind":
        cert = replace(cert, kind=draw(st.sampled_from(["finite", "numbered", "bogus"])))
    elif kind == "s1" and spec is not None:
        cert = replace(cert, exhaustion=ExhaustionSpec(spec.s1 * factor, spec.cycle))
    elif kind == "cycle" and spec is not None:
        at = draw(st.integers(0, len(spec.cycle)))
        cert = replace(cert, exhaustion=ExhaustionSpec(spec.s1, spec.cycle[:at] + (factor,) + spec.cycle[at + 1 :]))
    elif kind == "pick" and prefix:
        at = draw(st.integers(0, len(prefix) - 1))
        cert = replace(cert, numbering_prefix=prefix[:at] + (prefix[at] * factor,) + prefix[at + 1 :])
    elif kind == "cut":
        cut = prefix[: draw(st.integers(0, len(prefix)))]
        cert = replace(cert, numbering_prefix=cut, verified_prefix_length=len(cut))
    elif kind == "extend":
        longer = prefix + (draw(st.sampled_from(prefix or (1,))) * factor,)
        cert = replace(cert, numbering_prefix=longer, verified_prefix_length=len(longer))
    elif kind == "length":
        cert = replace(cert, verified_prefix_length=cert.verified_prefix_length + draw(st.sampled_from([-1, 1, 5])))
    elif kind == "no_exhaustion":
        cert = replace(cert, exhaustion=None)
    elif kind == "quotient":
        gft = replace(gft, finite_quotients=gft.finite_quotients + (draw(st.sampled_from(prefix or (1,))) * factor,))
    elif kind == "tail" and gft.tail is not None:
        tail = draw(st.sampled_from([GeometricTail(gft.tail.base * factor, gft.tail.ratio),
                                     GeometricTail(gft.tail.base, gft.tail.ratio * factor),
                                     ConstantTail(gft.tail.base)]))
        gft = replace(gft, tail=tail)
    elif kind == "sn":
        sn = SupernaturalNumber.from_factors({2: INF, 3: INF, 5: INF})
    return gft, sn, cert


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_certificate_verification_matches_the_reference(data):
    """On the certificates `admissible` emits and mutated copies of them,
    the verifier answers as the reference does, except that it also rejects
    an unknown kind, a finite certificate with an exhaustion or a prefix,
    and a recorded prefix length that is not the prefix's."""
    gft, sn, cert = data.draw(st.sampled_from(emitted_certificates()))
    gft, sn, cert = _mutated(data.draw, gft, sn, cert)
    well_formed = cert.verified_prefix_length == len(cert.numbering_prefix) and (
        cert.kind == "numbered" or (cert.kind == "finite" and cert.exhaustion is None and not cert.numbering_prefix)
    )
    assert verify_certificate(gft, sn, cert) == (well_formed and reference_verify_certificate(gft, sn, cert))


def test_emitted_certificates_match_the_reference():
    for gft, sn, cert in emitted_certificates():
        assert verify_certificate(gft, sn, cert)
        assert reference_verify_certificate(gft, sn, cert)


def test_refutation_verification_rejects_a_geometric_tail():
    gft = GeneralizedFlagType((), GeometricTail(4, 2), True)
    assert not verify_refutation(gft, SN2, RefutationProof(4, 8, 12))


# The ROADMAP grid of geometric tails: sn, tail base, tail ratio, finite part.
GRID_SNS = [{2: INF}, {3: INF}, {2: INF, 3: INF}, {2: INF, 3: 1}, {2: INF, 3: INF, 5: 1}]
GRID_FINITE_PARTS = [(), (1,), (2,), (3,), (1, 2)]


def test_admissibility_grid_is_pinned():
    """3,300 types at the default bound: the verdict counts and a digest of
    every certificate and search count.  `admissible` re-verifies each
    certificate it returns."""
    results = []
    counts = {"Admissible": 0, "NotAdmissible": 0, "Unknown": 0}
    for factors in GRID_SNS:
        sn = SupernaturalNumber.from_factors(factors)
        for base, ratio, finite in itertools.product(range(1, 13), range(2, 13), GRID_FINITE_PARTS):
            result = admissible(GeneralizedFlagType(finite, GeometricTail(base, ratio), True), sn)
            counts[type(result).__name__] += 1
            if isinstance(result, Admissible):
                results.append(result.certificate.to_json_obj())
            elif isinstance(result, Unknown):
                results.append([result.reason, result.candidates_searched])
            else:
                results.append(result.proof.to_json_obj())
    assert counts == {"Admissible": 107, "NotAdmissible": 0, "Unknown": 3193}
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "4f2b917f9d37dcf6"


def test_refutation_verification_rejects_bad_witness():
    gft = GeneralizedFlagType((), ConstantTail(4), True)
    from diagflag.indlimit import RefutationProof

    assert not verify_refutation(gft, SN2, RefutationProof(4, 3, 12))
    assert not verify_refutation(gft, SN2, RefutationProof(4, 6, 12))  # 6 not a divisor
    assert verify_refutation(gft, SN2, RefutationProof(4, 8, 12))


# --- factorization -----------------------------------------------------------


def test_factor_single_colour_is_identity():
    g = EGraph(3, 3, 1, frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1)}))
    factors = factor_linear_egraph(g)
    assert len(factors) == 1 and factors[0].graph == g


def test_factor_monochromatic_graph_unchanged():
    g = insertion_graph(4, 2)
    factors = factor_linear_egraph(g)
    assert factors[0].graph == g
    assert validate_egraph(factors[1].graph).ok


def test_factor_rejects_nonlinear():
    with pytest.raises(DomainError):
        factor_linear_egraph(MIXED_GRAPH)


def test_factor_two_colour_linear_graph():
    result = build_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2)
    factors = factor_linear_egraph(result.graph)
    assert len(factors) == 2
    for f in factors:
        assert validate_egraph(f.graph).ok
        assert is_standard_extension_graph(f.graph)
    assert factor_pullback_additivity(result.graph, factors)


def test_factor_additivity_on_sweep():
    from diagflag.egraph import ParabolicRestriction, surjections

    checked = 0
    for n in (4, 6):
        for d in (2, 3):
            if n % d:
                continue
            for alpha in surjections(n):
                result = build_from_alpha(alpha, n // d)
                if isinstance(result, ParabolicRestriction) and is_linear_graph(result.graph):
                    factors = factor_linear_egraph(result.graph)
                    assert factor_pullback_additivity(result.graph, factors)
                    checked += 1
    assert checked > 50


def reference_factor_linear_egraph(g):
    """Reference: per colour, keep the bounding edges and the ordinary edges
    of that colour, and renumber both columns to the kept edges' endpoints."""
    if not is_linear_graph(g):
        raise DomainError("factorization requires a linear graph")
    bounding, ordinary = partition_edges(g)
    factors = []
    for c in range(1, g.d + 1):
        keep = set(bounding) | {e for e in ordinary if e[2] == c}
        lefts = sorted({i for (i, _, _) in keep})
        rights = sorted({j for (_, j, _) in keep})
        lmap = {i: idx + 1 for idx, i in enumerate(lefts)}
        rmap = {j: idx + 1 for idx, j in enumerate(rights)}
        sub = EGraph(
            len(lefts), len(rights), g.d, frozenset((lmap[i], rmap[j], cc) for (i, j, cc) in keep)
        )
        if sub.violations:
            raise InternalCheckError(f"factor for colour {c} invalid: {sub.violations}")
        if len({cc for (i, _, cc) in sub.edges if i != sub.q}) > 1:
            raise InternalCheckError("factor has mixed ordinary colours")
        factors.append(GraphFactor(c, sub, tuple(lefts), tuple(rights)))
    return factors


def test_factor_linear_egraph_matches_the_reference_on_every_small_linear_graph():
    compared = 0
    for g in small_graphs():
        if is_linear_graph(g):
            assert factor_linear_egraph(g) == reference_factor_linear_egraph(g)
            compared += 1
    assert compared == 5590


def test_decompose_single_colour():
    g = EGraph(2, 2, 1, frozenset({(1, 1, 1), (2, 2, 1)}))
    sg = SnGraph(ExhaustionSpec(2, (1,)), (g,), period=1)
    factors = decompose_sn_graph(sg, prefix_len=3)
    assert len(factors) == 1
    assert factors[0].prefix == (g, g, g)


def test_decompose_product_chain():
    sg = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH,), period=1)
    factors = decompose_sn_graph(sg, prefix_len=6)
    assert len(factors) == 2
    line_factor = EGraph(2, 2, 2, frozenset({(1, 1, 1), (2, 2, 1), (2, 2, 2)}))
    hyper_factor = EGraph(2, 2, 2, frozenset({(2, 1, 1), (1, 1, 2), (2, 2, 2)}))
    assert factors[0].prefix == (line_factor,) * 6
    assert factors[1].prefix == (hyper_factor,) * 6
    for f in factors:
        assert validate_sn_graph(f).ok
        for g in f.prefix:
            assert validate_egraph(g).ok
            assert is_standard_extension_graph(g)


def test_decompose_synthetic_three_levels_with_threading():
    # colour roles swap at every level; the threading declaration follows them
    swapped = EGraph(
        3, 3, 2, frozenset({(1, 1, 2), (3, 2, 2), (2, 2, 1), (3, 3, 1)})
    )
    sg = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH, swapped), period=2)
    threading = [(1, 2), (2, 1), (1, 2), (2, 1)]
    factors = decompose_sn_graph(sg, prefix_len=3, threading=threading)
    assert len(factors) == 2
    for f in factors:
        assert len(f.prefix) == 3
        for g in f.prefix:
            assert validate_egraph(g).ok
            ordinary_colours = {c for (i, _, c) in g.edges if i != g.q}
            assert len(ordinary_colours) <= 1
    # with the identity threading the same chain is inconsistent
    with pytest.raises(DomainError) as exc:
        decompose_sn_graph(sg, prefix_len=3)
    assert str(exc.value) == (
        "inconsistent threading: level 1 colour 1 ordinary edge arrives at a column vertex "
        "the factor drops"
    )


def test_decompose_rejects_merging_chain():
    # after one step both members continue inside a single block: no
    # decomposition is consistent
    r1 = build_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2)
    g2 = EGraph(3, 3, 2, frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1), (3, 3, 2)}))
    sg = SnGraph(ExhaustionSpec(2, (2,)), (r1.graph, g2, g2), period=1)
    rejections = {
        None: "inconsistent threading: level 1 colour 2 ordinary edge arrives at a column "
        "vertex the factor drops",
        ((2, 1), (1, 2), (2, 1), (1, 2)): "inconsistent threading: level 1 factor 1 is invalid "
        "(vertex r1 meets no edge)",
    }
    for threading, message in rejections.items():
        with pytest.raises(DomainError) as exc:
            decompose_sn_graph(sg, prefix_len=3, threading=threading)
        assert str(exc.value) == message


def test_decompose_rejects_nonlinear_level():
    sg = SnGraph(ExhaustionSpec(4, (2,)), (MIXED_GRAPH,), period=1)
    with pytest.raises(DomainError) as exc:
        decompose_sn_graph(sg, 2)
    assert str(exc.value) == "level 1 is not linear"


def test_decompose_rejects_bad_threading():
    sg = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH,), period=1)
    with pytest.raises(DomainError) as exc:
        decompose_sn_graph(sg, prefix_len=2, threading=[(1, 1), (1, 2), (1, 2)])
    assert str(exc.value) == "each threading row must be a permutation of the colours"
