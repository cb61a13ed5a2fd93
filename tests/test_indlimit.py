import collections
import functools
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from conftest import (
    MIXED_GRAPH,
    NOT_ARRAYS,
    PRODUCT_LEVEL_GRAPH,
    clause_numberings,
    forced_prefix,
    insertion_graph,
    reference_admissible,
    reference_clause_walk,
    reference_detect_period,
    reference_split,
    reference_greedy_numbering,
    reference_periodic,
    reference_verify_certificate,
    replace,
    replaced_at,
    small_graphs,
    unplaced_after,
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
from diagflag.errors import DomainError, InternalCheckError, ScaleError
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
from diagflag.supernat import INF, ExhaustionSpec, SupernaturalNumber, _divisors_up_to, validate_exhaustion

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


def test_gft_takes_no_bool_for_an_integer():
    """A bool is an int subclass, but JSON writes it as `true`, which the
    document reader refuses for an integer; so the constructors refuse it
    too.  The one bool a type holds, `has_infinite_quotients`, is written
    as `true` and read back."""
    for build in (
        lambda: GeneralizedFlagType((True, 2), GeometricTail(2, 2), True),
        lambda: GeometricTail(True, 2),
        lambda: GeometricTail(1, True),
        lambda: ConstantTail(True),
        lambda: GeneralizedFlagType((1,), None, 1),
        lambda: GeneralizedFlagType((1,), None, True, ordered_presentation=(True, INF)),
    ):
        with pytest.raises(DomainError):
            build()
    with pytest.raises(DomainError, match="base must be an integer, got True"):
        GeneralizedFlagType.from_json_obj(
            {"finite_quotients": [], "tail": {"kind": "geometric", "base": True, "ratio": 2},
             "infinite_quotients": True}
        )
    gft = GeneralizedFlagType((1, 2), GeometricTail(1, 2), True)
    text = json.dumps(gft.to_json_obj())
    assert "true" in text and GeneralizedFlagType.from_json_obj(json.loads(text)) == gft


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


@NOT_ARRAYS
@pytest.mark.parametrize(
    "path, kind",
    [(("levels",), "chained-graph"), (("levels", 0, "edges"), "graph"), (("spec", "cycle"), "exhaustion")],
    ids=["levels", "edges", "cycle"],
)
def test_a_chained_graph_document_takes_no_string_or_object_for_an_array(path, kind, value):
    doc = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH,), period=1).to_json_obj()
    nested = "" if kind == "chained-graph" else f"bad {kind} document: "
    message = f"^bad chained-graph document: {nested}{path[-1]} must be an array, not {type(value).__name__}$"
    with pytest.raises(DomainError, match=message):
        SnGraph.from_json_obj(replaced_at(doc, path, value))


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
        build_realization_sn_graph(gft_tail, SN2, ExhaustionSpec(2, (2,)), levels=8)
    gft_unordered = GeneralizedFlagType((1,), None, True)
    with pytest.raises(DomainError):
        build_realization_sn_graph(gft_unordered, SN2, ExhaustionSpec(2, (2,)), levels=8)
    gft = GeneralizedFlagType((1, 2), None, True, ordered_presentation=(1, 2, INF))
    with pytest.raises(DomainError):
        build_realization_sn_graph(gft, SN2, ExhaustionSpec(2, (2,)), levels=8)  # s1 too small
    with pytest.raises(DomainError):
        build_realization_sn_graph(gft, SN2, ExhaustionSpec(3, (2,)), levels=8)  # not an exhaustion


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


def test_realization_declares_only_a_true_period():
    """(2, 2, 3) over 2^inf 3^inf from s1 = 2: the first two levels repeat,
    but level 3 has d = 3, so two levels declare no period."""
    gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF))
    real = build_realization_sn_graph(gft, SN23, ExhaustionSpec(2, (2, 2, 3)), levels=2)
    assert [g.d for g in real.sn_graph.prefix] == [2, 2] and real.sn_graph.period is None
    assert build_realization_sn_graph(gft, SN23, ExhaustionSpec(2, (2, 2, 3)), levels=6).sn_graph.period == 3


# The ordered presentations with k = 1, 2, 3 infinite quotients.
ROUND_ROBIN_TYPES = [(1, INF), (INF, 1, INF), (INF, INF, 1, INF)]


def test_realization_periods_hold_beyond_the_built_levels():
    """Level n's graph depends only on d_n and the round-robin offset mod
    k.  For every cycle of up to three multipliers from 1, 2, 3, 4, 6
    valid over 2^inf 3^inf, k = 1, 2, 3 and 1 .. 8 levels, the declared
    period is the least p <= levels whose repetition of the last p levels
    gives, up to level levels + 2p, the graphs a 24-level realization
    builds; and where one is declared, the chain validates up to level
    levels + 2p and its first 24 levels are those graphs."""
    declared = 0
    for length in (1, 2, 3):
        for cycle in itertools.product((1, 2, 3, 4, 6), repeat=length):
            spec = ExhaustionSpec(6, cycle)
            if not validate_exhaustion(spec, SN23).ok:
                continue
            for k, ordered in enumerate(ROUND_ROBIN_TYPES, start=1):
                gft = GeneralizedFlagType((1,), None, True, ordered_presentation=ordered)
                truth = build_realization_sn_graph(gft, SN23, spec, levels=24).sn_graph.prefix
                for levels in range(1, 9):
                    sg = build_realization_sn_graph(gft, SN23, spec, levels=levels).sn_graph
                    true = [
                        p
                        for p in range(1, levels + 1)
                        if all(replace(sg, period=p).level(n) == truth[n - 1] for n in range(1, levels + 2 * p + 1))
                    ]
                    assert sg.period == (true[0] if true else None), (cycle, k, levels)
                    if sg.period is not None:
                        assert validate_sn_graph(sg, upto=levels + 2 * sg.period).ok
                        assert [sg.level(n) for n in range(1, 25)] == list(truth)
                        declared += 1
    assert declared == 1383


def test_detect_period_matches_the_reference_loop():
    """The closed form against trying every p: on the cycles, k and levels
    of `test_realization_periods_hold_beyond_the_built_levels`, and on
    seeded cycles of up to eight multipliers, half of them a block
    repeated, for k = 1 .. 4 and 1 .. 20 levels."""
    cases = [
        (cycle, k, levels)
        for length in (1, 2, 3)
        for cycle in itertools.product((1, 2, 3, 4, 6), repeat=length)
        for k in (1, 2, 3)
        for levels in range(1, 9)
    ]
    rng = random.Random(34)
    for i in range(400):
        if i % 2:
            block = tuple(rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(1, 4)))
            cycle = block * rng.randint(1, 8 // len(block))
        else:
            cycle = tuple(rng.choice((1, 2, 3, 4, 6)) for _ in range(rng.randint(1, 8)))
        cases += [(cycle, k, levels) for k in range(1, 5) for levels in range(1, 21)]
    declared = 0
    for cycle, k, levels in cases:
        expected = reference_detect_period(cycle, k, levels)
        assert indlimit._detect_period(cycle, k, levels) == expected, (cycle, k, levels)
        declared += expected is not None
    assert declared > len(cases) // 2


def test_realization_declares_a_period_no_level_has_repeated():
    """(1, inf) over 2^inf 3^inf along (6,) from s1 = 6: one level shows
    d = 6 and the offset mod 1, which every later level repeats."""
    gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF))
    sg = build_realization_sn_graph(gft, SN23, ExhaustionSpec(6, (6,)), levels=1).sn_graph
    assert sg.period == 1
    assert validate_sn_graph(sg, upto=2).ok


def test_realization_levels_follow_the_evaluation_formula():
    """Each level is built once, by its formula, and the library checks
    none of it.  Over 2^inf 3^inf from s1 = 36, along (6,), (2, 3) and
    (4, 6), for every ordered presentation with at most two finite
    quotients from 1, 2, 3 and one to three infinite ones, in every order
    (201 presentations, 3,618 levels): each level graph is valid, carries
    the level type before it to its own, and its quotients sum to its
    ambient dimension."""
    presentations = {
        ordered
        for finite in range(3)
        for k in (1, 2, 3)
        for values in itertools.product((1, 2, 3), repeat=finite)
        for ordered in itertools.permutations(values + (INF,) * k)
    }
    assert len(presentations) == 201
    checked = 0
    for cycle in ((6,), (2, 3), (4, 6)):
        for ordered in presentations:
            finite = tuple(v for v in ordered if v is not INF)
            gft = GeneralizedFlagType(finite, None, True, ordered_presentation=ordered)
            real = build_realization_sn_graph(gft, SN23, ExhaustionSpec(36, cycle), levels=6)
            types, quotients = real.level_types, real.level_quotients
            assert sum(quotients[0]) == types[0].ambient
            for n, g in enumerate(real.sn_graph.prefix, start=1):
                assert not g.violations, (cycle, ordered, n)
                assert DiagonalEmbedding(g, types[n - 1]).target_type == types[n], (cycle, ordered, n)
                assert sum(quotients[n]) == types[n].ambient, (cycle, ordered, n)
                checked += 1
    assert checked == 3618


def test_realization_limits_are_read_off_the_cycle(monkeypatch):
    """Along (2, 3, 4), every edge of 1 .. 7 levels, whole cycles and a
    part, is counted exactly, the two straight ones of each level and its
    bounding ones: a limit of that count builds them, one less refuses
    them and names the count."""
    gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF))
    spec = ExhaustionSpec(6, (2, 3, 4))
    for levels in range(1, 8):
        edges = sum(2 + spec.cycle[n % 3] - 1 for n in range(levels))
        monkeypatch.setattr(indlimit, "REALIZATION_EDGE_LIMIT", edges)
        real = build_realization_sn_graph(gft, SN23, spec, levels=levels)
        assert sum(len(g.edges) for g in real.sn_graph.prefix) == edges
        monkeypatch.setattr(indlimit, "REALIZATION_EDGE_LIMIT", edges - 1)
        with pytest.raises(ScaleError, match=f"^{levels} levels need {edges} edges; "):
            build_realization_sn_graph(gft, SN23, spec, levels=levels)


def test_realization_refuses_a_billion_levels_at_once():
    gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF))
    started = time.monotonic()
    with pytest.raises(ScaleError) as info:
        build_realization_sn_graph(gft, SN2, ExhaustionSpec(2, (2,)), levels=10**9)
    assert time.monotonic() - started < 1.0
    assert str(info.value) == (
        "1000000000 levels need 3000000000 edges; realizations are limited to 100000"
    )


def test_realization_refuses_only_the_step_ratios_its_levels_reach():
    """Along (2, 10007) over 2^inf 10007^inf, one level has d = 2; the
    second has d = 10007, beyond the colour limit, and within the edge
    limit, so the graph constructor refuses it."""
    gft = GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF))
    sn = SupernaturalNumber.from_factors({2: INF, 10007: INF})
    spec = ExhaustionSpec(2, (2, 10007))
    assert [g.d for g in build_realization_sn_graph(gft, sn, spec, levels=1).sn_graph.prefix] == [2]
    with pytest.raises(ScaleError, match="^vertex and colour counts are limited to 10000; got q=2, p=2, d=10007$"):
        build_realization_sn_graph(gft, sn, spec, levels=2)


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
    assert cert == AdmissibilityCertificate(ExhaustionSpec(1, (2,)))
    assert cert.to_json_obj() == {"kind": "numbered", "exhaustion": ExhaustionSpec(1, (2,)).to_json_obj()}
    assert forced_prefix(gft, 5) == (1, 2, 4, 8, 16)
    assert reference_verify_certificate(gft, SN2, cert.exhaustion, forced_prefix(gft, 12))
    assert verify_certificate(gft, SN2, cert)


def test_not_admissible_constant_tail():
    gft = GeneralizedFlagType((), ConstantTail(1), True)
    result = admissible(gft, SN2)
    assert isinstance(result, NotAdmissible)
    assert result.proof == RefutationProof(1)
    assert result.proof.to_json_obj() == {"kind": "constant_tail_divisibility", "constant_value": 1}
    assert verify_refutation(gft, SN2, result.proof)


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_constant_tail_is_refuted_by_its_value(prime):
    """Over p^inf and p^inf with a finite 2^3, every constant c <= 300,
    with or without explicit quotients, is refuted by its value alone,
    whether or not sn has a divisor near c."""
    for factors in ({prime: INF}, {2: 3, prime: INF}):
        sn = SupernaturalNumber.from_factors(factors)
        for c, explicit in itertools.product(range(1, 301), (False, True)):
            gft = GeneralizedFlagType((1, c) if explicit else (), ConstantTail(c), True)
            result = admissible(gft, sn)
            assert result == NotAdmissible(RefutationProof(c))
            assert verify_refutation(gft, sn, result.proof)


def test_admissible_unknown_for_incompatible_ratio():
    """3 is not a prime of 2^inf, so no cycle obeys the period rule and
    nothing is walked."""
    gft = GeneralizedFlagType((), GeometricTail(1, 3), False)
    result = admissible(gft, SN2, bound=16)
    assert isinstance(result, Unknown)
    assert result.candidates_searched == 0


@pytest.mark.parametrize("bound", [10**4, 10**5])
def test_admissible_walks_nothing_for_a_ratio_with_a_prime_the_number_lacks(bound):
    """tail(1, 5) over 2^inf 3^inf: 5 is not a prime of the number, so no
    cycle is built and the search answers at once at any bound."""
    started = time.monotonic()
    result = admissible(GeneralizedFlagType((), GeometricTail(1, 5), True), SN23, bound=bound)
    assert time.monotonic() - started < 0.1
    assert result == Unknown(0)


def test_admissible_sorts_the_explicit_quotients_once():
    """tail(7, 6) and 997 explicit quotients 1 over 2^inf 3^inf at bound
    10^94: 248,120 walks, which took 2.3-3.5 s when each walk sorted the
    explicit quotients again, against 0.12-0.29 s with none of them."""
    gft = GeneralizedFlagType((1,) * 997, GeometricTail(7, 6), True)
    started = time.monotonic()
    result = admissible(gft, SN23, bound=10**94)
    assert time.monotonic() - started < 1.5
    assert result == Unknown(248_120)


def test_admissible_lists_no_first_term_without_a_cycle():
    """Over 2^inf 3^inf 5^inf 7^inf, more than `DIVISOR_LIMIT` first terms
    lie below 10^60, but tail(1, 11) has a prime the number lacks, so no
    cycle is built and no first term is listed."""
    sn = SupernaturalNumber.from_factors({2: INF, 3: INF, 5: INF, 7: INF})
    with pytest.raises(ScaleError, match="divisors to list"):
        _divisors_up_to(sn.factors, 10**60)
    result = admissible(GeneralizedFlagType((), GeometricTail(1, 11), True), sn, bound=10**60)
    assert result == Unknown(0)


@pytest.mark.parametrize("bound", [-5, 0, 1])
def test_admissible_rejects_bound_below_two(bound):
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    with pytest.raises(DomainError):
        admissible(gft, SN2, bound=bound)


def test_admissible_refuses_a_search_beyond_its_limit(monkeypatch):
    """The search walks |s1 candidates| * |cycles| exhaustions.  For
    tail(7, 6) over 2^inf 3^inf at bound 64 that is 17 * 8 = 136: the s1
    candidates are the 17 divisors up to 64, and the cycles are (6,) and
    (a, 36 / a) for a in 2, 3, 4, 6, 9, 12, 18.  None passes.  Over
    2^inf ... 13^inf, (5,) and tail(60061, 60060) at bound 10^6 would walk
    2,636,052."""
    gft = GeneralizedFlagType((), GeometricTail(7, 6), True)
    monkeypatch.setattr(indlimit, "_SEARCH_LIMIT", 136)
    assert admissible(gft, SN23) == Unknown(136)
    monkeypatch.setattr(indlimit, "_SEARCH_LIMIT", 135)
    with pytest.raises(ScaleError, match="bound 64 gives 136 exhaustions"):
        admissible(gft, SN23)
    monkeypatch.undo()
    sn = SupernaturalNumber.from_factors({p: INF for p in (2, 3, 5, 7, 11, 13)})
    with pytest.raises(ScaleError, match="bound 1000000 gives 2636052 exhaustions"):
        admissible(GeneralizedFlagType((5,), GeometricTail(60061, 60060), True), sn, bound=10**6)


# Supernatural numbers, with and without finite primes, on which the
# search is compared with the reference listing.
REFERENCE_SEARCH_SNS = [
    {2: INF},
    {3: INF},
    {2: INF, 3: INF},
    {2: INF, 3: 1},
    {2: 2, 3: INF, 5: INF},
    {2: INF, 3: INF, 5: 1},
    {2: INF, 5: INF},
]


def _has_exactly_the_primes(r, primes):
    exponents, rest = reference_split(r, primes)
    return rest == 1 and len(exponents) == len(primes)


@st.composite
def search_inputs(draw):
    """A type with up to two explicit quotients and a geometric tail of
    ratio at most 30, a supernatural number and a bound, drawn so that
    about half are certified.  Three ratios r in four have exactly the
    number's infinite primes, the only ones a cycle is built for.  The type
    places j_n * s_n at steps 1 .. e + 1 along a first term dividing the
    number and the cycle (r,) or (a, r^2 / a): e explicit quotients, then
    the tail's base.  One draw in five multiplies one of them by 2 or 3."""
    sn = SupernaturalNumber.from_factors(draw(st.sampled_from(REFERENCE_SEARCH_SNS)))
    matching = [r for r in range(2, 31) if _has_exactly_the_primes(r, sn.infinite_primes)]
    ratio = draw(st.sampled_from(matching) if draw(st.integers(0, 3)) else st.integers(2, 30))
    split = draw(st.sampled_from([a for a in range(2, ratio**2 // 2 + 1) if ratio**2 % a == 0]))
    cycle = draw(st.sampled_from([(ratio,), (split, ratio**2 // split)]))
    terms = list(ExhaustionSpec(draw(st.sampled_from(_divisors_up_to(sn.factors, 30))), cycle).terms(4))
    placed = [terms[n] * draw(st.integers(1, max(1, terms[n + 1] // terms[n] - 1))) for n in range(3)]
    e = draw(st.integers(0, 2))
    if not draw(st.integers(0, 4)):
        placed[draw(st.integers(0, e))] *= draw(st.sampled_from([2, 3]))
    gft = GeneralizedFlagType(tuple(placed[:e]), GeometricTail(placed[e], ratio), True)
    return gft, sn, draw(st.sampled_from([2, 3, 16, 64, 1000]))


def test_the_search_matches_the_reference_listing():
    """On drawn types, numbers and bounds, `admissible` answers as the
    reference listing does, with the same certificate, and certifies at
    least 100 of the draws."""
    certified = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(search_inputs())
    def check(inputs):
        gft, sn, bound = inputs
        result, expected = admissible(gft, sn, bound), reference_admissible(gft, sn, bound)
        assert type(result) is type(expected)
        if isinstance(result, Admissible):
            assert result.certificate == expected.certificate
            certified.append(result)

    check()
    assert len(certified) >= 100


def test_admissible_geometric_with_finite_part():
    gft = GeneralizedFlagType((1,), GeometricTail(2, 2), False)
    result = admissible(gft, SN2)
    assert isinstance(result, Admissible)
    assert result.certificate.exhaustion == ExhaustionSpec(1, (2,))
    assert forced_prefix(gft, 3) == (1, 2, 4)
    assert verify_certificate(gft, SN2, result.certificate)


def test_admissible_geometric_base3_over_mixed():
    sn = SupernaturalNumber.from_factors({2: INF, 3: 1})
    gft = GeneralizedFlagType((), GeometricTail(3, 2), False)
    result = admissible(gft, sn)
    assert isinstance(result, Admissible)
    assert result.certificate.exhaustion.s1 == 3


# Over these the forced-order lemma is checked by brute force: 2^inf,
# 2^inf 3^inf and 2^inf 3, with their finite divisors below 100.
LEMMA_SNS = [{2: INF}, {2: INF, 3: INF}, {2: INF, 3: 1}]
LEMMA_FINITE_PARTS = [(), *((d,) for d in (1, 2, 3, 4, 6, 8)), *itertools.combinations_with_replacement((1, 2, 3, 4, 6, 8), 2)]


def test_the_numbering_along_any_exhaustion_is_forced():
    """The lemma behind the certificate format: along any chain meeting
    both clauses, the dimension placed at step n is below s_(n+1), which
    divides every later one, so the dimensions go in increasing order and
    none repeats.  For types with at most two explicit quotients and a
    small geometric tail, every numbering of k <= 5 steps by the k + 2
    smallest dimensions, along every chain of divisors below 100, that
    meets both clauses numbers the k smallest in increasing order; 3,339
    pairs do."""
    found = 0
    for factors in LEMMA_SNS:
        divisors = _divisors_up_to(SupernaturalNumber.from_factors(factors).factors, 99)
        for finite in LEMMA_FINITE_PARTS:
            for base, ratio in itertools.product((1, 2, 3, 4, 6), (2, 3, 4, 6)):
                for k in range(1, 6):
                    tail = [base * ratio**i for i in range(k + 2)]
                    pool = sorted(list(finite) + tail)[: k + 2]
                    for chain, numbering in clause_numberings(pool, divisors, k):
                        assert numbering == pool[:k], (finite, base, ratio, chain, numbering)
                        assert all(a < b for a, b in zip(numbering, numbering[1:]))
                        found += 1
    assert found == 3339


@pytest.mark.parametrize("factors", LEMMA_SNS, ids=str)
def test_the_walk_checks_only_the_placed_dimension(factors):
    """Clause 2 along the forced order follows from the divisibility of
    each dimension at its own step, as s_n divides every later term.  So
    on drawn types and exhaustions, both clauses on every remaining
    dimension hold for k <= 8 steps exactly when `_walk` passes k steps
    and s_k divides what is still unplaced after step k.  A cycle off the
    period rule fails both within 200 steps."""
    rng = random.Random(f"walk-{factors}")
    divisors = _divisors_up_to(SupernaturalNumber.from_factors(factors).factors, 99)
    multipliers = [d for d in divisors if 2 <= d <= 16]
    passed = refuted = 0
    for _ in range(1500):
        s1 = rng.choice(divisors[:8])
        cycle = tuple(rng.choice(multipliers) for _ in range(rng.randint(1, 3)))
        # Half the types place j_n * s_n at steps 1 .. e + 1 (e explicit
        # quotients, then the tail's base), so that many walks pass.
        if rng.randint(0, 1):
            terms = list(ExhaustionSpec(s1, cycle).terms(4))
            placed = [terms[n] * rng.randint(1, terms[n + 1] // terms[n] - 1) for n in range(3)]
            e = rng.randint(0, 2)
            finite, base = tuple(placed[:e]), placed[e]
        else:
            finite, base = rng.choice(LEMMA_FINITE_PARTS), rng.choice((1, 2, 3, 4, 6))
        gft = GeneralizedFlagType(finite, GeometricTail(base, rng.choice((2, 3, 4, 6))), True)
        for k, s_k in enumerate(ExhaustionSpec(s1, cycle).terms(8), start=1):
            expected = reference_clause_walk(gft, s1, cycle, k)
            walked = indlimit._walk(gft, s1, cycle, k) is not None and all(x % s_k == 0 for x in unplaced_after(gft, k))
            assert walked == expected, (gft, s1, cycle, k)
            passed += expected
        if not reference_periodic(gft.tail, cycle):
            assert not reference_clause_walk(gft, s1, cycle, 200)
            assert indlimit._walk(gft, s1, cycle, 200) is None
            refuted += 1
    assert passed >= 1500 and refuted >= 1000


def _numbered(s1, cycle):
    return AdmissibilityCertificate(ExhaustionSpec(s1, cycle))


def test_certificate_verification_rejects_tampering():
    """The doubling exhaustion certifies tail(1, 2) over 2^inf; quadrupling
    or starting at 2 does not."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    cert = admissible(gft, SN2).certificate
    assert verify_certificate(gft, SN2, cert)
    assert not verify_certificate(gft, SN2, _numbered(1, (4,)))
    assert not verify_certificate(gft, SN2, _numbered(2, (2,)))


def test_certificate_verification_rejects_an_unplaced_explicit_quotient():
    """{2^20} plus tail(1, 2) over 2^inf along s1 = 1, cycle (2): steps 1 to
    20 place 1, 2, ..., 2^19 and meet both clauses, step 21 places the
    explicit 2^20, and then s_22 = 2^21 does not divide the tail's 2^20.
    A prefix of 1, 2, ..., 2^11 met both clauses at every step and left
    2^20 unplaced."""
    gft = GeneralizedFlagType((2**20,), GeometricTail(1, 2), True)
    assert isinstance(admissible(gft, SN2), Unknown)
    assert not verify_certificate(gft, SN2, _numbered(1, (2,)))
    assert indlimit._walk(gft, 1, (2,), 22) is None and indlimit._walk(gft, 1, (2,), 21) is not None


def test_certificate_verification_rejects_an_explicit_quotient_beyond_the_prefix():
    """The certificate of {1} plus tail(2, 2) fails once 2^12, the first
    dimension beyond the 12 a prefix listed, is also explicit: it is
    placed at step 13 and leaves the equal tail dimension below the term."""
    gft = GeneralizedFlagType((1,), GeometricTail(2, 2), False)
    cert = admissible(gft, SN2).certificate
    assert verify_certificate(gft, SN2, cert)
    extended = GeneralizedFlagType((1, 2**12), GeometricTail(2, 2), False)
    assert not verify_certificate(extended, SN2, cert)


def test_certificate_verification_follows_the_tail_rule_past_the_prefix():
    """Tail(1, 2) over 2^inf along s1 = 1, cycle (2,)*12 + (4,): steps 1 to
    13 place 1, 2, ..., 2^12 and meet both clauses (the first 12 were a
    prefix), but at step 14 the term 2^14 does not divide the next tail
    dimension 2^13."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2), True)
    assert not verify_certificate(gft, SN2, _numbered(1, (2,) * 12 + (4,)))
    assert verify_certificate(gft, SN2, _numbered(1, (2,)))


def test_certificate_verification_accepts_a_long_cycle():
    """A cycle of 250 doublings is the doubling chain, so the certificate
    holds; the walk takes E + L = 251 steps.  Ending the cycle with a 4
    instead breaks the period rule (the product is 2^251, not 2^250), and
    the walk fails within E + L steps too: step 250 places 2^249 at term
    2^249 and leaves the term 2^251, which exceeds the next tail dimension
    2^250 at step 251."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2), True)
    assert verify_certificate(gft, SN2, _numbered(1, (2,) * 250))
    assert not verify_certificate(gft, SN2, _numbered(1, (2,) * 249 + (4,)))
    broken = (2,) * 249 + (4,)
    assert indlimit._walk(gft, 1, broken, 250) is not None and indlimit._walk(gft, 1, broken, 251) is None
    # With 1, 2, ..., 2^11 explicit and the tail from 2^12 on, E = 12, and
    # the walk takes 12 + 250 steps.
    explicit = GeneralizedFlagType(tuple(2**i for i in range(12)), GeometricTail(2**12, 2), True)
    assert verify_certificate(explicit, SN2, _numbered(1, (2,) * 250))
    assert indlimit._walk(explicit, 1, (2,) * 250, 262) is not None


def test_certificate_verification_asks_the_period_rule():
    """Tail(4, 2) over 2^inf along s1 = 1, cycle (8,): E + L = 2 steps pass
    (4 at term 1, 8 at term 8), but one period multiplies the next tail
    dimension over the next term by 2 / 8, and step 3 places 16 at term
    64.  That ratio goes from 8 / 8 after step E = 1 to 2 / 8 after step
    2, so it does not return, and the certificate is rejected without
    step 3."""
    gft = GeneralizedFlagType((), GeometricTail(4, 2), True)
    assert indlimit._walk(gft, 1, (8,), 2) == [(1, 1), (1, 4)] and indlimit._walk(gft, 1, (8,), 3) is None
    assert not reference_periodic(gft.tail, (8,))
    assert not verify_certificate(gft, SN2, _numbered(1, (8,)))


def test_certificate_verification_walks_steps_not_multipliers():
    """At bound 2^50, tail(1, 2^50) over 2^inf is certified along s1 = 1,
    cycle (2^50,).  The walk takes E + L = 2 steps; a bound that counted
    the states a multiplier allows would have 2^50 of them."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2**50), True)
    result = admissible(gft, SN2, bound=2**50)
    assert result.certificate.exhaustion == ExhaustionSpec(1, (2**50,))
    assert verify_certificate(gft, SN2, result.certificate)


def test_certificate_verification_refuses_a_walk_beyond_its_limit():
    """E + L steps: a doubling cycle of 999 after E = 1, and the doubling
    cycle after E = 999, read off an explicit 2^998 that the forced order
    places after the tail's 1, 2, ..., 2^997.  One step more is refused
    before the walk; so is an explicit 2^(10^5), counted only to just past
    the limit."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2), True)
    longest = CERTIFICATE_STEP_LIMIT - 1
    assert verify_certificate(gft, SN2, _numbered(1, (2,) * longest))
    with pytest.raises(ScaleError, match="verification is limited"):
        verify_certificate(gft, SN2, _numbered(1, (2,) * (longest + 1)))
    for exponent, refused in ((998, False), (999, True), (10**5, True)):
        late = GeneralizedFlagType((2**exponent,), GeometricTail(1, 2), True)
        if refused:
            with pytest.raises(ScaleError, match="verification is limited"):
                verify_certificate(late, SN2, _numbered(1, (2,)))
        else:
            assert not verify_certificate(late, SN2, _numbered(1, (2,)))


def test_certificate_verification_checks_a_constant_tail():
    """A constant tail is never admissible, so a numbered certificate of
    one is rejected before E is read off the type or the walk is counted:
    a cycle beyond the step limit raises no ScaleError.  The types are
    explicit 1 with constant 3, explicit 1, 2 with constant 4, and
    explicit 1, 2, ..., 2^11 with constant 1.  Each type is refuted, and
    only the refutation verifies."""
    for finite, value in (((1,), 3), ((1, 2), 4), (tuple(2**i for i in range(12)), 1)):
        gft = GeneralizedFlagType(finite, ConstantTail(value), True)
        assert not verify_certificate(gft, SN2, _numbered(1, (2,)))
        assert not verify_certificate(gft, SN2, _numbered(1, (2,) * CERTIFICATE_STEP_LIMIT))
        result = admissible(gft, SN2)
        assert result == NotAdmissible(RefutationProof(value))
        assert verify_refutation(gft, SN2, result.proof)


def test_certificate_verification_rejects_a_numbered_certificate_without_an_exhaustion():
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    cert = admissible(gft, SN2).certificate
    assert not verify_certificate(gft, SN2, replace(cert, exhaustion=None))


def test_certificate_verification_rejects_a_numbered_certificate_of_a_type_without_a_tail():
    """Explicit 1, 2, ..., 2^11 and no tail: a prefix listing all twelve
    along the doubling chain was accepted when certificates carried one,
    as the reference still shows; now only the finite certificate is."""
    gft = GeneralizedFlagType(tuple(2**i for i in range(12)), None, True)
    assert reference_verify_certificate(gft, SN2, ExhaustionSpec(1, (2,)), forced_prefix(gft, 12))
    assert not verify_certificate(gft, SN2, _numbered(1, (2,)))
    assert verify_certificate(gft, SN2, admissible(gft, SN2).certificate)


def test_certificate_verification_rejects_an_exhaustion_of_another_number():
    """s1 = 1, cycle (2,) exhausts 2^inf but not 2^inf 3^inf: no term is a
    multiple of 3."""
    gft = GeneralizedFlagType((), GeometricTail(1, 2), False)
    cert = admissible(gft, SN2).certificate
    assert verify_certificate(gft, SN2, cert)
    assert not verify_certificate(gft, SN23, cert)


def test_certificate_verification_rejects_an_explicit_quotient_the_term_does_not_divide():
    """The doubling certificate of tail(1, 2), for the type with one more
    quotient 3: step 1 places 1, and s_2 = 2 does not divide the
    remaining 3."""
    cert = admissible(GeneralizedFlagType((), GeometricTail(1, 2), False), SN2).certificate
    gft = GeneralizedFlagType((3,), GeometricTail(1, 2), False)
    assert not verify_certificate(gft, SN2, cert)


def test_certificate_verification_rejects_a_tail_dimension_the_term_does_not_divide():
    """Explicit 4 and tail(2, 2) along s1 = 4, cycle (2,): s_1 = 4 does not
    divide the first tail dimension 2."""
    gft = GeneralizedFlagType((4,), GeometricTail(2, 2), False)
    assert not verify_certificate(gft, SN2, _numbered(4, (2,)))


def test_certificate_verification_rejects_a_factor_too_long_to_print():
    """Over 2^inf, the cycle (7^4000,) x 3 obeys the period rule of a tail
    of ratio 7^4000, and its product carries 7^12000, past the digits the
    interpreter prints; the certificate is rejected, not raised on."""
    gft = GeneralizedFlagType((), GeometricTail(1, 7**4000), True)
    assert not verify_certificate(gft, SN2, _numbered(1, (7**4000,) * 3))


def test_certificate_verification_rejects_a_finite_certificate_with_an_exhaustion_or_prefix():
    """A finite certificate carries no exhaustion (and no longer any
    prefix to carry): one with an exhaustion is numbered, and certifies no
    type without a tail."""
    gft = GeneralizedFlagType((5, 7), None, True)
    cert = admissible(gft, SN2).certificate
    assert verify_certificate(gft, SN2, cert)
    assert not verify_certificate(gft, SN2, replace(cert, exhaustion=ExhaustionSpec(1, (2,))))


@pytest.mark.parametrize("cycle, certified", [((2,), 999), ((2, 2), 998)])
def test_greedy_numbering_gives_up_at_its_step_limit(cycle, certified):
    """Explicit quotients 2^0 .. 2^(c-1) and tail(2^c, 2) over 2^inf along
    s1 = 1: the explicit quotients are placed by step E = c, and the state
    after it recurs one cycle later, at step c + L.  The search walks the
    cycle, and certifies, exactly when c + L is at most
    `CERTIFICATE_STEP_LIMIT` (1,000), the steps `verify_certificate`
    walks; so does the reference greedy given that limit.  `admissible`
    certifies up to c = 999, as (2,) and (2, 2) are its only cycles
    periodic for the tail, and its certificates verify."""
    for c in (certified, certified + 1):
        gft = GeneralizedFlagType(tuple(2**i for i in range(c)), GeometricTail(2**c, 2), True)
        greedy = reference_greedy_numbering(gft, 1, cycle, limit=CERTIFICATE_STEP_LIMIT + 1)
        if c == certified:
            assert indlimit._walk(gft, 1, cycle, c + len(cycle)) is not None
            assert greedy == tuple(2**i for i in range(c + len(cycle)))
            assert verify_certificate(gft, SN2, _numbered(1, cycle))
        else:
            assert greedy is None
            with pytest.raises(ScaleError, match="verification is limited"):
                verify_certificate(gft, SN2, _numbered(1, cycle))
        result = admissible(gft, SN2)
        assert isinstance(result, Admissible) == (c <= 999)
        if c <= 999:
            assert result.certificate == _numbered(1, (2,))
            assert verify_certificate(gft, SN2, result.certificate)
        else:
            assert isinstance(result, Unknown)


@st.composite
def greedy_inputs(draw):
    """A type with up to three explicit quotients and a geometric tail, and
    an exhaustion of s1 and up to three multipliers, periodic for the tail
    or not; the walk's arithmetic asks no more of them."""
    finite = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 32]), max_size=3)))
    tail = GeometricTail(draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12])), draw(st.sampled_from([2, 3, 4, 6, 8, 9])))
    s1 = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    cycle = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 6, 8, 9, 16]), min_size=1, max_size=3)))
    return GeneralizedFlagType(finite, tail, True), s1, cycle


@settings(max_examples=300, deadline=None)
@given(greedy_inputs())
def test_greedy_numbering_matches_the_reference(inputs):
    """The search certifies, by the period rule and a walk of E + L steps,
    exactly when the reference greedy, which hashes Fraction states, finds
    a repeat; by the period rule only for a cycle with ratio^len(cycle) =
    cycle product."""
    gft, s1, cycle = inputs
    expected = reference_greedy_numbering(gft, s1, cycle)
    assert expected is None or gft.tail.ratio ** len(cycle) == math.prod(cycle)
    steps = indlimit._explicit_steps(gft) + len(cycle)
    certified = reference_periodic(gft.tail, cycle) and indlimit._walk(gft, s1, cycle, steps) is not None
    assert certified == (expected is not None)


def reference_verdict(gft, sn, spec):
    """The reference verifier on the forced prefix of length max(12, E + L):
    E the step that places the last explicit quotient (1 when there is
    none, 12 when none within 500 steps, so that the prefix leaves one
    unplaced) and L the cycle length."""
    remaining = collections.Counter(gft.finite_quotients)
    last = 1
    for n, dim in enumerate(forced_prefix(gft, 500), start=1):
        if not +remaining:
            break
        if remaining[dim]:
            remaining[dim] -= 1
            last = n
    if +remaining:
        last = 12
    return reference_verify_certificate(gft, sn, spec, forced_prefix(gft, max(12, last + len(spec.cycle))))


# Per supernatural number, the first terms and tail ratios the draws use:
# over 2^inf 3 the first term carries the 3, and the cycle cannot.
NUMBERED_DRAWS = [
    ({2: INF}, [1, 2, 4], [2, 4, 8]),
    ({2: INF, 3: INF}, [1, 2, 3, 6], [6, 12, 18]),
    ({2: INF, 3: 1}, [3, 6, 12], [2, 4, 8]),
]


@st.composite
def numbered_inputs(draw):
    """A type with a tail, a supernatural number and an exhaustion, drawn
    so that more than half of them are certified.  The cycle is mostly
    periodic for the tail: one to three multipliers whose product is
    ratio^L.  The type places j_n * s_n at steps 1 .. e + 1, with
    j_n <= d_n - 1 where d_n >= 2: e explicit quotients, then the tail's
    base.  One draw in five multiplies one of them by 2 or 3, and one in
    eight makes the tail constant."""
    factors, firsts, ratios = draw(st.sampled_from(NUMBERED_DRAWS))
    s1, ratio = draw(st.sampled_from(firsts)), draw(st.sampled_from(ratios))
    if draw(st.integers(0, 3)):
        split = draw(st.sampled_from([a for a in range(2, ratio**2 // 2 + 1) if ratio**2 % a == 0]))
        cycle = draw(st.sampled_from([(ratio,), (split, ratio**2 // split), (split, ratio**2 // split, ratio)]))
    else:
        cycle = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9]), min_size=1, max_size=3)))
    terms = list(ExhaustionSpec(s1, cycle).terms(4))
    placed = [terms[n] * min(draw(st.integers(1, 3)), max(1, terms[n + 1] // terms[n] - 1)) for n in range(3)]
    e = draw(st.integers(0, 2))
    if not draw(st.integers(0, 4)):
        placed[draw(st.integers(0, e))] *= draw(st.sampled_from([2, 3]))
    tail = GeometricTail(placed[e], ratio) if draw(st.integers(0, 7)) else ConstantTail(placed[e])
    gft = GeneralizedFlagType(tuple(placed[:e]), tail, True)
    return gft, SupernaturalNumber.from_factors(factors), ExhaustionSpec(s1, cycle)


def test_certificate_verification_matches_the_reference():
    """On drawn exhaustions, periodic for the tail or not, the verifier
    answers as the reference does on the forced prefix, and accepts at
    least 200 of them."""
    verdicts = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(numbered_inputs())
    def check(inputs):
        gft, sn, spec = inputs
        verdict = verify_certificate(gft, sn, _numbered(spec.s1, spec.cycle))
        assert verdict == reference_verdict(gft, sn, spec)
        verdicts.append(verdict)

    check()
    assert sum(verdicts) >= 200


@st.composite
def ratio_walks(draw):
    """A type with a geometric tail and an exhaustion along which the walk
    of E + L steps mostly passes, the cycle off the period rule more often
    than not.  Steps 1 .. e place e <= 2 explicit quotients j_n * s_n and
    step e + 1 the tail's base, each j_n drawn in [1, d_n - 1].  Each
    later step, while x = t / s is an integer, gives a cycle position not
    yet drawn a multiplier d that divides x * ratio and exceeds x, so that
    the step passes and x stays an integer."""
    ratio, length = draw(st.sampled_from([2, 3, 4, 6])), draw(st.integers(1, 3))
    e, s1 = draw(st.integers(0, 2)), draw(st.sampled_from([1, 2, 3]))
    multipliers = st.sampled_from([2, 3, 4, 6, 8, 9, 12])
    cycle, placed, s = [None] * length, [], s1
    for n in range(e + 1):
        d = cycle[n % length] = cycle[n % length] or draw(multipliers)
        j = draw(st.integers(1, d - 1))
        placed.append(j * s)
        s *= d
    x = Fraction(j * ratio, d)
    for n in range(e + 1, max(e, 1) + length):
        if x.denominator > 1:
            break
        top = int(x) * ratio
        if cycle[n % length] is None:
            cycle[n % length] = draw(st.sampled_from([d for d in range(int(x) + 1, top + 1) if top % d == 0]))
        x = x * ratio / cycle[n % length]
    cycle = tuple(d or draw(multipliers) for d in cycle)
    return GeneralizedFlagType(tuple(placed[:-1]), GeometricTail(placed[-1], ratio), True), s1, cycle


def test_the_ratio_returns_exactly_under_the_period_rule():
    """On drawn walks of E + L steps that pass, the ratio of the next tail
    dimension to the next term after step E + L is the one after step E
    exactly when the cycle obeys the period rule, ratio^L = the cycle
    product, taken by the product route.  At least 40 passing walks obey
    the rule and at least 200 do not."""
    returned = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(ratio_walks())
    def check(inputs):
        gft, s1, cycle = inputs
        ratios = indlimit._walk(gft, s1, cycle, indlimit._explicit_steps(gft) + len(cycle))
        if ratios is not None:
            periodic = reference_periodic(gft.tail, cycle)
            assert (ratios[0] == ratios[-1]) == periodic, inputs
            returned.append(periodic)

    check()
    assert sum(returned) >= 40 and len(returned) - sum(returned) >= 200


# 10^4299, the largest power of ten the interpreter prints, as a cycle entry
# over 2^inf 5^inf; its terms would reach 10^(4299 * 999).
TEN_4299 = 10**4299
SN25 = SupernaturalNumber.from_factors({2: INF, 5: INF})


@pytest.mark.parametrize("last, certified", [(TEN_4299, True), (2 * TEN_4299, False)])
def test_certificate_verification_keeps_the_walk_in_lowest_terms(last, certified):
    """Tail(1, 10^4299) along s1 = 1 and 998 multipliers 10^4299, then
    `last`: the walk keeps the ratio of the next tail dimension to the
    next term in lowest terms, 1 at every step, so 1,000 steps take well
    under a second.  Doubling the last multiplier leaves the exhaustion
    valid but halves the ratio, which then does not return."""
    gft = GeneralizedFlagType((), GeometricTail(1, TEN_4299), True)
    started = time.monotonic()
    assert verify_certificate(gft, SN25, _numbered(1, (TEN_4299,) * 998 + (last,))) is certified
    assert time.monotonic() - started < 1


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


def test_emitted_certificates_match_the_reference():
    for gft, sn, cert in emitted_certificates():
        assert verify_certificate(gft, sn, cert)
        if cert.kind == "finite":
            assert reference_verify_certificate(gft, sn, None, ())
        else:
            assert reference_verdict(gft, sn, cert.exhaustion)


def test_every_emitted_certificate_verifies_within_the_step_limit():
    """`admissible` walks only candidates of at most
    `CERTIFICATE_STEP_LIMIT` steps, the limit `verify_certificate` holds
    to, so no certificate it emits is refused: explicit parts placed by
    step c <= 1,000, and the small grid.  Explicit r^0 .. r^(c-1) before
    tail(r^c, r) is certified along s1 = 1, cycle (r,) up to c = 999, for
    r = 2 and 4 over 2^inf and r = 6 over 2^inf 3^inf."""
    emitted = 0
    for c, ratio, sn in itertools.product((997, 998, 999, 1000), (2, 4, 6), (SN2, SN23)):
        gft = GeneralizedFlagType(tuple(ratio**i for i in range(c)), GeometricTail(ratio**c, ratio), True)
        result = admissible(gft, sn)
        if isinstance(result, Admissible):
            assert result.certificate == _numbered(1, (ratio,)) and c <= 999
            assert verify_certificate(gft, sn, result.certificate)
            emitted += 1
    assert emitted == 9
    for gft, sn, cert in emitted_certificates():
        assert verify_certificate(gft, sn, cert)


def test_refutation_verification_rejects_a_geometric_tail():
    gft = GeneralizedFlagType((), GeometricTail(4, 2), True)
    assert not verify_refutation(gft, SN2, RefutationProof(4))


# The ROADMAP grid of geometric tails: sn, tail base, tail ratio, finite part.
GRID_SNS = [{2: INF}, {3: INF}, {2: INF, 3: INF}, {2: INF, 3: 1}, {2: INF, 3: INF, 5: 1}]
GRID_FINITE_PARTS = [(), (1,), (2,), (3,), (1, 2)]


def test_admissibility_grid_is_pinned():
    """3,300 types at the default bound: the verdict counts, a digest of
    every certificate and search count, and one of the certificates alone.  Each certificate's exhaustion is
    valid for its number, and the reference verifier accepts it on the
    forced prefix."""
    results = []
    counts = {"Admissible": 0, "NotAdmissible": 0, "Unknown": 0}
    for factors in GRID_SNS:
        sn = SupernaturalNumber.from_factors(factors)
        for base, ratio, finite in itertools.product(range(1, 13), range(2, 13), GRID_FINITE_PARTS):
            gft = GeneralizedFlagType(finite, GeometricTail(base, ratio), True)
            result = admissible(gft, sn)
            counts[type(result).__name__] += 1
            if isinstance(result, Admissible):
                spec = result.certificate.exhaustion
                assert validate_exhaustion(spec, sn).ok
                assert reference_verdict(gft, sn, spec)
                results.append(result.certificate.to_json_obj())
            elif isinstance(result, Unknown):
                results.append([result.reason, result.candidates_searched])
            else:
                results.append(result.proof.to_json_obj())
    assert counts == {"Admissible": 107, "NotAdmissible": 0, "Unknown": 3193}
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "59a801561df5fa88"
    verdicts = ["Unknown" if isinstance(r, list) else r for r in results]
    assert hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()[:16] == "1965efaa0f292bda"


def test_refutation_verification_rejects_bad_witness():
    """A refutation names the constant; a wrong value, or a type whose
    tail is geometric or absent, is rejected."""
    gft = GeneralizedFlagType((), ConstantTail(4), True)
    assert verify_refutation(gft, SN2, RefutationProof(4))
    assert verify_refutation(gft, SN23, RefutationProof(4))
    assert not verify_refutation(gft, SN2, RefutationProof(3))
    assert not verify_refutation(gft, SN2, RefutationProof(8))
    assert not verify_refutation(GeneralizedFlagType((), GeometricTail(4, 4), True), SN2, RefutationProof(4))
    assert not verify_refutation(GeneralizedFlagType((4,), None, True), SN2, RefutationProof(4))


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
