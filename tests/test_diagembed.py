
import itertools
import random
import tracemalloc
from collections import Counter
from functools import cached_property

import pytest
from conftest import (
    MIXED_GRAPH,
    MIXED_SOURCE,
    block_embed,
    cumulative_evaluate,
    growth_graph,
    insertion_graph,
    is_linear,
    random_embedding,
    reversed_flag,
    sample_images,
    small_graphs,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from diagflag import diagembed, egraph, ratlin
from diagflag.cli import main
from diagflag.diagembed import (
    SWEEP_WORK_LIMIT,
    DiagonalEmbedding,
    constant_spaces,
    embedding_from_alpha,
    equivariance_check,
    graph_pullback,
    is_linear_graph,
    is_standard_extension_graph,
    oracle_sweep,
    picard_pullback,
    sweep_work,
    unipotent_inclusion,
)
from diagflag.egraph import (
    EGraph,
    ParabolicRestriction,
    SurjectionAlpha,
    build_from_alpha,
    enumerate_valid_graphs,
    surjections,
)
from diagflag.errors import DomainError, InternalCheckError, ScaleError
from diagflag.flagcore import (
    FlagType,
    coordinate_flag,
    level_flag,
    random_flag,
    support_and_constants,
)
from diagflag.ratlin import Flag, RatSubspace, is_rref, stabilizer_oracle


def test_mixed_graph_target_type():
    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    assert emb.target_type == FlagType(6, (1, 3, 5))


def test_mixed_graph_evaluation_formula(rng):
    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    full = RatSubspace.full(3)
    for _ in range(15):
        flag = random_flag(MIXED_SOURCE, rng)
        v1, v2 = flag.chain
        expected = (
            block_embed(v1, 1, 2),
            block_embed(v1, 1, 2) + block_embed(v2, 2, 2),
            block_embed(v2, 1, 2) + block_embed(full, 2, 2),
        )
        assert emb.evaluate(flag).chain == expected


def test_straight_graph_is_identity(rng):
    g = EGraph(3, 3, 1, frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1)}))
    emb = DiagonalEmbedding(g, FlagType(5, (2, 4)))
    for _ in range(10):
        flag = random_flag(FlagType(5, (2, 4)), rng)
        assert emb.evaluate(flag) == flag


def test_restriction_evaluation_example():
    alpha = SurjectionAlpha.of([1, 2, 2, 3])
    emb = embedding_from_alpha(alpha, 2)
    line = Flag(2, (RatSubspace.span(2, [[1, 1]]),))
    image = emb.evaluate(line)
    assert image.chain[0] == RatSubspace.span(4, [[1, 1, 0, 0]])
    assert image.chain[1] == RatSubspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]])
    restriction = build_from_alpha(alpha, 2)
    assert emb.evaluate(level_flag(restriction.beta)) == level_flag(alpha.values)


def test_evaluate_rejects_wrong_type():
    """The flag's type is compared field by field; a flag whose ambient no
    flag type allows is reported as such."""
    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    for flag, message in [
        (coordinate_flag(FlagType(3, (1,))), "flag does not match the source type"),
        (coordinate_flag(FlagType(4, (1, 2))), "flag does not match the source type"),
        (Flag(0, ()), "ambient dimension must be positive"),
        (Flag(-1, ()), "ambient dimension must be positive"),
    ]:
        with pytest.raises(DomainError, match=f"^{message}$"):
            emb.evaluate(flag)


def test_pullback_mixed_graph():
    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    assert picard_pullback(emb).matrix == ((1, 0), (1, 1), (0, 1))


def test_pullback_straight_graph():
    g = EGraph(3, 3, 1, frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1)}))
    emb = DiagonalEmbedding(g, FlagType(4, (1, 2)))
    assert picard_pullback(emb).matrix == ((1, 0), (0, 1))


def test_pullback_never_misses_a_generator():
    """Every source generator is hit: the image of the pullback is not
    contained in any generator-omitting sublattice.  (Rows, by contrast,
    can vanish: a constant target member pulls its generator back to 0.)"""
    zero_row_seen = False
    for n in range(2, 7):
        for d in (2, 3):
            if n % d:
                continue
            for alpha in surjections(n):
                result = build_from_alpha(alpha, n // d)
                if not isinstance(result, ParabolicRestriction):
                    continue
                if result.flag_type is None:
                    continue
                emb = DiagonalEmbedding(result.graph, result.flag_type)
                matrix = picard_pullback(emb).matrix
                for col in range(result.graph.q - 1):
                    assert any(row[col] for row in matrix)
                zero_row_seen = zero_row_seen or not all(any(row) for row in matrix)
    assert zero_row_seen  # constant members do occur in the sweep


def test_linearity_criteria():
    assert not is_linear_graph(MIXED_GRAPH)
    assert not is_standard_extension_graph(MIXED_GRAPH)
    gb = insertion_graph(4, 2)
    gc = growth_graph(4, 2)
    assert is_standard_extension_graph(gb) and is_linear_graph(gb)
    assert is_standard_extension_graph(gc) and is_linear_graph(gc)
    # pullbacks of extension graphs are linear matrices
    for g in (gb, gc):
        emb = DiagonalEmbedding(g, FlagType(4, (1, 2, 3)))
        assert is_linear(picard_pullback(emb))
    # linear but not a standard extension
    r = build_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2)
    assert is_linear_graph(r.graph)
    assert not is_standard_extension_graph(r.graph)


def test_se_graph_implies_linear_exhaustively():
    for n in range(2, 7):
        for d in (2, 3):
            if n % d:
                continue
            for alpha in surjections(n):
                result = build_from_alpha(alpha, n // d)
                if isinstance(result, ParabolicRestriction):
                    if is_standard_extension_graph(result.graph):
                        assert is_linear_graph(result.graph)


def test_linear_graph_iff_linear_pullback():
    for n in range(2, 7):
        for d in (2, 3):
            if n % d:
                continue
            for alpha in surjections(n):
                result = build_from_alpha(alpha, n // d)
                if not isinstance(result, ParabolicRestriction) or result.flag_type is None:
                    continue
                emb = DiagonalEmbedding(result.graph, result.flag_type)
                assert is_linear_graph(result.graph) == is_linear(picard_pullback(emb))


def test_insertion_graph_evaluation(rng):
    """Members below the entry point survive, the entry duplicates the
    previous member plus the new block, later members absorb the block."""
    q, i = 4, 2
    emb = DiagonalEmbedding(insertion_graph(q, i), FlagType(4, (1, 2, 3)))
    full = RatSubspace.full(4)
    for _ in range(10):
        flag = random_flag(FlagType(4, (1, 2, 3)), rng)
        image = emb.evaluate(flag)
        expected = []
        for j in range(1, q + 1):
            if j < i:
                expected.append(block_embed(flag.member(j), 1, 2))
            else:
                expected.append(
                    block_embed(flag.member(j - 1), 1, 2) + block_embed(full, 2, 2)
                )
        assert image.chain == tuple(expected)


def test_growth_graph_evaluation(rng):
    q, i = 4, 2
    emb = DiagonalEmbedding(growth_graph(q, i), FlagType(4, (1, 2, 3)))
    full = RatSubspace.full(4)
    for _ in range(10):
        flag = random_flag(FlagType(4, (1, 2, 3)), rng)
        image = emb.evaluate(flag)
        expected = []
        for j in range(1, q):
            part = block_embed(flag.member(j), 1, 2)
            if j >= i:
                part = part + block_embed(full, 2, 2)
            expected.append(part)
        assert image.chain == tuple(expected)


def test_constant_spaces_mixed_graph():
    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    chain = constant_spaces(emb)
    wbar = block_embed(RatSubspace.full(3), 2, 2)
    assert chain == (RatSubspace.zero(6), RatSubspace.zero(6), wbar)
    sampled, support = support_and_constants(
        sample_images(emb.evaluate, MIXED_SOURCE, seed=3)
    )
    assert tuple(sampled) == chain
    assert support == (1, 2, 3)


def test_constant_spaces_straight_graph():
    g = EGraph(3, 3, 1, frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1)}))
    emb = DiagonalEmbedding(g, FlagType(4, (1, 2)))
    assert all(c.dim == 0 for c in constant_spaces(emb))


def test_constant_spaces_growth_graph_match_chain():
    emb = DiagonalEmbedding(growth_graph(3, 2), FlagType(3, (1, 2)))
    chain = constant_spaces(emb)
    vbar = block_embed(RatSubspace.full(3), 2, 2)
    assert chain == (RatSubspace.zero(6), vbar)
    sampled, _ = support_and_constants(sample_images(emb.evaluate, emb.source_type, seed=1))
    assert tuple(sampled) == chain


def plus_sum_constant_spaces(emb):
    """Reference: member j is the `+`-sum of the full blocks whose bounding
    edge arrives at or above r_j."""
    g = emb.graph
    arrival = {c: j for (i, j, c) in g.edges if i == g.q}
    full = RatSubspace.full(emb.m)
    return tuple(
        sum(
            (block_embed(full, c, g.d) for c in range(1, g.d + 1) if arrival[c] <= j),
            RatSubspace.zero(emb.n),
        )
        for j in range(1, g.p)
    )


def test_constant_spaces_match_the_plus_sum_on_every_small_graph():
    """Every valid graph with d*q <= 6, on a source type in Q^(q+1)."""
    cases = 0
    for g in small_graphs():
        emb = DiagonalEmbedding(g, FlagType(g.q + 1, tuple(range(1, g.q))))
        assert constant_spaces(emb) == plus_sum_constant_spaces(emb)
        cases += 1
    assert cases == 6352


def tuple_unipotent_inclusion(alpha, m):
    """Reference characterization: distinct block-level tuples differ in
    every coordinate."""
    tuples = build_from_alpha(alpha, m).beta_image
    return all(
        all(x != y for x, y in zip(a, b))
        for idx, a in enumerate(tuples)
        for b in tuples[idx + 1 :]
    )


def test_unipotent_inclusion_tuple_and_graph_characterizations_agree():
    checked = 0
    for n in range(2, 7):
        for d in (2, 3):
            if n % d:
                continue
            for alpha in surjections(n):
                result = build_from_alpha(alpha, n // d)
                if not isinstance(result, ParabolicRestriction):
                    continue
                assert unipotent_inclusion(result.graph) == tuple_unipotent_inclusion(alpha, n // d)
                checked += 1
    assert checked > 1000


def test_unipotent_inclusion():
    def graph(values, m):
        return build_from_alpha(SurjectionAlpha.of(values), m).graph

    assert unipotent_inclusion(graph([1, 2, 2, 3], 2))
    assert not unipotent_inclusion(graph([1, 2, 2, 2], 2))
    assert unipotent_inclusion(graph([1, 2, 2, 3], 4))  # one block


def test_embedding_from_alpha_rejects_non_parabolic():
    with pytest.raises(DomainError, match="not parabolic"):
        embedding_from_alpha(SurjectionAlpha.of([1, 2, 2, 1]), 2)


def reference_alpha_flag(alpha):
    """The coordinate flag of a level map, as spans of unit vectors."""
    n = alpha.n
    members = []
    for level in range(1, alpha.p):
        vectors = [[1 if t == i else 0 for t in range(n)] for i, v in enumerate(alpha.values) if v <= level]
        members.append(RatSubspace.span(n, vectors))
    return Flag(n, tuple(members))


def reference_beta_flag(alpha, m):
    """The restricted flag, as spans of unit vectors under the
    componentwise order of block-level tuples."""
    d = alpha.n // m
    beta = [tuple(alpha.values[k * m + r] for k in range(d)) for r in range(m)]
    members = []
    for bound in build_from_alpha(alpha, m).beta_image[:-1]:
        vectors = [
            [1 if t == r else 0 for t in range(m)]
            for r, b in enumerate(beta)
            if all(x <= y for x, y in zip(b, bound))
        ]
        members.append(RatSubspace.span(m, vectors))
    return Flag(m, tuple(members))


def assert_members_are_cached(flag):
    for member in flag.chain:
        mask = sum(1 << row.index(1) for row in member.int_rows)
        assert member is RatSubspace.basis_span(flag.ambient, mask)


def test_level_flags_match_unit_vector_spans_on_every_surjection():
    """The sweep's two level flags, of the level values and of the
    block-level tuples, span their unit vectors, and every member is the
    instance `RatSubspace.basis_span` caches."""
    restricted = 0
    for n in range(1, 7):
        for alpha in surjections(n):
            flag = level_flag(alpha.values)
            assert flag == reference_alpha_flag(alpha)
            assert_members_are_cached(flag)
            for d in (1, 2, 3):
                if n % d:
                    continue
                result = build_from_alpha(alpha, n // d)
                if isinstance(result, ParabolicRestriction):
                    flag = level_flag(result.beta)
                    assert flag == reference_beta_flag(alpha, n // d)
                    assert_members_are_cached(flag)
                    restricted += 1
    assert restricted > 5000


@pytest.mark.parametrize("n_max, d_set", [(5, {2, 3}), (4, {1, 2, 4})])
def test_oracle_sweep_draws_each_case_once(monkeypatch, n_max, d_set):
    """The oracle benchmark times one case per map drawn from
    `diagembed.surjections`, and fails a run unless the draws equal the
    cases: a sweep that drew each map once per n, for all its block
    counts, would break it."""
    draws = 0

    def counted(n):
        nonlocal draws
        for alpha in surjections(n):
            draws += 1
            yield alpha

    monkeypatch.setattr(diagembed, "surjections", counted)
    report = oracle_sweep(n_max, d_set)
    assert report.ok and draws == report.cases > 0


def test_oracle_sweep_derives_each_object_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for module in (diagembed, egraph):
        monkeypatch.setattr(module, "build_from_alpha", counted("build", build_from_alpha))
    for module in (diagembed, ratlin):
        monkeypatch.setattr(module, "stabilizer_oracle", counted("stabilizer", stabilizer_oracle))
    report = oracle_sweep(5, {2, 3})
    assert report.ok and report.cases == 91
    assert calls == {"build": report.cases, "stabilizer": report.cases}


def test_oracle_sweep_memo_lives_for_one_sweep(monkeypatch):
    """Two sweeps in a row do the same stabilizer work: the memo of the
    first is gone when the second starts, and within one sweep the cases
    share it."""
    calls = Counter()
    for name in ("_member_constraints", "_solve_stabilizer"):
        fn = getattr(ratlin, name)

        def counted(*args, name=name, fn=fn):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(ratlin, name, counted)
    counts = []
    for _ in range(2):
        calls.clear()
        report = oracle_sweep(5, {2, 3})
        counts.append(dict(calls))
        assert 0 < calls["_member_constraints"] < report.cases
        assert 0 < calls["_solve_stabilizer"] < report.cases
    assert counts[0] == counts[1]


def test_graph_is_validated_once(monkeypatch):
    runs = []
    clauses = EGraph.__dict__["violations"].func

    def counted(g):
        runs.append(g)
        return clauses(g)

    prop = cached_property(counted)
    prop.__set_name__(EGraph, "violations")
    monkeypatch.setattr(EGraph, "violations", prop)
    g = EGraph(MIXED_GRAPH.q, MIXED_GRAPH.p, MIXED_GRAPH.d, MIXED_GRAPH.edges)
    emb = DiagonalEmbedding(g, MIXED_SOURCE)
    constant_spaces(emb)
    assert not is_linear_graph(g)
    assert runs == [g]


def test_built_graphs_are_not_validated_again(monkeypatch):
    """The sweep and `embedding_from_alpha` trust what `build_from_alpha`
    built: no validity clause runs."""
    runs = []
    clauses = EGraph.__dict__["violations"].func

    def counted(g):
        runs.append(g)
        return clauses(g)

    prop = cached_property(counted)
    prop.__set_name__(EGraph, "violations")
    monkeypatch.setattr(EGraph, "violations", prop)
    report = oracle_sweep(5, {2, 3})
    assert report.ok and report.evaluation_checks > 0
    emb = embedding_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2)
    assert emb.source_type == FlagType(2, (1,))
    assert runs == []


def test_the_public_constructors_still_validate(capsys, tmp_path):
    bad = EGraph(2, 1, 1, frozenset({(1, 1, 1)}))  # l2 meets no edge
    with pytest.raises(DomainError, match="invalid graph"):
        DiagonalEmbedding(bad, FlagType(2, (1,)))
    with pytest.raises(DomainError, match="surjective"):
        SurjectionAlpha((1, 1, 3))
    flag = tmp_path / "flag.json"
    flag.write_text('{"ambient": 2, "chain": [[["1", "1"]]]}')
    assert main(["embed", "--alpha", "1,2,2,1", "--m", "2", "--flag", str(flag)]) == 1
    assert "not parabolic" in capsys.readouterr().err


def test_equivariance_reference_graphs():
    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    assert equivariance_check(emb, trials=50, seed=0).ok
    emb2 = embedding_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2)
    assert equivariance_check(emb2, trials=50, seed=1).ok


@pytest.mark.parametrize("trials", [-3, 0, 2.5, True, "5", None])
def test_equivariance_check_takes_a_positive_trial_count(trials):
    emb = embedding_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2)
    with pytest.raises(DomainError, match="^trials must be a positive integer, got "):
        equivariance_check(emb, trials)
    assert equivariance_check(emb, 1).to_json_obj() == {"trials": 1, "failures": [], "ok": True}


def test_mixed_graph_classifies_not_se():
    from diagflag.flagcore import classify_bruteforce

    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    assert classify_bruteforce(emb.evaluate, emb.source_type, seed=0).kind == "not_se"


def test_oracle_sweep_small():
    report = oracle_sweep(4, {2})
    assert report.ok
    assert report.cases == 78  # surjections on 2 and 4 letters
    assert report.parabolic_agreements == 78
    assert report.evaluation_checks > 0
    with pytest.raises(DomainError, match="sweeps need 2 <= n_max <= 8, got 1"):
        oracle_sweep(1, {2})  # the sweep starts at n = 2


def test_a_block_count_1_sweep_keeps_only_member_rows(monkeypatch):
    """At block count 1 the stabilizer of a level flag is the flag's own
    parabolic, which determines the flag, so no two cases share a system or
    a descent test: the sweep's memo keeps the members' rows alone, and the
    report is the one a memo of every entry gave.  Keeping the rest put the
    tracemalloc peak of a second `oracle_sweep(6, {1})` at 55.6 MiB (0.7
    MiB without), and of `oracle_sweep(5, {1})` at 3.8 MiB (0.45 MiB);
    tracing the n_max 6 sweep takes seven times as long as running it, so
    the peak is pinned at n_max 5."""
    memos = []

    def kept(flag, m, memo):
        memos.append(memo)
        return ratlin.stabilizer_oracle(flag, m, memo)

    monkeypatch.setattr(diagembed, "stabilizer_oracle", kept)
    report = oracle_sweep(6, {1})
    assert report.to_json_obj() == {
        "cases": 5315,
        "parabolic_agreements": 5315,
        "parabolic_disagreements": [],
        "unipotent_agreements": 5315,
        "unipotent_disagreements": [],
        "evaluation_checks": 5310,
        "ok": True,
    }
    assert len(memos) == 5315 and all(memo is memos[0] for memo in memos)
    assert {key[0] for key in memos[0]} == {"member"}
    oracle_sweep(5, {1})  # the level flags' cached members are built before tracing
    tracemalloc.start()
    try:
        assert oracle_sweep(5, {1}).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_sweep_work_counts_level_maps_times_stabilizer_unknowns():
    # Ordered Bell numbers 3, 13, 75, 541, 4683 for n = 2..6.
    assert sweep_work(4, [2]) == 3 * 1 + 75 * 4
    assert sweep_work(6, [2, 3]) == 61_195
    assert sweep_work(6, range(1, 7)) == 249_936 <= SWEEP_WORK_LIMIT
    assert sweep_work(7, [1]) == 2_500_799 > SWEEP_WORK_LIMIT
    assert sweep_work(8, [8]) == 545_835 > SWEEP_WORK_LIMIT
    with pytest.raises(ScaleError, match="units of work"):
        oracle_sweep(7, {1})


def test_random_embedding_evaluates(rng):
    for _ in range(10):
        emb = random_embedding(rng, max_n=6)
        flag = random_flag(emb.source_type, rng)
        image = emb.evaluate(flag)
        assert image.dims == emb.target_type.dims


def test_embedding_json_roundtrip():
    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    assert DiagonalEmbedding.from_json_obj(emb.to_json_obj()) == emb
    via_alpha = DiagonalEmbedding.from_json_obj({"alpha": [1, 2, 2, 3], "m": 2})
    assert via_alpha == embedding_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2)


# -- evaluate against its references ------------------------------------------


def plain_sum_evaluate(emb, flag):
    """Reference members as `+`-sums of block members, reduced by `rref`."""
    d, n = emb.graph.d, emb.n
    return tuple(
        sum(
            (block_embed(flag.member(i), c, d) for c, i in enumerate(row, start=1) if i),
            RatSubspace.zero(n),
        )
        for row in emb.graph.closed_indices
    )


def assert_evaluate_matches_references(emb, flag):
    image = emb.evaluate(flag)
    assert image == cumulative_evaluate(emb, flag)
    assert image.chain == plain_sum_evaluate(emb, flag)
    assert all(is_rref(member.rows, emb.n) for member in image.chain)
    assert image.dims == emb.target_type.dims


def test_evaluate_matches_references_on_random_embeddings():
    rng = random.Random(5)
    for _ in range(300):
        emb = random_embedding(rng, max_n=8)
        assert_evaluate_matches_references(emb, random_flag(emb.source_type, rng))


@given(st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_references_hypothesis(seed):
    rng = random.Random(seed)
    emb = random_embedding(rng, max_n=8)
    assert_evaluate_matches_references(emb, random_flag(emb.source_type, rng))


def test_evaluate_matches_references_on_every_small_graph():
    """Every valid graph with d*q <= 6, on every source type in Q^m with
    q <= m and d*m <= 6."""
    rng = random.Random(6)
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
                            flag = random_flag(emb.source_type, rng)
                            assert_evaluate_matches_references(emb, flag)
                            cases += 1
    assert cases > 1000


def test_oracle_sweep_fails_on_a_wrong_closed_formula(monkeypatch):
    evaluate = DiagonalEmbedding.evaluate
    monkeypatch.setattr(DiagonalEmbedding, "evaluate", lambda emb, f: reversed_flag(evaluate(emb, f)))
    with pytest.raises(InternalCheckError, match="does not map to the ambient one"):
        oracle_sweep(4, {2})


def test_the_sweep_and_embed_evaluate_once_by_the_closed_formula(monkeypatch, tmp_path):
    """The cumulative formula is the tests' reference only: it lives in
    `conftest`, not in the library, and the sweep and `embed` evaluate
    each flag once by the closed formula."""
    assert not hasattr(diagembed, "cumulative_evaluate")
    calls = Counter()
    evaluate = DiagonalEmbedding.evaluate

    def counted_evaluate(emb, flag):
        calls["evaluate"] += 1
        return evaluate(emb, flag)

    monkeypatch.setattr(DiagonalEmbedding, "evaluate", counted_evaluate)
    report = oracle_sweep(5, {2, 3})
    assert report.ok and report.evaluation_checks > 0
    assert calls == {"evaluate": report.evaluation_checks}
    calls.clear()
    flag = tmp_path / "flag.json"
    flag.write_text('{"ambient": 2, "chain": [[["1", "1"]]]}')
    assert main(["--out", str(tmp_path / "out.json"), "embed", "--alpha", "1,2,2,3", "--m", "2", "--flag", str(flag)]) == 0
    assert calls == {"evaluate": 1}


def test_graph_pullback_is_the_embedding_pullback():
    assert MIXED_GRAPH.closed_indices == ((1, 0), (1, 2), (2, 3))
    assert graph_pullback(MIXED_GRAPH) == picard_pullback(DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE))
