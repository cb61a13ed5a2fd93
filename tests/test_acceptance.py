"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest -v` lists the same information through test names.
"""

import itertools
import json
import random
import time
from conftest import (
    MIXED_GRAPH,
    MIXED_SOURCE,
    PRODUCT_LEVEL_GRAPH,
    block_embed,
    cumulative_evaluate,
    default_exhaustion_spec,
    forced_prefix,
    random_egraph,
    random_embedding,
    reference_verify_certificate,
    sample_images,
    threaded_pullback_additivity,
)

from diagflag.cli import main as cli_main
from diagflag.diagembed import (
    DiagonalEmbedding,
    constant_spaces,
    equivariance_check,
    is_standard_extension_graph,
    oracle_sweep,
    picard_pullback,
)
from diagflag.egraph import (
    ParabolicRestriction,
    build_from_alpha,
    enumerate_valid_graphs,
    surjections,
    validate_egraph,
)
from diagflag.flagcore import (
    FlagType,
    _support,
    classify_bruteforce,
    level_flag,
    random_flag,
    support_and_constants,
)
from diagflag.indlimit import (
    Admissible,
    ConstantTail,
    GeneralizedFlagType,
    GeometricTail,
    NotAdmissible,
    SnGraph,
    admissible,
    build_realization_sn_graph,
    decompose_sn_graph,
    validate_sn_graph,
    verify_certificate,
    verify_refutation,
)
from diagflag.ratlin import RatSubspace
from diagflag.supernat import INF, ExhaustionSpec, SupernaturalNumber

SN2 = SupernaturalNumber.from_factors({2: INF})


def report(criterion: int, label: str, elapsed: float | None = None) -> None:
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion:02d} ({label}): PASS{suffix}")


def test_criterion_01_mixed_graph_regression():
    started = time.monotonic()
    emb = DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE)
    assert picard_pullback(emb).matrix == ((1, 0), (1, 1), (0, 1))
    from diagflag.diagembed import is_linear_graph

    assert not is_linear_graph(MIXED_GRAPH)
    assert not is_standard_extension_graph(MIXED_GRAPH)
    rng = random.Random(1)
    full = RatSubspace.full(3)
    for _ in range(5):
        flag = random_flag(MIXED_SOURCE, rng)
        v1, v2 = flag.chain
        assert emb.evaluate(flag).chain == (
            block_embed(v1, 1, 2),
            block_embed(v1, 1, 2) + block_embed(v2, 2, 2),
            block_embed(v2, 1, 2) + block_embed(full, 2, 2),
        )
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, "reference embedding, pullback rows, non-linearity", elapsed)


def test_criterion_02_oracle_equivalence_n6():
    started = time.monotonic()
    sweep = oracle_sweep(6, {2, 3})
    elapsed = time.monotonic() - started
    assert sweep.parabolic_disagreements == ()
    assert sweep.unipotent_disagreements == ()
    # A verdict that flips on both routes changes a pinned count.
    assert (sweep.cases, sweep.parabolic_agreements) == (9457, 9457)
    assert (sweep.unipotent_agreements, sweep.evaluation_checks) == (3047, 3012)
    assert elapsed < 300.0
    report(2, f"oracle equivalence on {sweep.cases} maps", elapsed)


def test_criterion_03_formula_consistency():
    started = time.monotonic()
    rng = random.Random(3)
    for _ in range(1000):
        emb = random_embedding(rng, max_n=8)
        flag = random_flag(emb.source_type, rng)
        assert emb.evaluate(flag) == cumulative_evaluate(emb, flag)
    checked = 0
    for n in range(2, 7):
        for d in (2, 3):
            if n % d:
                continue
            m = n // d
            for alpha in surjections(n):
                result = build_from_alpha(alpha, m)
                if not isinstance(result, ParabolicRestriction) or result.flag_type is None:
                    continue
                emb = DiagonalEmbedding(result.graph, result.flag_type)
                source = level_flag(result.beta)
                assert emb.evaluate(source) == level_flag(alpha.values)
                assert cumulative_evaluate(emb, source) == level_flag(alpha.values)
                checked += 1
    assert checked == 3012
    elapsed = time.monotonic() - started
    report(3, f"two-formula agreement x1000, {checked} coordinate-flag images", elapsed)


def test_criterion_04_equivariance():
    started = time.monotonic()
    rng = random.Random(4)
    embeddings = [
        DiagonalEmbedding(MIXED_GRAPH, MIXED_SOURCE),
    ]
    while len(embeddings) < 20:
        embeddings.append(random_embedding(rng, max_n=8))
    failures = 0
    for idx, emb in enumerate(embeddings):
        result = equivariance_check(emb, trials=200, seed=idx)
        failures += len(result.failures)
    assert failures == 0
    elapsed = time.monotonic() - started
    report(4, "equivariance, 20 embeddings x 200 trials", elapsed)


def test_criterion_05_classifier_vs_graph_criterion():
    started = time.monotonic()
    instances = []
    for d in range(1, 7):
        for m in range(2, 7):
            if d * m > 6:
                continue
            for q in range(1, m + 1):
                for p in range(1, q * d + 1):
                    for g in enumerate_valid_graphs(q, p, d):
                        for dims in itertools.combinations(range(1, m), q - 1):
                            instances.append((g, FlagType(m, dims)))
    assert len(instances) > 1000
    strict = 0
    for g, ft in instances:
        emb = DiagonalEmbedding(g, ft)
        outcome = classify_bruteforce(emb.evaluate, ft, seed=0)
        expected = is_standard_extension_graph(g)
        assert (outcome.kind == "strict_se") == expected, (g, ft, outcome.kind)
        assert outcome.kind in ("strict_se", "not_se")
        strict += outcome.kind == "strict_se"
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    report(5, f"classifier agreement on {len(instances)} embeddings ({strict} strict)", elapsed)


def test_criterion_06_constant_spaces_sampled_vs_closed():
    started = time.monotonic()
    rng = random.Random(6)
    for _ in range(50):
        g = random_egraph(rng, max_n=8)
        dims = tuple(range(1, g.q))
        emb = DiagonalEmbedding(g, FlagType(max(g.q, 2), dims))
        closed = constant_spaces(emb)
        sampled, support = support_and_constants(sample_images(emb.evaluate, emb.source_type, seed=17))
        assert tuple(sampled) == tuple(closed)
        # `constants` prints the support read off the closed form.
        assert support == _support(closed, emb.target_type.dims)
        for j in support:
            assert closed[j - 1].dim < emb.target_type.dims[j - 1]
    elapsed = time.monotonic() - started
    report(6, "constant spaces: sampling window 12 meets closed form, 50 graphs", elapsed)


def test_criterion_07_realization_constructor():
    started = time.monotonic()
    gfts = [
        GeneralizedFlagType((1,), None, True, ordered_presentation=(1, INF)),
        GeneralizedFlagType((), None, True, ordered_presentation=(INF,)),
        GeneralizedFlagType((1, 2), None, True, ordered_presentation=(1, 2, INF, INF)),
        GeneralizedFlagType((3,), None, True, ordered_presentation=(INF, 3, INF)),
        GeneralizedFlagType((2, 1), None, True, ordered_presentation=(2, INF, 1, INF)),
    ]
    sns = [
        SN2,
        SupernaturalNumber.from_factors({2: INF, 3: INF}),
        SupernaturalNumber.from_factors({2: 3, 5: INF}),
    ]
    for gft in gfts:
        needed = sum(gft.finite_quotients) + sum(
            1 for v in gft.ordered_presentation if v is INF
        )
        for sn in sns:
            spec = default_exhaustion_spec(sn, min_s1=needed)
            realization = build_realization_sn_graph(gft, sn, spec, levels=6)
            assert len(realization.sn_graph.prefix) >= 6
            assert validate_sn_graph(realization.sn_graph, upto=6).ok
            for level_graph in realization.sn_graph.prefix:
                assert validate_egraph(level_graph).ok
                assert is_standard_extension_graph(level_graph)
            finals = realization.level_quotients[-1]
            for position, value in enumerate(gft.ordered_presentation):
                if value is not INF:
                    assert all(q[position] == value for q in realization.level_quotients)
                else:
                    assert finals[position] > realization.level_quotients[0][position]
    elapsed = time.monotonic() - started
    report(7, "realizations: 5 flag types x 3 supernatural numbers, 6 levels", elapsed)


def test_criterion_08_admissibility_fixtures():
    started = time.monotonic()
    geometric = GeneralizedFlagType((), GeometricTail(1, 2), False)
    outcome = admissible(geometric, SN2)
    assert isinstance(outcome, Admissible)
    # The reference verifier accepts the exhaustion on a 12-step forced prefix.
    assert reference_verify_certificate(geometric, SN2, outcome.certificate.exhaustion, forced_prefix(geometric, 12))
    assert verify_certificate(geometric, SN2, outcome.certificate)

    constant = GeneralizedFlagType((), ConstantTail(1), True)
    refuted = admissible(constant, SN2)
    assert isinstance(refuted, NotAdmissible)
    assert verify_refutation(constant, SN2, refuted.proof)

    finite = GeneralizedFlagType((5, 7), None, True)
    trivial = admissible(finite, SN2)
    assert isinstance(trivial, Admissible)
    assert trivial.certificate.kind == "finite"
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(8, "admissibility: geometric certificate, constant refutation, finite case", elapsed)


def test_criterion_09_product_chain_decomposition():
    started = time.monotonic()
    sg = SnGraph(ExhaustionSpec(4, (2,)), (PRODUCT_LEVEL_GRAPH,), period=1)
    prefix_len = 6
    factors = decompose_sn_graph(sg, prefix_len=prefix_len)
    assert len(factors) == 2
    threading = [tuple(range(1, 3))] * (prefix_len + 1)
    for factor in factors:
        assert len(factor.prefix) == prefix_len
        assert validate_sn_graph(factor).ok
        for level_graph in factor.prefix:
            assert validate_egraph(level_graph).ok
            ordinary_colours = {
                c for (i, _, c) in level_graph.edges if i != level_graph.q
            }
            assert len(ordinary_colours) <= 1
    for n in range(1, prefix_len + 1):
        assert threaded_pullback_additivity(sg, factors, threading, n)
    elapsed = time.monotonic() - started
    report(9, "product chain: 2 factors, valid monochromatic levels, additive pullbacks", elapsed)


def test_criterion_10_cli_determinism(tmp_path, capsys):
    started = time.monotonic()
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(MIXED_GRAPH.to_json_obj()))
    sn_file = tmp_path / "sn.json"
    sn_file.write_text(json.dumps({"factors": {"2": "inf"}}))
    gft_file = tmp_path / "gft.json"
    gft_file.write_text(
        json.dumps(
            {
                "finite_quotients": [],
                "tail": {"kind": "geometric", "base": 1, "ratio": 2},
                "infinite_quotients": False,
                "ordered": None,
            }
        )
    )
    commands = [
        ["--seed", "11", "restrict", "--alpha", "1,2,2,3", "--m", "2"],
        ["--seed", "11", "picard", "--graph", str(graph_file)],
        ["--seed", "11", "classify", "--alpha", "1,2,2,3", "--m", "2"],
        ["--seed", "11", "constants", "--graph", str(graph_file), "--source-ambient", "3"],
        ["--seed", "11", "oracle", "--n-max", "3", "--d", "3"],
        ["--seed", "11", "admissible", "--gft", str(gft_file), "--sn", str(sn_file)],
        ["--seed", "11", "dot", "--graph", str(graph_file)],
    ]
    for argv in commands:
        first = None
        for _ in range(2):
            assert cli_main(list(argv)) == 0
            out = capsys.readouterr().out.encode()
            if first is None:
                first = out
            else:
                assert out == first, argv
    elapsed = time.monotonic() - started
    report(10, "CLI reports byte-identical across repeated seeded runs", elapsed)
