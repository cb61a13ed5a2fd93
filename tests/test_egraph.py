import random
import time

import pytest
from conftest import MIXED_GRAPH, PRODUCT_LEVEL_GRAPH, insertion_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from diagflag.egraph import (
    GRAPH_SIZE_LIMIT,
    EGraph,
    NotParabolic,
    ParabolicRestriction,
    SurjectionAlpha,
    all_surjections,
    build_from_alpha,
    enumerate_valid_graphs,
    from_dot,
    partition_edges,
    random_egraph,
    surjections,
    to_dot,
    validate_egraph,
)
from diagflag.errors import DomainError, ScaleError
from diagflag.flagcore import FlagType


def test_mixed_reference_graph_is_valid():
    assert validate_egraph(MIXED_GRAPH).ok


def test_crossing_edges_reported():
    bad = EGraph(3, 4, 2, MIXED_GRAPH.edges | {(1, 3, 1), (2, 1, 1)})
    report = validate_egraph(bad)
    assert any("cross" in v for v in report.violations)


def test_straight_line_graph_valid():
    g = EGraph(4, 4, 1, frozenset({(i, i, 1) for i in range(1, 5)}))
    assert validate_egraph(g).ok


def test_missing_vertex_and_bottom_clauses():
    g = EGraph(2, 2, 2, frozenset({(2, 1, 1), (2, 2, 2)}))
    report = validate_egraph(g)
    assert any("l1" in v for v in report.violations)
    g2 = EGraph(2, 2, 2, frozenset({(1, 1, 1), (2, 2, 2)}))
    report2 = validate_egraph(g2)
    assert any("bottom-left" in v for v in report2.violations)


def test_double_incidence_reported():
    g = EGraph(2, 2, 1, frozenset({(1, 1, 1), (1, 2, 1), (2, 2, 1)}))
    assert any("two edges of colour" in v for v in validate_egraph(g).violations)


def test_partition_edges_mixed_graph():
    bounding, ordinary = partition_edges(MIXED_GRAPH)
    assert bounding == frozenset({(3, 4, 1), (3, 3, 2)})
    assert ordinary == frozenset({(1, 1, 1), (2, 3, 1), (2, 2, 2)})


def test_partition_edges_straight():
    g = EGraph(3, 3, 1, frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1)}))
    bounding, _ = partition_edges(g)
    assert bounding == frozenset({(3, 3, 1)})


def test_partition_rejects_invalid():
    g = EGraph(2, 2, 2, frozenset({(1, 1, 1), (2, 2, 2)}))
    with pytest.raises(DomainError):
        partition_edges(g)


def test_insertion_graph_ordinary_monochromatic():
    g = insertion_graph(4, 2)
    assert validate_egraph(g).ok
    _, ordinary = partition_edges(g)
    assert {c for (_, _, c) in ordinary} == {1}


def test_build_from_alpha_totally_ordered():
    result = build_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 2)
    assert isinstance(result, ParabolicRestriction)
    assert result.beta_image == ((1, 2), (2, 3))
    assert result.flag_type == FlagType(2, (1,))
    assert result.graph == EGraph(
        2, 3, 2, frozenset({(1, 1, 1), (2, 2, 1), (1, 2, 2), (2, 3, 2)})
    )


def test_build_from_alpha_incomparable():
    result = build_from_alpha(SurjectionAlpha.of([1, 2, 2, 1]), 2)
    assert isinstance(result, NotParabolic)
    assert result.witness == ((1, 2), (2, 1))


def test_build_from_alpha_single_block():
    result = build_from_alpha(SurjectionAlpha.of([1, 2, 2, 3]), 4)
    assert isinstance(result, ParabolicRestriction)
    assert result.graph == EGraph(3, 3, 1, frozenset({(1, 1, 1), (2, 2, 1), (3, 3, 1)}))
    assert result.flag_type == FlagType(4, (1, 3))


def test_build_rejects_bad_block_size():
    with pytest.raises(DomainError):
        build_from_alpha(SurjectionAlpha.of([1, 2, 2, 1]), 3)


def test_surjection_validation():
    with pytest.raises(DomainError):
        SurjectionAlpha(3, 2, (1, 1, 1))
    with pytest.raises(DomainError):
        SurjectionAlpha(2, 2, (1, 2, 2))


def test_built_graphs_always_valid_exhaustively():
    for n in range(2, 7):
        for d in (2, 3):
            if n % d:
                continue
            for alpha in surjections(n):
                result = build_from_alpha(alpha, n // d)
                if isinstance(result, ParabolicRestriction):
                    assert validate_egraph(result.graph).ok, alpha


def test_colour_classes_are_monotone_matchings():
    rng = random.Random(4)
    for _ in range(50):
        g = random_egraph(rng)
        for c in range(1, g.d + 1):
            cls = g.colour_class(c)
            for (i1, j1), (i2, j2) in zip(cls, cls[1:]):
                assert i1 < i2 and j1 < j2


def test_bottom_right_vertex_carries_bounding_edge():
    rng = random.Random(9)
    for _ in range(50):
        g = random_egraph(rng)
        bounding, _ = partition_edges(g)
        assert any(j == g.p for (_, j, _) in bounding)


def test_dot_deterministic_and_roundtrip():
    rng = random.Random(12)
    text = to_dot(MIXED_GRAPH)
    assert text == to_dot(MIXED_GRAPH)
    assert text.count("--") == 5
    assert 'colourindex="2"' in text
    for _ in range(100):
        g = random_egraph(rng)
        assert from_dot(to_dot(g)) == g


def test_dot_single_colour():
    g = EGraph(2, 2, 1, frozenset({(1, 1, 1), (2, 2, 1)}))
    text = to_dot(g)
    assert text.count("colourindex") == 2
    assert from_dot(text) == g


def test_json_roundtrip_and_schema():
    obj = MIXED_GRAPH.to_json_obj()
    assert obj == {
        "q": 3,
        "p": 4,
        "d": 2,
        "edges": [[1, 1, 1], [2, 3, 1], [3, 4, 1], [2, 2, 2], [3, 3, 2]],
    }
    assert EGraph.from_json_obj(obj) == MIXED_GRAPH


def test_edge_range_checked():
    with pytest.raises(DomainError):
        EGraph(2, 2, 1, frozenset({(3, 1, 1)}))
    with pytest.raises(DomainError):
        EGraph(2, 2, 1, frozenset({(1, 1, 2)}))


def test_enumerate_valid_graphs_small():
    graphs = list(enumerate_valid_graphs(2, 2, 2))
    assert all(validate_egraph(g).ok for g in graphs)
    assert len(set(graphs)) == len(graphs)
    assert PRODUCT_LEVEL_GRAPH in set(enumerate_valid_graphs(3, 3, 2))


def test_all_surjections_count():
    # 2! * S(4,2) = 14 surjections onto two values
    assert sum(1 for _ in all_surjections(4, 2)) == 14


def test_every_valid_graph_is_realizable():
    """Round trip: any valid graph is the restriction graph of the level
    map read off from it (block size = left column size)."""
    from diagflag.egraph import realizing_alpha

    count = 0
    for q, d in ((1, 1), (2, 1), (3, 1), (1, 3), (2, 2), (3, 2), (2, 3)):
        for p in range(1, q * d + 1):
            for g in enumerate_valid_graphs(q, p, d):
                alpha = realizing_alpha(g)
                result = build_from_alpha(alpha, q)
                assert isinstance(result, ParabolicRestriction), g
                assert result.graph == g
                count += 1
    assert count > 300


def reference_violations(g):
    """The validity clauses as first written: degree dicts over all
    vertices and one edge scan per colour."""
    violations = []
    left_degree = {i: 0 for i in range(1, g.q + 1)}
    right_degree = {j: 0 for j in range(1, g.p + 1)}
    seen_left, seen_right = set(), set()
    for (i, j, c) in sorted(g.edges, key=lambda e: (e[2], e[0], e[1])):
        left_degree[i] += 1
        right_degree[j] += 1
        if (i, c) in seen_left:
            violations.append(f"vertex l{i} meets two edges of colour {c}")
        if (j, c) in seen_right:
            violations.append(f"vertex r{j} meets two edges of colour {c}")
        seen_left.add((i, c))
        seen_right.add((j, c))
    violations += [f"vertex l{i} meets no edge" for i, deg in left_degree.items() if deg == 0]
    violations += [f"vertex r{j} meets no edge" for j, deg in right_degree.items() if deg == 0]
    bottom = sorted(c for (i, c) in seen_left if i == g.q)
    if bottom != list(range(1, g.d + 1)):
        violations.append(
            f"bottom-left vertex must meet exactly one edge of each of the {g.d} colours; it meets colours {bottom}"
        )
    for c in range(1, g.d + 1):
        cls = sorted((i, j) for (i, j, cc) in g.edges if cc == c)
        for (i1, j1), (i2, j2) in zip(cls, cls[1:]):
            if i1 != i2 and j1 != j2 and not j1 < j2:
                violations.append(f"colour-{c} edges ({i1},{j1}) and ({i2},{j2}) cross")
    return tuple(violations)


@st.composite
def small_graphs(draw):
    q, p, d = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    edge = st.tuples(st.integers(1, q), st.integers(1, p), st.integers(1, d))
    return EGraph(q, p, d, frozenset(draw(st.lists(edge, max_size=10))))


@given(small_graphs())
@settings(max_examples=300, deadline=None)
def test_violations_match_the_reference_clauses(g):
    assert g.violations == reference_violations(g)


def test_graph_size_is_capped():
    for q, p, d in ((GRAPH_SIZE_LIMIT + 1, 1, 1), (1, 10**8, 1), (1, 1, GRAPH_SIZE_LIMIT + 1)):
        with pytest.raises(ScaleError):
            EGraph(q, p, d, frozenset({(1, 1, 1)}))
    with pytest.raises(ScaleError):
        EGraph.from_json_obj({"q": 10**8, "p": 1, "d": 1, "edges": [[1, 1, 1]]})


def test_validating_a_graph_at_the_cap_is_fast():
    n = GRAPH_SIZE_LIMIT
    g = EGraph(n, n, n, frozenset((i, i, 1 + i % n) for i in range(1, n + 1)))
    started = time.monotonic()
    violations = g.violations
    assert time.monotonic() - started < 2.0
    assert len(violations) == 1 and violations[0].startswith("bottom-left vertex")
