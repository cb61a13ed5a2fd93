import random
import re
import time
from collections import Counter
from math import comb

import pytest
from conftest import (
    MIXED_GRAPH,
    PRODUCT_LEVEL_GRAPH,
    colour_class,
    insertion_graph,
    random_egraph,
    realizing_alpha,
    reference_surjections,
    reference_valid_graphs,
    small_graph_sizes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from diagflag.diagembed import DiagonalEmbedding
from diagflag.egraph import (
    CLOSED_INDEX_LIMIT,
    GRAPH_SIZE_LIMIT,
    EGraph,
    NotParabolic,
    ParabolicRestriction,
    SurjectionAlpha,
    all_surjections,
    build_from_alpha,
    enumerate_valid_graphs,
    partition_edges,
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


def reference_witness(alpha, m):
    """Reference: the first incomparable pair of block tuples met by the
    pairwise scan over the sorted tuple image; None when the order is
    total."""
    d = alpha.n // m
    beta = tuple(tuple(alpha.values[k * m + r] for k in range(d)) for r in range(m))
    image = sorted(set(beta))
    for a in range(len(image)):
        for b in range(a + 1, len(image)):
            x, y = image[a], image[b]
            if not (all(u <= v for u, v in zip(x, y)) or all(v <= u for u, v in zip(x, y))):
                return (x, y)
    return None


def witness_of(alpha, m):
    result = build_from_alpha(alpha, m)
    return result.witness if isinstance(result, NotParabolic) else None


def test_witness_matches_the_pairwise_scan_on_every_small_level_map():
    cases = not_parabolic = 0
    for n in range(1, 7):
        for alpha in surjections(n):
            for m in range(1, n + 1):
                if n % m == 0:
                    expected = reference_witness(alpha, m)
                    assert witness_of(alpha, m) == expected, (alpha.values, m)
                    cases += 1
                    not_parabolic += expected is not None
    assert cases == 20_072 and not_parabolic > 1_000


def test_witness_matches_the_pairwise_scan_on_random_level_maps():
    rng = random.Random(20261018)
    not_parabolic = 0
    for _ in range(1_500):
        d, m = rng.randint(1, 6), rng.randint(1, 12)
        values = [rng.randint(1, rng.randint(1, d * m)) for _ in range(d * m)]
        if rng.random() < 0.3:
            values.sort()  # long chains, whose first failure comes late
        labels = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
        alpha = SurjectionAlpha.of([labels[v] for v in values])
        expected = reference_witness(alpha, m)
        assert witness_of(alpha, m) == expected, (alpha.values, m)
        not_parabolic += expected is not None
    assert 300 < not_parabolic < 1_400


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
        SurjectionAlpha((1, 1, 3))
    alpha = SurjectionAlpha((1, 2, 2))
    assert (alpha.n, alpha.p) == (3, 2)


@pytest.mark.parametrize("bad", [2.7, True, "2"])
def test_surjection_of_takes_integers_only(bad):
    with pytest.raises(DomainError, match="must be an integer"):
        SurjectionAlpha.of([1, bad, 2])


def assert_built_restriction_is_valid(alpha: SurjectionAlpha, m: int) -> bool:
    """What the trusted embeddings of built graphs rest on: the graph is
    valid, the flag type has q - 1 members, and the trusted embedding is
    the validated one.  Whether the restriction is parabolic."""
    result = build_from_alpha(alpha, m)
    if not isinstance(result, ParabolicRestriction):
        return False
    graph = result.graph
    assert validate_egraph(graph).ok, alpha
    source = result.flag_type or FlagType(m, ())
    assert source.length == graph.q - 1, alpha
    assert DiagonalEmbedding._from_valid(graph, source) == DiagonalEmbedding(graph, source)
    return True


def test_built_graphs_always_valid_exhaustively():
    parabolic = Counter()
    for n in range(1, 7):
        for d in range(1, n + 1):
            if n % d:
                continue
            for alpha in surjections(n):
                parabolic[d] += assert_built_restriction_is_valid(alpha, n // d)
    assert min(parabolic.values()) > 0 and set(parabolic) == set(range(1, 7))


def test_built_graphs_valid_on_a_seeded_sample_up_to_n_12():
    rng = random.Random(23)
    several_blocks_of_several = 0  # parabolic cases with 1 < d < n
    for _ in range(400):
        n = rng.randint(1, 12)
        p = rng.randint(1, n)
        values = [*range(1, p + 1), *(rng.randint(1, p) for _ in range(n - p))]
        rng.shuffle(values)
        alpha = SurjectionAlpha.of(values)
        for d in range(1, n + 1):
            if n % d == 0:
                parabolic = assert_built_restriction_is_valid(alpha, n // d)
                several_blocks_of_several += parabolic and 1 < d < n
    assert several_blocks_of_several > 100


def test_enumerated_surjections_are_the_checked_records():
    for n in range(0, 7):
        for p in range(0, n + 1):
            for alpha in all_surjections(n, p):
                assert alpha == SurjectionAlpha.of(alpha.values)


def test_colour_classes_are_monotone_matchings():
    rng = random.Random(4)
    for _ in range(50):
        g = random_egraph(rng)
        for c in range(1, g.d + 1):
            cls = colour_class(g, c)
            for (i1, j1), (i2, j2) in zip(cls, cls[1:]):
                assert i1 < i2 and j1 < j2


def test_bottom_right_vertex_carries_bounding_edge():
    rng = random.Random(9)
    for _ in range(50):
        g = random_egraph(rng)
        bounding, _ = partition_edges(g)
        assert any(j == g.p for (_, j, _) in bounding)


_DOT_HEADER = re.compile(r'label="q=(\d+) p=(\d+) d=(\d+)"')
_DOT_EDGE = re.compile(r'l(\d+) -- r(\d+) \[color="[^"]*", colourindex="(\d+)"\]')


def from_dot(text: str) -> EGraph:
    """Parse the output of :func:`to_dot` back into a graph."""
    header = _DOT_HEADER.search(text)
    if header is None:
        raise DomainError("missing size header in DOT text")
    q, p, d = (int(x) for x in header.groups())
    edges = frozenset(
        (int(i), int(j), int(c)) for i, j, c in _DOT_EDGE.findall(text)
    )
    return EGraph(q, p, d, edges)


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


def classify_sizes(dm_values):
    """The (d, m, q, p) of the criterion-05 instance set, in its order,
    with the target dimension d * m restricted to `dm_values`."""
    return [
        (d, m, q, p)
        for d in range(1, 9)
        for m in range(2, 9)
        if d * m in dm_values
        for q in range(1, m + 1)
        for p in range(1, q * d + 1)
    ]


def test_enumerate_valid_graphs_matches_the_build_and_validate_reference():
    sizes = small_graph_sizes()
    # The criterion-05 strata have q <= m, so d * q <= 6 and they are covered.
    assert {(q, p, d) for (d, m, q, p) in classify_sizes(range(1, 7))} <= set(sizes)
    total = 0
    for (q, p, d) in sizes:
        graphs = list(enumerate_valid_graphs(q, p, d))
        assert graphs == list(reference_valid_graphs(q, p, d)), (q, p, d)
        total += len(graphs)
    assert total == 6_352


def test_embedding_counts_at_target_dimensions_seven_and_eight():
    """Graphs times source flag types of the classifier's instance set one
    step beyond criterion 05, d * m in {7, 8}."""
    counts = dict.fromkeys(((4, 2), (2, 4), (1, 7), (1, 8)), 0)
    for (d, m, q, p) in classify_sizes({7, 8}):
        graphs = sum(1 for _ in enumerate_valid_graphs(q, p, d))
        counts[d, m] += graphs * comb(m - 1, q - 1)
    assert counts == {(4, 2): 47_834, (2, 4): 2_568, (1, 7): 64, (1, 8): 128}


def test_all_surjections_match_the_product_filter():
    for n in range(8):
        for p in range(min(n + 2, 8)):
            assert list(all_surjections(n, p)) == list(reference_surjections(n, p)), (n, p)


def test_every_valid_graph_is_realizable():
    """Round trip: any valid graph is the restriction graph of the level
    map read off from it (block size = left column size)."""

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


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_closed_indices_match_their_definition(g):
    """Per right vertex r_j, j < p, and colour: the largest left endpoint
    among that colour's edges ending at or above r_j; invalid graphs
    included."""
    expected = tuple(
        tuple(
            max((i for (i, jj, cc) in g.edges if cc == c and jj <= j), default=0)
            for c in range(1, g.d + 1)
        )
        for j in range(1, g.p)
    )
    assert g.closed_indices == expected


def test_closed_index_table_is_capped():
    def star(n):
        return EGraph(1, n, n, frozenset((1, c, c) for c in range(1, n + 1)))

    assert (999 * 1000) <= CLOSED_INDEX_LIMIT < 1000 * 1001
    assert len(star(1000).closed_indices) == 999
    with pytest.raises(ScaleError):
        star(1001).closed_indices
    straight = EGraph(1002, 1002, 1, frozenset((i, i, 1) for i in range(1, 1003)))
    with pytest.raises(ScaleError):  # (p - 1) * (q - 1) bounds the pullback
        straight.closed_indices
