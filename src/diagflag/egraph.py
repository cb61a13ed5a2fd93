"""Two-column coloured graphs encoding one block-diagonal restriction step.

An EGraph has left vertices l_1..l_q and right vertices r_1..r_p drawn top
to bottom, and edges carrying one of d colours.  Validity demands that
every vertex meet at least one edge, no vertex meet two edges of the same
colour, the bottom-left vertex l_q meet exactly one edge of every colour,
and edges of equal colour never cross.  Edges through l_q are called
bounding, all others ordinary.  The vertex and colour counts are capped at
`GRAPH_SIZE_LIMIT` (ScaleError above it); validating a graph costs one sort
of its edges plus time linear in the counts.

`build_from_alpha` performs the restriction analysis: given a surjective
level map alpha on {1..n} and a block size m dividing n, it groups the
levels of the d blocks into tuples, decides whether the componentwise
order is total on the tuple set (exactly when the intersected stabilizer
is parabolic), and in the positive case emits the graph together with the
restricted flag type.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import DomainError, ScaleError, ValidationReport, strict_int
from .flagcore import FlagType

Edge = tuple[int, int, int]  # (left, right, colour), all 1-based

# Largest q, p and d an EGraph accepts.
GRAPH_SIZE_LIMIT = 10_000

DOT_PALETTE = (
    "black",
    "blue",
    "red",
    "forestgreen",
    "darkorange",
    "purple",
    "teal",
    "maroon",
)


@dataclass(frozen=True)
class EGraph:
    q: int
    p: int
    d: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if min(self.q, self.p, self.d) < 1:
            raise DomainError("vertex and colour counts must be positive")
        if max(self.q, self.p, self.d) > GRAPH_SIZE_LIMIT:
            raise ScaleError(
                f"vertex and colour counts are limited to {GRAPH_SIZE_LIMIT}; "
                f"got q={self.q}, p={self.p}, d={self.d}"
            )
        for (i, j, c) in self.edges:
            if not (1 <= i <= self.q and 1 <= j <= self.p and 1 <= c <= self.d):
                raise DomainError(f"edge {(i, j, c)} out of range")

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=lambda e: (e[2], e[0], e[1])))

    def colour_class(self, c: int) -> tuple[tuple[int, int], ...]:
        """Colour-c edges as (left, right) pairs sorted by left index."""
        return tuple(sorted((i, j) for (i, j, cc) in self.edges if cc == c))

    @cached_property
    def closed_indices(self) -> tuple[tuple[int, ...], ...]:
        """For each right vertex r_j, j < p, the tuple over colours of the
        left endpoint of the last colour edge at or above r_j (0 if none)."""
        classes: list[list[tuple[int, int]]] = [[] for _ in range(self.d)]
        for (i, j, c) in self.edges:  # one pass, not one per colour
            classes[c - 1].append((i, j))
        return tuple(
            tuple(max((i for (i, jj) in cls if jj <= j), default=0) for cls in classes)
            for j in range(1, self.p)
        )

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """The violated validity clauses, computed once; empty when valid.

        One pass over the edges sorted by colour, then left and right
        index: consecutive edges of one colour are the neighbours the
        crossing clause compares."""
        violations: list[str] = []
        crossings: list[str] = []
        left_degree = {i: 0 for i in range(1, self.q + 1)}
        right_degree = {j: 0 for j in range(1, self.p + 1)}
        seen_left: set[tuple[int, int]] = set()
        seen_right: set[tuple[int, int]] = set()
        prev = (0, 0, 0)
        for (i, j, c) in self.sorted_edges():
            left_degree[i] += 1
            right_degree[j] += 1
            if (i, c) in seen_left:
                violations.append(f"vertex l{i} meets two edges of colour {c}")
            if (j, c) in seen_right:
                violations.append(f"vertex r{j} meets two edges of colour {c}")
            seen_left.add((i, c))
            seen_right.add((j, c))
            i1, j1, c1 = prev
            # Equal endpoints are a double incidence, reported above.
            if c1 == c and i1 != i and j1 != j and not j1 < j:
                crossings.append(f"colour-{c} edges ({i1},{j1}) and ({i},{j}) cross")
            prev = (i, j, c)
        for i, deg in left_degree.items():
            if deg == 0:
                violations.append(f"vertex l{i} meets no edge")
        for j, deg in right_degree.items():
            if deg == 0:
                violations.append(f"vertex r{j} meets no edge")
        bottom = sorted(c for (i, c) in seen_left if i == self.q)
        if bottom != list(range(1, self.d + 1)):
            violations.append(
                f"bottom-left vertex must meet exactly one edge of each of the {self.d} colours; it meets colours {bottom}"
            )
        return tuple(violations + crossings)

    def to_json_obj(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "d": self.d,
            "edges": [list(e) for e in self.sorted_edges()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EGraph":
        try:
            edges = frozenset(
                tuple(strict_int(x, "an edge entry") for x in (i, j, c))
                for i, j, c in obj["edges"]
            )
            q, p, d = (strict_int(obj[k], k) for k in ("q", "p", "d"))
            return cls(q, p, d, edges)
        except ScaleError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"bad graph document: {exc}") from exc


def validate_egraph(g: EGraph) -> ValidationReport:
    """Clause-by-clause validity check; violations are reported, not raised."""
    return ValidationReport(g.violations)


def require_valid(g: EGraph) -> EGraph:
    """g itself; DomainError listing the violations when g is not valid."""
    if g.violations:
        raise DomainError(f"invalid graph: {'; '.join(g.violations)}")
    return g


def partition_edges(g: EGraph) -> tuple[frozenset[Edge], frozenset[Edge]]:
    """(bounding, ordinary): edges through the bottom-left vertex vs the rest."""
    require_valid(g)
    bounding = frozenset(e for e in g.edges if e[0] == g.q)
    return bounding, frozenset(g.edges - bounding)


@dataclass(frozen=True)
class SurjectionAlpha:
    """Surjective level map {1..n} -> {1..p} given by its value tuple."""

    n: int
    p: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.n:
            raise DomainError("value tuple length must equal n")
        if set(self.values) != set(range(1, self.p + 1)):
            raise DomainError(f"map must be surjective onto 1..{self.p}")

    @classmethod
    def of(cls, values: Sequence[int]) -> "SurjectionAlpha":
        vals = tuple(int(v) for v in values)
        return cls(len(vals), max(vals, default=0), vals)


@dataclass(frozen=True)
class ParabolicRestriction:
    """Positive outcome of the restriction analysis."""

    graph: EGraph
    beta: tuple[tuple[int, ...], ...]  # block-level tuple b(r) of each coordinate r
    beta_image: tuple[tuple[int, ...], ...]  # the tuples b_1 < ... < b_q
    flag_type: FlagType | None  # None when the restricted flag has no members


@dataclass(frozen=True)
class NotParabolic:
    """Negative outcome: the first incomparable pair of block-level tuples."""

    witness: tuple[tuple[int, ...], tuple[int, ...]]


def build_from_alpha(alpha: SurjectionAlpha, m: int) -> ParabolicRestriction | NotParabolic:
    """Restriction analysis of the flag stabilizer along diag(x, ..., x).

    Groups alpha into block tuples b(r) = (alpha(r), alpha(m+r), ...); the
    intersected stabilizer is parabolic exactly when the componentwise
    order is total on the tuple image, and then the graph has an edge of
    colour k from l_i to r_j whenever the k-th entry of b_i equals j and i
    is maximal with that entry.
    """
    n, p = alpha.n, alpha.p
    if m < 1 or n % m != 0:
        raise DomainError(f"block size {m} does not divide {n}")
    d = n // m
    beta = tuple(
        tuple(alpha.values[k * m + r] for k in range(d)) for r in range(m)
    )
    image = sorted(set(beta))
    for a in range(len(image)):
        for b in range(a + 1, len(image)):
            x, y = image[a], image[b]
            if not (all(u <= v for u, v in zip(x, y)) or all(v <= u for u, v in zip(x, y))):
                return NotParabolic(witness=(x, y))
    q = len(image)
    edges: set[Edge] = set()
    for k in range(d):
        last_with_value: dict[int, int] = {}
        for i, b in enumerate(image, start=1):
            last_with_value[b[k]] = i
        for j, i in last_with_value.items():
            edges.add((i, j, k + 1))
    graph = EGraph(q, p, d, frozenset(edges))
    counts = [sum(1 for b in beta if b <= tup_) for tup_ in image]
    dims = tuple(counts[:-1])
    flag_type = FlagType(m, dims) if dims else None
    return ParabolicRestriction(graph, beta, tuple(image), flag_type)


def to_dot(g: EGraph) -> str:
    """Deterministic DOT rendering: two ranked columns, colours from a
    fixed palette, one edge statement per edge in sorted order."""
    lines = [
        "graph two_column {",
        "  rankdir=LR;",
        f'  label="q={g.q} p={g.p} d={g.d}";',
        "  subgraph cluster_left {",
        '    label="left";',
    ]
    lines.extend(f"    l{i};" for i in range(1, g.q + 1))
    lines.append("  }")
    lines.append("  subgraph cluster_right {")
    lines.append('    label="right";')
    lines.extend(f"    r{j};" for j in range(1, g.p + 1))
    lines.append("  }")
    for (i, j, c) in g.sorted_edges():
        colour = DOT_PALETTE[(c - 1) % len(DOT_PALETTE)]
        lines.append(f'  l{i} -- r{j} [color="{colour}", colourindex="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def all_surjections(n: int, p: int) -> Iterator[SurjectionAlpha]:
    """All surjective maps {1..n} -> {1..p}, in lexicographic value order."""
    import itertools

    target = set(range(1, p + 1))
    for values in itertools.product(range(1, p + 1), repeat=n):
        if set(values) == target:
            yield SurjectionAlpha(n, p, values)


def surjections(n: int) -> Iterator[SurjectionAlpha]:
    """All surjective maps with domain {1..n}, over every target size."""
    for p in range(1, n + 1):
        yield from all_surjections(n, p)


def realizing_alpha(g: EGraph) -> SurjectionAlpha:
    """A level map whose restriction analysis reproduces the graph.

    Valid graphs always arise this way with block size q: read off, for
    each left vertex and colour, the right endpoint of the first edge of
    that colour at or below it (the bottom vertex carries one edge per
    colour, so the value always exists), and lay the d block tuples out
    side by side.
    """
    require_valid(g)
    values = [0] * (g.q * g.d)
    for c in range(1, g.d + 1):
        cls = g.colour_class(c)
        for r in range(1, g.q + 1):
            j = next(jj for (i, jj) in cls if i >= r)
            values[(c - 1) * g.q + (r - 1)] = j
    return SurjectionAlpha.of(values)


def random_restriction(
    rng: random.Random, max_n: int = 8, d_choices: Sequence[int] = (2, 3)
) -> ParabolicRestriction:
    """Random parabolic restriction with a nonempty flag type, drawn by
    retrying random level maps until the restriction analysis succeeds."""
    while True:
        d = rng.choice(list(d_choices))
        m = rng.randint(2, max(2, max_n // d))
        n = d * m
        values = [rng.randint(1, max(2, n // 2)) for _ in range(n)]
        # re-label onto a contiguous range so the map is surjective
        labels = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
        alpha = SurjectionAlpha.of([labels[v] for v in values])
        if alpha.p < 2:
            continue
        result = build_from_alpha(alpha, m)
        if isinstance(result, ParabolicRestriction) and result.flag_type is not None:
            return result


def random_egraph(
    rng: random.Random, max_n: int = 8, d_choices: Sequence[int] = (2, 3)
) -> EGraph:
    """The graph of a `random_restriction`."""
    return random_restriction(rng, max_n, d_choices).graph


def enumerate_valid_graphs(q: int, p: int, d: int) -> Iterator[EGraph]:
    """All valid graphs with the given vertex and colour counts."""
    import itertools

    def colour_options() -> list[frozenset[Edge]]:
        out = []
        for size in range(1, min(q, p) + 1):
            for lefts in itertools.combinations(range(1, q), size - 1):
                ls = (*lefts, q)
                for rights in itertools.combinations(range(1, p + 1), size):
                    out.append(frozenset(zip(ls, rights)))
        return out

    options = colour_options()
    for combo in itertools.product(options, repeat=d):
        edges = frozenset(
            (i, j, c + 1) for c, cls in enumerate(combo) for (i, j) in cls
        )
        g = EGraph(q, p, d, edges)
        if validate_egraph(g).ok:
            yield g
