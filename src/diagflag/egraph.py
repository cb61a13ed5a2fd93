"""Two-column coloured graphs encoding one block-diagonal restriction step.

An EGraph has left vertices l_1..l_q and right vertices r_1..r_p drawn top
to bottom, and edges carrying one of d colours.  Validity demands that
every vertex meet at least one edge, no vertex meet two edges of the same
colour, the bottom-left vertex l_q meet exactly one edge of every colour,
and edges of equal colour never cross.  Edges through l_q are called
bounding, all others ordinary.  The vertex and colour counts are capped at
`GRAPH_SIZE_LIMIT` (ScaleError above it); validating a graph costs one sort
of its edges plus time linear in the counts.  The closed-index table,
(p-1) x d, and the pullback matrix built from it, (p-1) x (q-1), are
capped together at `CLOSED_INDEX_LIMIT` entries.

`build_from_alpha` performs the restriction analysis: given a surjective
level map alpha on {1..n} and a block size m dividing n, it groups the
levels of the d blocks into tuples, decides whether the componentwise
order is total on the tuple set (exactly when the intersected stabilizer
is parabolic), and in the positive case emits the graph together with the
restricted flag type.  Its cost is linear in the tuple image after one
sort, a failing witness included.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, combinations, product
from operator import le
from typing import Iterator, Sequence

from .errors import DomainError, Record, ScaleError, ValidationReport, reading, strict_int, strict_list
from .flagcore import FlagType, level_dims

Edge = tuple[int, int, int]  # (left, right, colour), all 1-based

# Largest q, p and d an EGraph accepts.
GRAPH_SIZE_LIMIT = 10_000
# Largest (p-1) * max(d, q-1), the size of the closed-index table and of
# the pullback matrix, that `closed_indices` accepts.
CLOSED_INDEX_LIMIT = 10**6

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


class EGraph(Record):
    q: int
    p: int
    d: int
    edges: frozenset[Edge]

    def __init__(self, q: int, p: int, d: int, edges: frozenset[Edge]) -> None:
        # Spelled out, not the generic Record constructor: graphs are built
        # for every restriction and every document.
        if min(q, p, d) < 1:
            raise DomainError("vertex and colour counts must be positive")
        if max(q, p, d) > GRAPH_SIZE_LIMIT:
            raise ScaleError(
                f"vertex and colour counts are limited to {GRAPH_SIZE_LIMIT}; "
                f"got q={q}, p={p}, d={d}"
            )
        for (i, j, c) in edges:
            if not (1 <= i <= q and 1 <= j <= p and 1 <= c <= d):
                raise DomainError(f"edge {(i, j, c)} out of range")
        set_field = object.__setattr__
        set_field(self, "q", q)
        set_field(self, "p", p)
        set_field(self, "d", d)
        set_field(self, "edges", edges)

    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=lambda e: (e[2], e[0], e[1])))

    @cached_property
    def closed_indices(self) -> tuple[tuple[int, ...], ...]:
        """For each right vertex r_j, j < p, the tuple over colours of the
        left endpoint of the last colour edge at or above r_j (0 if none).

        One sweep down the right column per colour; the table and the
        pullback matrix read from it have (p-1) x max(d, q-1) entries, at
        most `CLOSED_INDEX_LIMIT` (ScaleError above it)."""
        size = (self.p - 1) * max(self.d, self.q - 1)
        if size > CLOSED_INDEX_LIMIT:
            raise ScaleError(
                f"closed indices and pullbacks are limited to {CLOSED_INDEX_LIMIT} entries; "
                f"(p-1)*max(d, q-1) = {size}"
            )
        columns = [[0] * (self.p - 1) for _ in range(self.d)]
        for (i, j, c) in self.edges:
            if j < self.p:
                column = columns[c - 1]
                column[j - 1] = max(column[j - 1], i)
        return tuple(zip(*(accumulate(column, max) for column in columns)))

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
        with reading("graph"):
            edges = frozenset(
                tuple(strict_int(x, "an edge entry") for x in strict_list(e, "an edge"))
                for e in strict_list(obj["edges"], "edges")
            )
            q, p, d = (strict_int(obj[k], k) for k in ("q", "p", "d"))
            return cls(q, p, d, edges)


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


class SurjectionAlpha(Record):
    """Surjective level map {1..n} -> {1..p} given by its value tuple: n is
    its length and p its largest value."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n, p = self.n, self.p
        # n values cover at most n targets; testing that first keeps the
        # set of targets, and the memory, linear in n, whatever p is.
        if p > n or set(self.values) != set(range(1, p + 1)):
            raise DomainError(f"map must be surjective onto 1..{p}")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def p(self) -> int:
        return max(self.values, default=0)

    @classmethod
    def _from_surjective(cls, values: tuple[int, ...]) -> "SurjectionAlpha":
        """A map surjective by construction; no check runs."""
        alpha = object.__new__(cls)
        object.__setattr__(alpha, "values", values)
        return alpha

    @classmethod
    def of(cls, values: Sequence[int]) -> "SurjectionAlpha":
        return cls(tuple(strict_int(v, "an alpha value") for v in values))


class ParabolicRestriction(Record):
    """Positive outcome of the restriction analysis."""

    graph: EGraph
    beta: tuple[tuple[int, ...], ...]  # block-level tuple b(r) of each coordinate r

    @property
    def beta_image(self) -> tuple[tuple[int, ...], ...]:
        """The distinct tuples b_1 < ... < b_q."""
        return tuple(sorted(set(self.beta)))

    @cached_property
    def flag_type(self) -> FlagType | None:
        """The type of the restricted flag in Q^m, m = len(beta); None when
        it has no members.  The tuple image is totally ordered, so tuple
        order and componentwise order agree on it: the restricted flag is
        the coordinate flag of beta."""
        dims = level_dims(self.beta)
        return FlagType(len(self.beta), dims) if dims else None


class NotParabolic(Record):
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
    n = alpha.n
    if m < 1 or n % m != 0:
        raise DomainError(f"block size {m} does not divide {n}")
    d = n // m
    beta = tuple(zip(*(alpha.values[k * m : (k + 1) * m] for k in range(d))))
    image = sorted(set(beta))
    # Distinct tuples in lexicographic order: a later tuple y is comparable
    # with x exactly when x <= y componentwise, so the order is total when
    # each tuple is <= the next.
    for x, y in zip(image, image[1:]):
        if not all(map(le, x, y)):
            return NotParabolic(_first_incomparable(image))
    q = len(image)
    edges: set[Edge] = set()
    for k in range(d):
        last_with_value: dict[int, int] = {}
        for i, b in enumerate(image, start=1):
            last_with_value[b[k]] = i
        for j, i in last_with_value.items():
            edges.add((i, j, k + 1))
    return ParabolicRestriction(EGraph(q, alpha.p, d, frozenset(edges)), beta)


def _first_incomparable(image: list[tuple[int, ...]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first pair a scan of all pairs of the sorted distinct tuples would
    report: the first x not <= the componentwise minimum of the tuples after
    it, then the first later tuple x is not <= ; linear in the image."""
    # lows[a] is the componentwise minimum of image[a + 1:].
    lows = list(accumulate(reversed(image[1:]), lambda low, y: tuple(map(min, low, y))))[::-1]
    a = next(a for a, low in enumerate(lows) if not all(map(le, image[a], low)))
    return image[a], next(y for y in image[a + 1 :] if not all(map(le, image[a], y)))


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


def all_surjections(n: int, p: int) -> Iterator[SurjectionAlpha]:
    """All surjective maps {1..n} -> {1..p}, in lexicographic value order.

    Depth first over the positions, smallest value first; a value is
    placed only when the positions left after it can still take every
    value the prefix misses: no dead prefix is extended, and every full
    tuple is surjective, so its record is built unchecked."""
    values: list[int] = []

    def extend(taken: int, missing: int) -> Iterator[SurjectionAlpha]:
        # Bit v of `taken` is set when the prefix takes v; `missing` counts
        # the values it does not take.
        left = n - 1 - len(values)
        for v in range(1, p + 1):
            new = not taken >> v & 1
            if missing - new <= left:
                values.append(v)
                if left:
                    yield from extend(taken | 1 << v, missing - new)
                else:
                    yield SurjectionAlpha._from_surjective(tuple(values))
                values.pop()

    if n > 0:
        yield from extend(0, p)
    elif n == p == 0:
        yield SurjectionAlpha(())


def surjections(n: int) -> Iterator[SurjectionAlpha]:
    """All surjective maps with domain {1..n}, over every target size."""
    for p in range(1, n + 1):
        yield from all_surjections(n, p)


def enumerate_valid_graphs(q: int, p: int, d: int) -> Iterator[EGraph]:
    """All valid graphs with the given vertex and colour counts, in the
    order of the product of per-colour options.

    A colour option is a set of pairs (l_a1, r_b1), ..., (l_as, r_bs) with
    a1 < ... < as = q and b1 < ... < bs.  By construction no vertex meets
    two edges of one colour, edges of one colour never cross, and l_q
    meets exactly one edge of the colour; conversely every colour class of
    a valid graph has this form.  A choice of one option per colour is
    therefore valid exactly when every vertex meets some edge: each option
    carries a mask of the vertices it covers, and a graph is built only
    when the masks of its colours cover all q + p vertices.
    """
    options: list[tuple[int, frozenset[tuple[int, int]]]] = []
    for size in range(1, min(q, p) + 1):
        for lefts in combinations(range(1, q), size - 1):
            ls = (*lefts, q)
            left_mask = sum(1 << (i - 1) for i in ls)
            for rights in combinations(range(1, p + 1), size):
                mask = left_mask | sum(1 << (q + j - 1) for j in rights)
                options.append((mask, frozenset(zip(ls, rights))))
    full = (1 << (q + p)) - 1
    for combo in product(options, repeat=d):
        cover = 0
        for mask, _ in combo:
            cover |= mask
        if cover == full:
            edges = frozenset(
                (i, j, c) for c, (_, pairs) in enumerate(combo, start=1) for (i, j) in pairs
            )
            yield EGraph(q, p, d, edges)
