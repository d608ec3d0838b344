"""Simple graphs and 3-edge-colourings over dense bitset adjacency.

Vertices are 0..n-1 and every adjacency row is a Python int used as a bit
vector, which keeps the hot operations downstream (neighbourhood
intersections, component unions, coverage tests) inside C integer
arithmetic.  All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Iterator

from .rng import GOLDEN, MASK64, SplitMix64


class Colour(IntEnum):
    """The three edge colours with the fixed total order RED < GREEN < BLUE.

    This order is the canonical tie-break everywhere: inherited colourings,
    candidate enumeration, component ids.
    """

    RED = 0
    GREEN = 1
    BLUE = 2

    @property
    def letter(self) -> str:
        return "rgb"[self]


COLOURS = (Colour.RED, Colour.GREEN, Colour.BLUE)
LETTER_TO_COLOUR = {"r": Colour.RED, "g": Colour.GREEN, "b": Colour.BLUE}


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph: `adj[v]` has bit u set iff uv is an edge."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, row in enumerate(self.adj):
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if row >> self.n:
                raise ValueError(f"adjacency row {v} has out-of-range bits")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, lexicographically ascending."""
        for u in range(self.n):
            high = self.adj[u] >> (u + 1)
            for off in iter_bits(high):
                yield u, u + 1 + off

    def common_neighbourhood(self, vertices: Iterable[int]) -> int:
        """Bit mask of vertices adjacent to all of `vertices`, excluding them."""
        mask = self.full_mask
        drop = 0
        for v in vertices:
            mask &= self.adj[v]
            drop |= 1 << v
        return mask & ~drop

    @classmethod
    def empty(cls, n: int) -> "SimpleGraph":
        return cls(n, tuple(0 for _ in range(n)))

    @classmethod
    def complete(cls, n: int) -> "SimpleGraph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))


def first_nonadjacent_triple(g: SimpleGraph) -> tuple[int, int, int] | None:
    """Lexicographically smallest pairwise non-adjacent triple, if any."""
    full = g.full_mask
    for u in range(g.n - 2):
        non_u = ~g.adj[u] & full & ~(1 << u)
        cand = non_u >> (u + 1)
        base = u + 1
        while cand:
            low = cand & -cand
            v = base + low.bit_length() - 1
            cand ^= low
            above = full & ~((1 << (v + 1)) - 1)
            third = non_u & ~g.adj[v] & above
            if third:
                w = (third & -third).bit_length() - 1
                return (u, v, w)
    return None


def generate_gnp(n: int, p: float, seed: int) -> SimpleGraph:
    """Sample the binomial random graph: every unordered pair is an edge
    independently with probability p, driven by the splitmix64 stream of
    `seed`.

    Dense p uses one Bernoulli draw per pair in row order; sparse p (below
    0.1) skips geometric gaps along the pair sequence.  Both paths are pure
    functions of (n, p, seed).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    row_bytes = (n + 7) // 8
    rows = [bytearray(row_bytes) for _ in range(n)]
    if n >= 2 and p > 0.0:
        if p < 0.1:
            _sample_sparse(n, p, SplitMix64(seed), rows)
        else:
            _sample_dense(n, p, SplitMix64(seed), rows)
    adj = tuple(int.from_bytes(bytes(row), "little") for row in rows)
    return SimpleGraph(n, adj)


def _sample_dense(n: int, p: float, rng: SplitMix64, rows: list[bytearray]) -> None:
    # splitmix64 inlined: this loop runs once per vertex pair.
    threshold = int(p * 18446744073709551616.0)  # floor(p * 2**64)
    state = rng.state
    mask64 = MASK64
    golden = GOLDEN
    for u in range(n - 1):
        row_u = rows[u]
        byte_u = u >> 3
        bit_u = 1 << (u & 7)
        for v in range(u + 1, n):
            state = (state + golden) & mask64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask64
            if (z ^ (z >> 31)) < threshold:
                row_u[v >> 3] |= 1 << (v & 7)
                rows[v][byte_u] |= bit_u
    rng.state = state


def _sample_sparse(n: int, p: float, rng: SplitMix64, rows: list[bytearray]) -> None:
    from bisect import bisect_right
    from math import log

    total = n * (n - 1) // 2
    ln_q = log(1.0 - p)
    # starts[u] = index of pair (u, u+1) in the row-major pair sequence
    starts = [0] * n
    for u in range(1, n):
        starts[u] = starts[u - 1] + (n - u)
    index = -1
    while True:
        gap = int(log(1.0 - rng.random()) / ln_q)
        index += gap + 1
        if index >= total:
            return
        u = bisect_right(starts, index) - 1
        v = u + 1 + (index - starts[u])
        rows[u][v >> 3] |= 1 << (v & 7)
        rows[v][u >> 3] |= 1 << (u & 7)


@dataclass(frozen=True)
class ColouredGraph:
    """A simple graph with a total 3-colouring of its edges.

    `colour_adj[c][v]` is the bitset of c-coloured neighbours of v; the
    three rows of a vertex are disjoint and union to its adjacency row.
    """

    graph: SimpleGraph
    colour_adj: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        if len(self.colour_adj) != 3 or any(
            len(rows) != self.graph.n for rows in self.colour_adj
        ):
            raise ValueError("colour adjacency shape does not match graph")
        red, green, blue = self.colour_adj
        for v in range(self.graph.n):
            r, g, b = red[v], green[v], blue[v]
            if (r & g) or (r & b) or (g & b):
                raise ValueError(f"vertex {v} has an edge with two colours")
            if (r | g | b) != self.graph.adj[v]:
                raise ValueError(f"vertex {v}: colouring does not match edge set")

    @property
    def n(self) -> int:
        return self.graph.n

    def colour_of(self, u: int, v: int) -> Colour:
        for c in COLOURS:
            if (self.colour_adj[c][u] >> v) & 1:
                return c
        raise ValueError(f"({u}, {v}) is not an edge")

    def edges(self) -> Iterator[tuple[int, int, Colour]]:
        for u, v in self.graph.edges():
            yield u, v, self.colour_of(u, v)

    def edge_count(self) -> int:
        return self.graph.edge_count()

    @classmethod
    def from_edge_colours(
        cls, n: int, items: Iterable[tuple[int, int, Colour]]
    ) -> "ColouredGraph":
        rows = [[0] * n, [0] * n, [0] * n]
        adj = [0] * n
        for u, v, c in items:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if (adj[u] >> v) & 1:
                if not (rows[c][u] >> v) & 1:
                    raise ValueError(f"edge ({u}, {v}) listed with two colours")
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            rows[c][u] |= 1 << v
            rows[c][v] |= 1 << u
        return cls(
            SimpleGraph(n, tuple(adj)),
            tuple(tuple(r) for r in rows),  # type: ignore[arg-type]
        )


def colour_random(g: SimpleGraph, seed: int) -> ColouredGraph:
    """Colour every edge of g independently and uniformly with one of the
    three colours; deterministic for a given seed.  Edges are drawn in
    (u, v) lexicographic order."""
    rng = SplitMix64(seed)
    n = g.n
    rows = [[0] * n, [0] * n, [0] * n]
    for u, v in g.edges():
        c = rng.randrange(3)
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    return ColouredGraph(g, tuple(tuple(r) for r in rows))  # type: ignore[arg-type]


def colour_three_stars(
    g: SimpleGraph, x1: int, x2: int, x3: int, base: Colour
) -> ColouredGraph:
    """Star colouring that forces three trees: edges at x1 become RED, at x2
    GREEN, at x3 BLUE, and every remaining edge gets `base`.

    x1, x2, x3 must be pairwise distinct and pairwise non-adjacent in g; an
    edge between two centres would need two colours at once.
    """
    centres = (x1, x2, x3)
    if len(set(centres)) != 3:
        raise ValueError("star centres must be pairwise distinct")
    for a in centres:
        if not 0 <= a < g.n:
            raise ValueError(f"star centre {a} out of range")
    for i, a in enumerate(centres):
        for b in centres[i + 1 :]:
            if g.has_edge(a, b):
                raise ValueError(f"star centres {a} and {b} are adjacent")
    star_colour = {x1: Colour.RED, x2: Colour.GREEN, x3: Colour.BLUE}
    n = g.n
    rows = [[0] * n, [0] * n, [0] * n]
    for u, v in g.edges():
        if u in star_colour:
            c = star_colour[u]
        elif v in star_colour:
            c = star_colour[v]
        else:
            c = base
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    return ColouredGraph(g, tuple(tuple(r) for r in rows))  # type: ignore[arg-type]


class GraphFormatError(ValueError):
    """Malformed coloured-graph text; message carries the 1-based line."""


# The largest vertex count `loads` accepts.  The header is read before any
# edge, and the graph's per-vertex rows are allocated from it, so an
# unchecked count would let a one-line file exhaust memory.
MAX_VERTICES = 1 << 16


def dumps(cg: ColouredGraph) -> str:
    """Serialize to the text interchange format.

    First line "n <count>", then one line "u v c" per edge with u < v and
    c in {r, g, b}; '#' starts a comment.
    """
    lines = [f"n {cg.n}"]
    for u, v, c in cg.edges():
        lines.append(f"{u} {v} {c.letter}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> ColouredGraph:
    """Parse the text interchange format; raises GraphFormatError with the
    offending line number on malformed input, including a vertex count
    above MAX_VERTICES."""
    lines = (
        (lineno, parts)
        for lineno, parts in enumerate(map(str.split, text.splitlines()), start=1)
        if parts and not parts[0].startswith("#")
    )
    lineno, parts = next(lines, (1, None))
    if parts is None:
        raise GraphFormatError("line 1: missing header 'n <count>'")
    if len(parts) != 2 or parts[0] != "n":
        raise GraphFormatError(f"line {lineno}: expected header 'n <count>'")
    try:
        n = int(parts[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: vertex count is not an integer")
    if n < 0:
        raise GraphFormatError(f"line {lineno}: vertex count must be >= 0")
    if n > MAX_VERTICES:
        raise GraphFormatError(
            f"line {lineno}: vertex count {n} exceeds the limit of {MAX_VERTICES}"
        )
    last = (0, 0, 0)  # (line, u, v) of the edge handed over last

    def edges() -> Iterator[tuple[int, int, Colour]]:
        nonlocal last
        for lineno, parts in lines:
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 'u v c'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: endpoints are not integers")
            if parts[2] not in LETTER_TO_COLOUR:
                raise GraphFormatError(f"line {lineno}: colour must be one of r, g, b")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop {u} {v}")
            if not 0 <= u < v:
                raise GraphFormatError(f"line {lineno}: need 0 <= u < v, got {u} {v}")
            if v >= n:
                raise GraphFormatError(f"line {lineno}: vertex {v} out of range for n={n}")
            last = (lineno, u, v)
            yield u, v, LETTER_TO_COLOUR[parts[2]]

    try:
        return ColouredGraph.from_edge_colours(n, edges())
    except GraphFormatError:
        raise
    except ValueError:
        # Every edge was validated above, so only the two-colour rule of
        # from_edge_colours can reject one.
        lineno, u, v = last
        raise GraphFormatError(
            f"line {lineno}: edge {u} {v} already declared with another colour"
        ) from None


def store(path: str, cg: ColouredGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(dumps(cg))


def load(path: str) -> ColouredGraph:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())
