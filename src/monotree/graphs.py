"""Simple graphs and 3-edge-colourings over dense bitset adjacency.

Vertices are 0..n-1 and every adjacency row is a Python int used as a bit
vector, which keeps the hot operations downstream (neighbourhood
intersections, component unions, coverage tests) inside C integer
arithmetic.  All values are immutable after construction.

Sampling keeps the same discipline.  The dense G(n, p) stream and the
random colouring draw their splitmix64 values in lane blocks
(`SplitMix64.lanes`): one Python int holds up to LANES draws, draw j in
bits [128j, 128j + 64) of its own 128-bit lane, so a whole block is a
fixed number of big-int operations and no lane carries into the next.
The per-pair outcome is read out of each lane's bytes with
`to_bytes(...)[k::16]`, rows are rebuilt from binary digit strings with
int(..., 2) (linear time for base 2), and the upper triangle is mirrored
into the lower one a band of columns at a time (`_mirror`).  numpy is not
used: it would do the same arithmetic, but importing it alone raises a
monotree process's RSS by about 11 MB (16 to 27.7 MB on Python 3.11),
well past the 15% peak-memory bound of the dense-probe benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import repeat
from operator import lshift, rshift
from typing import Iterable, Iterator

from .rng import MASK64, SplitMix64, lane_constants


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

# Columns per band when `_mirror` transposes an upper triangle.
BAND = 128
# Binary digits per group of rows that `colour_random` colours at once.
GROUP_CHARS = 1 << 15

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# colour_random writes colour c as the character chr(c) among the digits
_RED_DIGITS = str.maketrans("\x00\x01\x02", "100")
_GREEN_DIGITS = str.maketrans("\x00\x01\x02", "010")


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

    Dense p draws once per pair in row order, and pair (u, v) is an edge
    iff its draw is below floor(p * 2^64); the draws come in lane blocks
    (`SplitMix64.lanes`), where the test z < T is bit 64 of the lane
    2^64 + T - 1 - z, and the upper triangle is then mirrored by
    `_mirror`.  Sparse p (below 0.1) skips geometric gaps along the pair
    sequence, one scalar draw per edge, since its gaps need a float `log`.
    Both paths are pure functions of (n, p, seed).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n < 2 or p == 0.0:
        return SimpleGraph.empty(n)
    if p < 0.1:
        return SimpleGraph(n, _sample_sparse(n, p, SplitMix64(seed)))
    return SimpleGraph(n, tuple(_mirror(_bernoulli_rows(n, p, SplitMix64(seed)))))


def _bernoulli_rows(n: int, p: float, rng: SplitMix64) -> list[int]:
    """The strict upper triangle of G(n, p): row u holds the bits v > u."""
    threshold = int(p * 18446744073709551616.0)  # floor(p * 2**64)
    left = n * (n - 1) // 2  # draws not yet taken from rng
    rows = []
    bits = b""  # one byte 0 or 1 per drawn pair not yet placed in a row
    bias = bias_lanes = 0  # 2^64 + threshold - 1 in each of bias_lanes lanes
    for u in range(n - 1):
        width = n - 1 - u
        while len(bits) < width:
            z, lanes = rng.lanes(left)
            left -= lanes
            if lanes != bias_lanes:
                bias, bias_lanes = lane_constants(lanes)[0] * (MASK64 + threshold), lanes
            # every lane of the difference lies in [0, 2^65): no borrow
            # crosses a lane, and its byte 8 is the lane's bit 64
            bits += (bias - z).to_bytes(16 * lanes, "little")[8::16]
        rows.append(int(bits[width - 1 :: -1].translate(_DIGITS), 2) << (u + 1))
        bits = bits[width:]
    rows.append(0)
    return rows


def _mirror(rows: list[int]) -> list[int]:
    """Complete a strict upper triangle to symmetric rows, in place: row v
    gains bit u for every u < v whose row has bit v.  Returns `rows`.

    The transpose runs over bands of BAND columns, left to right.  A band
    is one string: per row, `bin` of the row's bits in the band under a
    sentinel bit, so every row takes the same number of characters; each
    column of the band is then a strided slice of it, read back by
    int(..., 2).  Both conversions take linear time in base 2.  Row v
    gains only bits u < v, below the band that fills it in, so later
    bands still read the upper triangle.  One band is held at a time, and
    the transient memory stays O(n * BAND) bytes.
    """
    n = len(rows)
    for lo in range(0, n, BAND):
        hi = min(lo + BAND, n)
        width = hi - lo
        window = (1 << width) - 1
        sentinel = 1 << width
        # only rows u < hi - 1 can hold a bit in [lo, hi); each row reads
        # "0b1" and then columns hi - 1 down to lo
        text = "".join([bin(row >> lo & window | sentinel) for row in rows[: hi - 1]])
        stride = width + 3
        top = len(text) - stride + 3 + hi - 1  # column 0's place in the last row
        for v in range(max(lo, 1), hi):
            column = text[top - v :: -stride]
            if "1" in column:
                rows[v] |= int(column, 2)
    return rows


def _sample_sparse(n: int, p: float, rng: SplitMix64) -> tuple[int, ...]:
    from bisect import bisect_right
    from math import log

    rows = [bytearray((n + 7) // 8) for _ in range(n)]
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
            return tuple(int.from_bytes(row, "little") for row in rows)
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
    (u, v) lexicographic order, each taking `SplitMix64.randrange(3)`.

    The draws come in lane blocks (`_colour_block`), and rows are
    coloured in groups of about GROUP_CHARS binary digits with no Python
    step per row or edge: the group's upper rows, last row first and each
    from its highest bit down, are written as `bin` digits joined by "|",
    so the edges appear in reverse draw order; each "1" becomes a "%c"
    that the reversed colours fill in; and the red and green digits are
    read back per row by int(..., 2).  The red and green upper triangles
    are then mirrored by `_mirror`; blue is what is left.
    """
    rng = SplitMix64(seed)
    n = g.n
    left = g.edge_count()  # edges whose colour is not yet drawn
    red, green = [], []
    colours = b""  # drawn colours not yet placed, one byte 0, 1 or 2 each
    group = max(1, GROUP_CHARS // max(n, 1))
    for a in range(0, n, group):
        shifts = range(a + 1, n + 1)
        ups = list(map(rshift, g.adj[a : a + group], shifts))  # bits above u, from bit 0
        digits = "|".join(map(bin, reversed(ups)))
        k = digits.count("1")
        while len(colours) < k:
            fresh = _colour_block(rng, left)
            left -= len(fresh)
            colours += fresh
        code = digits.replace("1", "%c") % tuple(colours[:k][::-1])
        colours = colours[k:]
        for rows, table in ((red, _RED_DIGITS), (green, _GREEN_DIGITS)):
            parts = reversed(code.translate(table).split("|"))
            rows += map(lshift, map(int, parts, repeat(2)), shifts)
    _mirror(red)
    _mirror(green)
    blue = tuple(a & ~(r | gr) for a, r, gr in zip(g.adj, red, green))
    return ColouredGraph(g, (tuple(red), tuple(green), blue))


def _colour_block(rng: SplitMix64, wanted: int) -> bytes:
    """The next block of `randrange(3)` outcomes of rng, one byte each.

    randrange(3) is z mod 3 = z - 3 * ((z * 0xAAAAAAAAAAAAAAAB) >> 65),
    computed lane-wise; every lane product stays below 2^128.  It rejects
    only z = 2^64 - 1, the one lane value with z + 1 = 2^64: such a lane
    is marked 3 and dropped, so the block may hold fewer outcomes than
    it has lanes, and the stream has still advanced past every lane.
    """
    z, lanes = rng.lanes(wanted)
    ones, _, mask = lane_constants(lanes)
    quotient = (z * 0xAAAAAAAAAAAAAAAB >> 65) & (mask ^ (ones << 63))
    colours = z - 3 * quotient
    rejected = (z + ones) & (ones << 64)
    if rejected:
        colours += (rejected >> 64) * 3
    return colours.to_bytes(16 * lanes, "little")[::16].translate(None, b"\x03")


def colour_three_stars(
    g: SimpleGraph, x1: int, x2: int, x3: int, base: Colour
) -> ColouredGraph:
    """Star colouring that forces three trees: edges at x1 become RED, at x2
    GREEN, at x3 BLUE, and every remaining edge gets `base`.

    x1, x2, x3 must be pairwise distinct and pairwise non-adjacent in g; an
    edge between two centres would need two colours at once.  Each colour
    is a row mask: a non-centre row sends its centre bits to the centres'
    colours and the rest to `base`, and a centre's row goes whole to its
    colour.
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
    star = (1 << x1) | (1 << x2) | (1 << x3)
    rows = []
    for c, x in zip(COLOURS, centres):
        keep = (1 << x) | (~star if c == base else 0)
        colour_rows = [a & keep for a in g.adj]
        colour_rows[x1] = colour_rows[x2] = colour_rows[x3] = 0
        colour_rows[x] = g.adj[x]
        rows.append(tuple(colour_rows))
    return ColouredGraph(g, tuple(rows))  # type: ignore[arg-type]


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
