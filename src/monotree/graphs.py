"""Simple graphs and 3-edge-colourings over dense bitset adjacency.

Vertices are 0..n-1 and every adjacency row is a Python int used as a bit
vector, which keeps the hot operations downstream (neighbourhood
intersections, component unions, coverage tests) inside C integer
arithmetic.  All values are immutable after construction.

Sampling keeps the same discipline.  G(n, p) and the random colouring
draw their splitmix64 values in lane blocks (`SplitMix64.lanes`): one
Python int holds LANES draws, draw j in bits [128j, 128j + 64) of its
own 128-bit lane, so a whole block is a fixed number of big-int
operations and no lane carries into the next.  Every sampler owns its
generator, so the draws of the last block that it leaves unread change
nothing.  The sparse path reads the draws back as an array of 64-bit
words and sets both bits of each edge in int rows; the dense per-pair
outcome is read out of each lane's bytes with `to_bytes(...)[k::16]`,
rows are rebuilt from binary digit strings with int(..., 2) (linear
time for base 2), and the upper triangle is mirrored into the lower one
a band of columns at a time (`_mirror`).  numpy is not
used: it would do the same arithmetic, but importing it alone raises a
monotree process's RSS by about 11 MB (16 to 27.7 MB on Python 3.11),
well past the 15% peak-memory bound of the dense-probe benchmark.

The text format is read and written the same way.  `dump_rows` writes a
row at a time: the row's three colour rows become one hex number whose
digit k is the colour of column u + 1 + k, and its digits select the
row's edge columns.  It is the one serialiser: `dumps` joins its chunks,
and `store` and the CLI stream them, so a writer holds one row's text at
a time, not the whole text.  `loads` tokenises blocks of about
BLOCK_CHARS characters with one `str.split`, each line of a block
followed by a separator token "|" that neither the vertex-name table nor
the colour table accepts, so one count of tokens checks the shape of
every line.  A block of ASCII text whose only line breaks are line feeds
is split as it stands, each line feed replaced by " | "; any other block
is split into lines first.  The name table (`_VertexNames`) calls int() once per distinct spelling of a
vertex and checks its range as it does, so a vertex named 760 times
costs one conversion.  `loads` sets both bits of each edge, and leaves
per-line work to naming the first faulty line.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain, compress, repeat
from operator import add, lshift, lt, or_, rshift
from typing import Iterable, Iterator

from .rng import LANE_MASK, LANE_ONES, LANES, MASK64, SplitMix64


class Colour(IntEnum):
    """The three edge colours with the fixed total order RED < GREEN < BLUE.

    This order is the canonical tie-break everywhere: inherited colourings,
    candidate enumeration, component ids.
    """

    RED = 0
    GREEN = 1
    BLUE = 2


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


def check_probability(p: float) -> None:
    """Raise ValueError unless p lies in [0, 1]; NaN does not."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")


# The largest vertex count `loads` reads and `generate_gnp` samples.  The
# per-vertex rows are allocated from it before any edge, so an unchecked
# count would let a one-line file or a single flag exhaust memory.
MAX_VERTICES = 1 << 16


def generate_gnp(n: int, p: float, seed: int) -> SimpleGraph:
    """Sample the binomial random graph: every unordered pair is an edge
    independently with probability p, driven by the splitmix64 stream of
    `seed`.

    Dense p draws once per pair in row order, and pair (u, v) is an edge
    iff its draw is below floor(p * 2^64); the draws come in lane blocks
    (`SplitMix64.lanes`), where the test z < T is bit 64 of the lane
    2^64 + T - 1 - z, and the upper triangle is then mirrored by
    `_mirror`.  Sparse p (below 0.1) skips geometric gaps along the pair
    sequence, one draw and one float `log` per edge; its draws are read
    from lane blocks too.  Both paths are pure functions of (n, p, seed).

    A p so small that 1 - p rounds to 1 (p <= 2^-54) gives the empty
    graph, as p = 0 does: the gaps' log(1 - p) would be 0, and the
    expected edge count is below 2^-54 * MAX_VERTICES^2 / 2 = 2^-23, about
    1.2e-7.
    """
    check_probability(p)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if n < 2 or 1.0 - p == 1.0:
        return SimpleGraph.empty(n)
    if p < 0.1:
        return SimpleGraph(n, _sample_sparse(n, p, SplitMix64(seed)))
    return SimpleGraph(n, tuple(_mirror(_bernoulli_rows(n, p, SplitMix64(seed)))))


def _bernoulli_rows(n: int, p: float, rng: SplitMix64) -> list[int]:
    """The strict upper triangle of G(n, p): row u holds the bits v > u."""
    threshold = int(p * 18446744073709551616.0)  # floor(p * 2**64)
    bias = LANE_ONES * (MASK64 + threshold)  # 2^64 + threshold - 1 in every lane
    rows = []
    bits = b""  # one byte 0 or 1 per drawn pair not yet placed in a row
    for u in range(n - 1):
        width = n - 1 - u
        while len(bits) < width:
            # every lane of the difference lies in [0, 2^65): no borrow
            # crosses a lane, and its byte 8 is the lane's bit 64
            bits += (bias - rng.lanes()).to_bytes(16 * LANES, "little")[8::16]
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
    from math import log

    rows = [0] * n
    total = n * (n - 1) // 2
    ln_q = log(1.0 - p)
    index = -1  # the pair index of the last edge, in row-major order
    u, start = 0, 0  # the row of pair `index`, and the index of pair (u, u + 1)
    while True:
        words = array("Q", rng.lanes().to_bytes(16 * LANES, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        for w in words[::2]:
            index += int(log(1.0 - (w >> 11) * 1.1102230246251565e-16) / ln_q) + 1  # 2**-53
            if index >= total:
                return tuple(rows)
            while index >= start + n - 1 - u:
                start += n - 1 - u
                u += 1
            v = u + 1 + (index - start)
            rows[u] |= 1 << v
            rows[v] |= 1 << u


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

    def edge_count(self) -> int:
        return self.graph.edge_count()


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
    red, green = [], []
    colours = b""  # drawn colours not yet placed, one byte 0, 1 or 2 each
    group = max(1, GROUP_CHARS // max(n, 1))
    for a in range(0, n, group):
        shifts = range(a + 1, n + 1)
        ups = list(map(rshift, g.adj[a : a + group], shifts))  # bits above u, from bit 0
        digits = "|".join(map(bin, reversed(ups)))
        k = digits.count("1")
        while len(colours) < k:
            colours += _colour_block(rng)
        code = digits.replace("1", "%c") % tuple(colours[:k][::-1])
        colours = colours[k:]
        for rows, table in ((red, _RED_DIGITS), (green, _GREEN_DIGITS)):
            parts = reversed(code.translate(table).split("|"))
            rows += map(lshift, map(int, parts, repeat(2)), shifts)
    _mirror(red)
    _mirror(green)
    blue = tuple(a & ~(r | gr) for a, r, gr in zip(g.adj, red, green))
    return ColouredGraph(g, (tuple(red), tuple(green), blue))


def _colour_block(rng: SplitMix64) -> bytes:
    """The next block of `randrange(3)` outcomes of rng, one byte each.

    randrange(3) is z mod 3 = z - 3 * ((z * 0xAAAAAAAAAAAAAAAB) >> 65),
    computed lane-wise; every lane product stays below 2^128.  It rejects
    only z = 2^64 - 1, the one lane value with z + 1 = 2^64: such a lane
    is marked 3 and dropped, so the block may hold fewer outcomes than
    it has lanes, and the stream has still advanced past every lane.
    """
    z = rng.lanes()
    quotient = (z * 0xAAAAAAAAAAAAAAAB >> 65) & (LANE_MASK ^ (LANE_ONES << 63))
    colours = z - 3 * quotient
    rejected = (z + LANE_ONES) & (LANE_ONES << 64)
    if rejected:
        colours += (rejected >> 64) * 3
    return colours.to_bytes(16 * LANES, "little")[::16].translate(None, b"\x03")


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


# Characters per block of text that `loads` tokenises at once.
BLOCK_CHARS = 1 << 16
# A token that neither `_VertexNames` nor LETTER_TO_COLOUR accepts, set
# after each line of a block.
_SEPARATOR = " | "
# The ASCII characters other than the line feed at which `str.splitlines`
# ends a line; a block holding one, or a non-ASCII character, is split
# into lines before it is tokenised.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"
# `dump_rows` writes an edge of colour c as the hex digit c + 1, 0 for none.
_HEX_TO_LETTER = bytes.maketrans(b"0123", b"\0rgb")

def dumps(cg: ColouredGraph) -> str:
    """Serialize to the text interchange format.

    First line "n <count>", then one line "u v c" per edge with u < v and
    c in {r, g, b}; '#' starts a comment.  The text is the join of
    `dump_rows(cg)`; a writer that streams those chunks instead holds one
    row at a time.
    """
    return "".join(dump_rows(cg))


def dump_rows(cg: ColouredGraph) -> Iterator[str]:
    """The text of `dumps(cg)` in chunks: the "n <count>" header line, then
    the lines of each row u that has an edge to a higher vertex.

    Row u's colour rows above column u, written in binary and read back as
    hexadecimal, put column u + 1 + k of each colour in hex digit k; red +
    2 green + 3 blue then holds the colour of that pair, plus one, in digit
    k (0: no edge).  Its hex digits, lowest first, mapped to letters,
    select the " v " names of the row's edges, and one join writes the
    row's lines.  The work per row is the row's significant width, not n.
    """
    n = cg.n
    names = [f" {v} " for v in range(n)]
    yield f"n {n}\n"
    for u, (r, g, b) in enumerate(zip(*cg.colour_adj)):
        above = u + 1
        r, g, b = r >> above, g >> above, b >> above
        if r | g | b:
            x = int(bin(r)[2:], 16) + 2 * int(bin(g)[2:], 16) + 3 * int(bin(b)[2:], 16)
            letters = format(x, "x")[::-1].encode().translate(_HEX_TO_LETTER)
            picked = compress(names[above : above + len(letters)], letters)
            colours = letters.replace(b"\0", b"").decode()
            yield f"{u}" + f"\n{u}".join(map(add, picked, colours)) + "\n"


def loads(text: str) -> ColouredGraph:
    """Parse the text interchange format; raises GraphFormatError with the
    offending line number on malformed input, including a vertex count
    above MAX_VERTICES.

    The edge lines are read in blocks of about BLOCK_CHARS characters
    (`_text_blocks`), each tokenised by one split (`_edge_block`) with no
    Python step per line, and every vertex name is read through one
    `_VertexNames` table for the whole text.  A block of ASCII text whose
    only line breaks are line feeds is tokenised as it stands; any other
    block is split into lines first and its lines joined again with line
    feeds, and so is the rest of the header's block.  A block that fails
    that pass is read again without its blank and comment lines.  If it
    fails again, or if the colour rows overlap at the end, the text holds
    a faulty line, and `_first_fault` names the first one, in line order,
    whether it is malformed or gives an edge a second colour.
    """
    blocks = _text_blocks(text)
    lineno = 1
    for block in blocks:
        lines = block.splitlines()
        header = next((i for i, line in enumerate(lines) if _is_data(line)), None)
        if header is not None:
            break
        lineno += len(lines)
    else:
        raise GraphFormatError("line 1: missing header 'n <count>'")
    lineno += header
    parts = lines[header].split()
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
    rows = ([0] * n, [0] * n, [0] * n)
    row_of = {letter: rows[c] for letter, c in LETTER_TO_COLOUR.items()}
    names = _VertexNames(n)
    rest = "\n".join([*lines[header + 1 :], ""])
    for block in chain([rest], blocks):
        if not block.isascii() or any(map(block.__contains__, _OTHER_BREAKS)):
            # split into lines as `str.splitlines` does, and join them
            # again with line feeds
            block = "\n".join([*block.splitlines(), ""])
        edges = _edge_block(block, names, row_of)
        if edges is None:
            data = "\n".join([*filter(_is_data, block.splitlines()), ""])
            edges = _edge_block(data, names, row_of)
            if edges is None:
                raise _first_fault(text, n)
        for u, v, row in zip(*edges):
            row[u] |= 1 << v
            row[v] |= 1 << u
    red, green, blue = rows
    adj = tuple(map(or_, map(or_, red, green), blue))
    try:
        return ColouredGraph(SimpleGraph(n, adj), (tuple(red), tuple(green), tuple(blue)))
    except ValueError:
        # Every edge was validated, so only a pair listed with two colours,
        # which sets its bit in two colour rows, can be rejected here.
        raise _first_fault(text, n) from None


def _text_blocks(text: str) -> Iterator[str]:
    """Successive blocks of text.  A block ends after the first line feed
    at or past BLOCK_CHARS characters into it, which is always the end of
    a line as `str.splitlines` splits it, so the whole text's line list
    is never built."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + BLOCK_CHARS) + 1 or len(text)
        yield text[start:end]
        start = end


def _is_data(line: str) -> bool:
    """Whether a line is read: not blank, and not a comment."""
    parts = line.split()
    return bool(parts) and not parts[0].startswith("#")


class _VertexNames(dict):
    """The vertex that each spelling of a name stands for, in a text of n
    vertices.  A missing spelling is read by int() once, with every form
    int() accepts (05, +5, -0, 1_1, non-ASCII digits), and stored if
    0 <= v < n; otherwise it raises ValueError and is not stored."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, token: str) -> int:
        v = int(token)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        self[token] = v
        return v


def _edge_block(
    block: str, names: _VertexNames, row_of: dict[str, list[int]]
) -> tuple[list[int], list[int], list[list[int]]] | None:
    """The endpoints u and v and the colour rows of a block of "u v c"
    lines whose only line breaks are line feeds, or None if any line of
    it is not one with 0 <= u < v < n, or if a token follows the last
    line feed.

    Each line feed becomes a separator " | ", and one split reads the
    block.  One length test then checks the shape, by counting: S line
    feeds make 4S tokens in all only if the lines hold 3S.  Once every u,
    v and c place below has been read, which the name and colour tables
    refuse for "|", the S separators can stand only at the S places
    3, 7, ..., 4S - 1.  So the j-th separator is token 4j - 1, the j-th
    line holds the 3 tokens before it, and nothing follows the last one.
    The name table checks 0 <= u, v < n as it reads, leaving u < v.
    """
    tokens = block.replace("\n", _SEPARATOR).split()
    if len(tokens) != 4 * block.count("\n"):
        return None
    try:
        us = list(map(names.__getitem__, tokens[0::4]))
        vs = list(map(names.__getitem__, tokens[1::4]))
        colour_rows = list(map(row_of.__getitem__, tokens[2::4]))
    except (ValueError, KeyError):
        return None
    if not all(map(lt, us, vs)):
        return None
    return us, vs, colour_rows


def _first_fault(text: str, n: int) -> GraphFormatError:
    """The error for the first faulty edge line of a text whose header
    declared n vertices: a malformed line, or an edge that an earlier
    line gave another colour.  Only called on a text that holds one; it
    names the line and accepts no edge."""
    lines = (
        (lineno, line.split())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if _is_data(line)
    )
    next(lines)  # the header
    colours: dict[tuple[int, int], str] = {}
    for lineno, parts in lines:
        if len(parts) != 3:
            return GraphFormatError(f"line {lineno}: expected 'u v c'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            return GraphFormatError(f"line {lineno}: endpoints are not integers")
        if parts[2] not in LETTER_TO_COLOUR:
            return GraphFormatError(f"line {lineno}: colour must be one of r, g, b")
        if u == v:
            return GraphFormatError(f"line {lineno}: self-loop {u} {v}")
        if not 0 <= u < v:
            return GraphFormatError(f"line {lineno}: need 0 <= u < v, got {u} {v}")
        if v >= n:
            return GraphFormatError(f"line {lineno}: vertex {v} out of range for n={n}")
        if colours.setdefault((u, v), parts[2]) != parts[2]:
            return GraphFormatError(
                f"line {lineno}: edge {u} {v} already declared with another colour"
            )
    raise AssertionError("no faulty line in a text that failed the block pass")


def store(path: str, cg: ColouredGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(dump_rows(cg))


def load(path: str) -> ColouredGraph:
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())
