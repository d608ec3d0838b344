"""Simple graphs and 3-edge-colourings over dense bitset adjacency.

Vertices are 0..n-1 and every adjacency row is a Python int used as a bit
vector, which keeps the hot operations downstream (neighbourhood
intersections, component unions, coverage tests) inside C integer
arithmetic.  All values are immutable after construction.

Sampling keeps the same discipline.  G(n, p) and the random colouring
take their splitmix64 draws in draw order from `rng.py`, whose module
docstring gives the lane blocks that compute them: sparse G(n, p) reads
raw draws (`SplitMix64.words`), dense G(n, p) and the colouring one
outcome byte per draw (`SplitMix64.coins`, `SplitMix64.residues`).
`random_coloured_gnp` colours sparse G(n, p) as its edges are drawn,
in the one loop that samples them.
Dense rows are rebuilt from binary digit strings with int(..., 2)
(linear time for base 2), and the upper triangle is mirrored into the
lower one by a transpose of 8x8 bit blocks, packed in bytes and run on
every block of a band of columns at once with big-int masks and shifts,
as `rng.py` runs its lanes (`_mirror`).  `colour_random` has
two regimes that take their outcomes from one reader: below a mean
degree that grows with n it walks the edges and sets both bits of each,
and otherwise it colours rows from digit strings and mirrors them.  The
rule is a function of the graph alone, and either regime gives the same
rows.
numpy is not used: it would do the same arithmetic, but importing it
alone raises a monotree process's RSS by about 11 MB (16 to 27.7 MB on
Python 3.11), well past the 15% peak-memory bound of the dense-probe
benchmark.

The text format is read and written the same way.  `dump_rows` writes a
row at a time, taking its lines from one table of the 3n lines " v c":
a complete row sets the letters of a template of the table's red lines
from its `bin` digits, a dense row with gaps selects its lines by its
`bin` digits, and a sparse row by its set bits.  It is the one
serialiser: `dumps` joins its chunks, and `store` and the CLI stream
them, so a writer holds one row's text at a time, not the whole text.
Both readers take their text from one block source (`_line_blocks`),
which cuts it into blocks of whole lines of about BLOCK_CHARS characters
and turns every line break into a line feed: `loads` feeds it slices of
its string, and `load` reads of a file through one incremental UTF-8
decoder, so neither holds the whole text.
The reader (`_read`) counts the blocks' line feeds in a first pass,
which for a file is also the UTF-8 check, then tokenises each block with
one `str.split`, each line followed by a separator token "|" that
neither the vertex-name table nor the colour table accepts, so one count
of tokens checks the shape of every line.  The name table
(`_VertexNames`) calls int() once per distinct spelling of a vertex and
checks its range as it does, so a vertex named 760 times costs one
conversion.  A text with many lines against n^2 sets one bit of each
edge, taken from a table of the n single bits, and tests u < v once per
colour row before it mirrors the rows; any other sets both bits of each
edge and tests u < v on each block's lines.  Per-line work is left to
naming the first faulty line.
"""

from __future__ import annotations

import codecs
import io
from dataclasses import dataclass
from enum import IntEnum
from functools import partial
from itertools import chain, compress, pairwise
from math import log
from operator import lt
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .rng import Outcomes, SplitMix64


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

# Columns per band, and rows per block, when `_mirror` transposes an
# upper triangle.
BAND = 128
_ROW_BLOCK = 1024
# The three steps of the 8x8 bit-matrix transpose (Warren, Hacker's
# Delight, 2nd ed., section 7-3): each swaps the bits that its mask picks
# in every 64-bit lane with those `shift` places above them.  A mask is
# repeated across the most lanes of one band, BAND / 8 times _ROW_BLOCK / 8.
_TRANSPOSE_STEPS = [
    (shift, int.from_bytes(mask.to_bytes(8, "little") * (BAND * _ROW_BLOCK // 64), "little"))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0xF0F0F0F0))
]
# `generate_gnp` samples p below SPARSE_P by geometric gaps.
SPARSE_P = 0.1
# `colour_random` colours edge by edge below a mean degree of
# EDGE_DEGREE + EDGE_SLOPE * n / BAND; its docstring gives the measured
# break-even.
EDGE_DEGREE = 32
EDGE_SLOPE = 2

# _colour_rows writes colour c as the byte c among the digits
_RED_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"100")
_GREEN_DIGITS = bytes.maketrans(b"\x00\x01\x02", b"010")


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


def first_nonadjacent_triple(adj: Sequence[int]) -> tuple[int, int, int] | None:
    """Lexicographically smallest pairwise non-adjacent triple, if any, of
    the graph whose row of v is `adj[v]`, bit v ignored.  A row is read
    only when the search reaches it, so `adj` may be a `SimpleGraph`'s rows
    or an accessor that builds each row on its first read."""
    full = (1 << len(adj)) - 1
    for u in range(len(adj) - 2):
        non_u = ~adj[u] & full & ~(1 << u)
        for v in iter_bits(non_u >> (u + 1) << (u + 1)):
            third = (non_u & ~adj[v]) >> (v + 1)
            if third:
                return (u, v, v + 1 + next(iter_bits(third)))
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
    iff its draw is below floor(p * 2^64): the rows read those outcomes
    as digits from one `SplitMix64.coins` reader of n(n - 1) / 2 coins,
    and the upper triangle is then mirrored by `_mirror`.  Sparse p
    (below SPARSE_P) skips geometric gaps along the pair sequence, one
    draw and one float `log` per edge (`_sample_sparse`, which
    `random_coloured_gnp` shares).  Both paths are pure functions of (n,
    p, seed).

    A p so small that 1 - p rounds to 1 (p <= 2^-54) gives the empty
    graph, as p = 0 does: the gaps' log(1 - p) would be 0, and the
    expected edge count is below 2^-54 * MAX_VERTICES^2 / 2 = 2^-23, about
    1.2e-7.
    """
    _check_gnp(n, p)
    if n < 2 or 1.0 - p == 1.0:
        return SimpleGraph.empty(n)
    if p < SPARSE_P:
        (rows,) = _sample_sparse(n, p, SplitMix64(seed))
        return SimpleGraph(n, tuple(rows))
    return SimpleGraph(n, tuple(_mirror(_bernoulli_rows(n, p, SplitMix64(seed)))))


def random_coloured_gnp(n: int, p: float, seed: int, colour_seed: int) -> ColouredGraph:
    """`colour_random(generate_gnp(n, p, seed), colour_seed)`, with the
    same rows and the same errors.

    Sparse G(n, p), which `generate_gnp` samples edge by edge, is
    coloured as it is drawn: `_sample_sparse` sets each edge's bits in
    the rows of its colour, read in edge order from one
    `SplitMix64.residues` reader of `colour_seed`, sized by the expected
    edge count.  No uncoloured graph is built, and the edges are not
    counted or walked a second time.  Any other (n, p) is sampled and
    then coloured.
    """
    _check_gnp(n, p)
    if n < 2 or 1.0 - p == 1.0 or p >= SPARSE_P:
        return colour_random(generate_gnp(n, p, seed), colour_seed)
    colours = SplitMix64(colour_seed).residues(int(p * (n * (n - 1) // 2)) + 1)
    rows = _sample_sparse(n, p, SplitMix64(seed), colours)
    return ColouredGraph(n, tuple(map(tuple, rows)))  # type: ignore[arg-type]


def _check_gnp(n: int, p: float) -> None:
    """Raise ValueError unless G(n, p) can be sampled: p in [0, 1] and
    0 <= n <= MAX_VERTICES."""
    check_probability(p)
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def _bernoulli_rows(n: int, p: float, rng: SplitMix64) -> list[int]:
    """The strict upper triangle of G(n, p): row u holds the bits v > u."""
    coins = rng.coins(p, n * (n - 1) // 2)
    return [int(coins.take(n - 1 - u)[::-1], 2) << (u + 1) for u in range(n - 1)] + [0]


def _mirror(rows: list[int]) -> list[int]:
    """Complete a strict upper triangle to symmetric rows, in place: row v
    gains bit u for every u < v whose row has bit v.  Returns `rows`.

    The rows are transposed _ROW_BLOCK at a time (`_mirror_block`), top
    to bottom.  Row v gains only bits u < v, below the columns of every
    later block, so later blocks still read the upper triangle.  The
    transient memory is one block's byte matrix, about _ROW_BLOCK * n / 8
    bytes and twice that while it is packed, and one band of it: at n =
    4096 the peak above the rows is about 3.3 MB, where one matrix of all
    rows would take 4.7 MB.
    """
    for top in range(0, len(rows) - 1, _ROW_BLOCK):
        _mirror_block(rows, top)
    return rows


def _mirror_block(rows: list[int], top: int) -> None:
    """Mirror the bits of rows top to top + _ROW_BLOCK - 1 into the rows
    of their columns, by 8x8 bit blocks.

    Each row of the block, shifted down by `top`, is packed into one
    little-endian byte matrix, whose rows are padded to a multiple of 8:
    byte j of packed row i holds columns 8j to 8j + 7 of row top + i.  A
    band of BAND columns is then gathered, one strided slice per byte
    column, into 64-bit lanes, lane by lane the bytes of one byte column
    in 8 consecutive rows, so bit 8k + b of a lane is column b of its row
    k.  One `int.from_bytes` of the band transposes every lane at once,
    in three mask-shift-xor steps (_TRANSPOSE_STEPS) that swap its 1x1,
    2x2 and 4x4 blocks across the diagonal; the masks keep each step
    inside its lane.  Byte b of each lane then holds column b's bits of
    its 8 rows, and the bits of one column in the block's rows are one
    strided slice, read back by `int.from_bytes` and OR-ed into the
    column's row at bit `top`.
    """
    n = len(rows)
    width = (n - top + 7) // 8  # bytes per packed row
    height = (min(_ROW_BLOCK, n - top) + 7) // 8 * 8
    matrix = b"".join(
        [(row >> top).to_bytes(width, "little") for row in rows[top : top + _ROW_BLOCK]]
    ).ljust(height * width, b"\0")
    for lo in range(0, width, BAND // 8):
        hi = min(lo + BAND // 8, width)
        # row i holds bits only in columns above i, so the rows from
        # 8 * hi - 1 on hold none in this band
        tall = min(height, 8 * hi)
        stop = tall * width
        lanes = int.from_bytes(b"".join([matrix[j:stop:width] for j in range(lo, hi)]), "little")
        for shift, mask in _TRANSPOSE_STEPS:
            swap = (lanes ^ (lanes >> shift)) & mask
            lanes ^= swap ^ (swap << shift)
        band = lanes.to_bytes(tall * (hi - lo), "little")
        for c in range(8 * lo, min(8 * hi, n - top)):
            start = (c // 8 - lo) * tall + c % 8
            column = int.from_bytes(band[start : start + tall : 8], "little")
            if column:
                rows[top + c] |= column << top


def _sample_sparse(
    n: int, p: float, rng: SplitMix64, colours: Outcomes | None = None
) -> list[list[int]]:
    """The rows of G(n, p), for n >= 2 and 0 < 1 - p < 1, by geometric
    gaps (Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005): one list
    of rows, or, given `colours`, a `SplitMix64.residues` reader, the red,
    green and blue rows, edge k in pair order taking outcome k.

    Each raw draw w of `rng` gives the gap to the next edge along the
    row-major order of the n(n - 1) / 2 pairs, int(log(1 - (w >> 11) *
    2^-53) / log(1 - p)) + 1.  The draws come a block at a time
    (`SplitMix64.words`), as many as the edges still expected, and every
    draw of a block but the last block's tail is an edge, so the block's
    colours are taken with it, one per draw: the colours of edges in draw
    order, whatever the block sizes (`Outcomes`).  Each edge's pair is
    decoded from its index and its two bits set, with no second walk.
    """
    rows = [[0] * n for _ in range(1 if colours is None else 3)]
    total = n * (n - 1) // 2
    ln_q = log(1.0 - p)
    index = -1  # the pair index of the last edge, in row-major order
    u, end = 0, n - 1  # the row of pair `index`, and the index of row u + 1's first pair
    while True:
        # the draws still wanted are not known; expect one per edge to come
        words = rng.words(int(p * (total - index)) + 1)
        outcomes = bytes(len(words)) if colours is None else colours.take(len(words))
        for w, c in zip(words, outcomes):
            index += int(log(1.0 - (w >> 11) * 1.1102230246251565e-16) / ln_q) + 1  # 2**-53
            if index >= total:
                return rows
            while index >= end:
                u += 1
                end += n - 1 - u
            v = index - end + n
            colour_rows = rows[c]
            colour_rows[u] |= 1 << v
            colour_rows[v] |= 1 << u


@dataclass(frozen=True)
class ColouredGraph:
    """A simple graph on vertices 0..n-1 with a total 3-colouring of its
    edges, held as its three colour rows: `colour_adj[c][v]` is the bitset
    of c-coloured neighbours of v, and the edges are their union.  The
    constructor rejects a negative n, a colour without n rows, a pair with
    two colours, and a union row with a self-loop or a bit at or above n."""

    n: int
    colour_adj: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.colour_adj) != 3 or any(len(rows) != self.n for rows in self.colour_adj):
            raise ValueError("colour adjacency shape does not match graph")
        red, green, blue = self.colour_adj
        for v in range(self.n):
            r, g, b = red[v], green[v], blue[v]
            if (r & g) or (r & b) or (g & b):
                raise ValueError(f"vertex {v} has an edge with two colours")
            row = r | g | b
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if row >> self.n:
                raise ValueError(f"adjacency row {v} has out-of-range bits")

    def colour_of(self, u: int, v: int) -> Colour:
        for c in COLOURS:
            if (self.colour_adj[c][u] >> v) & 1:
                return c
        raise ValueError(f"({u}, {v}) is not an edge")

    def edge_count(self) -> int:
        return sum(row.bit_count() for rows in self.colour_adj for row in rows) // 2


def colour_random(g: SimpleGraph, seed: int) -> ColouredGraph:
    """Colour every edge of g independently and uniformly with one of the
    three colours; deterministic for a given seed.  Edges are drawn in
    (u, v) lexicographic order, each taking `SplitMix64.randrange(3)`.
    `random_coloured_gnp` gives the same colouring of a G(n, p) sample
    that it draws, and colours a sparse one as its edges are drawn,
    without building g, counting its edges or walking them again.

    Both regimes take those outcomes from one `SplitMix64.residues`
    reader of m outcomes, m the edge count of g, in the same order, so
    they give the same rows.  A graph with 2m < (EDGE_DEGREE + EDGE_SLOPE
    * n / BAND) * n is coloured edge by edge (`_colour_edges`), in time
    that follows m times the row width; any other graph a row at a time
    (`_colour_rows`), in time that follows n^2 / BAND whatever m is.

    The threshold follows the break-even mean degree, which rises with n
    because only the row regime pays for n^2 pairs.  Over G(n, d / (n -
    1)), medians of interleaved calls on two graph seeds on a 2-vCPU
    machine with Python 3.11, the per-edge regime and the row regime took
    the same time at d of about 30 to 36 for n = 100, 30 to 40 at 300, 35
    to 40 at 600, 50 at 1200, 75 at 2400 and 90 to 100 at 4800; the rule
    puts the switch at 34, 37, 41, 51, 70 and 107.  Near each switch the
    two regimes are within a tenth of each other, and over the whole sweep
    the regime chosen took at most about 1.1 times as long as the other.
    Sparse experiment cells, with a mean degree under 10, take the
    per-edge regime, and the paper's dense cells, above 80, the row
    regime.
    """
    n, m = g.n, g.edge_count()
    by_edges = 2 * m * BAND < n * (EDGE_DEGREE * BAND + EDGE_SLOPE * n)
    regime = _colour_edges if by_edges else _colour_rows
    red, green, blue = regime(g, SplitMix64(seed).residues(m))
    return ColouredGraph(g.n, (tuple(red), tuple(green), tuple(blue)))


def _colour_edges(g: SimpleGraph, colours) -> tuple[list[int], list[int], list[int]]:
    """The red, green and blue rows of g, one edge at a time, from
    `colours`, a `SplitMix64.residues` reader of one outcome per edge: edge
    k in (u, v) order takes outcome k, and sets its bit in row u and in
    row v of that colour."""
    outcomes = iter(colours.take(colours.left))
    red, green, blue = [0] * g.n, [0] * g.n, [0] * g.n
    for u, row in enumerate(g.adj):
        up = row >> u >> 1  # the bits above u, from bit 0
        if not up:
            continue
        bit = 1 << u
        r = gr = b = 0
        while up:
            low = up & -up
            up ^= low
            c = next(outcomes)
            if c == 0:
                r |= low
                red[u + low.bit_length()] |= bit
            elif c == 1:
                gr |= low
                green[u + low.bit_length()] |= bit
            else:
                b |= low
                blue[u + low.bit_length()] |= bit
        red[u] |= r << u << 1
        green[u] |= gr << u << 1
        blue[u] |= b << u << 1
    return red, green, blue


def _colour_rows(g: SimpleGraph, colours) -> tuple[list[int], list[int], list[int]]:
    """The red, green and blue rows of g, a row at a time as
    `_bernoulli_rows` reads its coins, from `colours`, a
    `SplitMix64.residues` reader.

    Row u's bits above u are written as `bin` digits in bytes, highest
    first, so its edges appear in reverse draw order; each b"1" becomes a
    b"%c" that the row's colours, last drawn first, fill in as the bytes 0,
    1 and 2; and the red and green digits are read back by int(..., 2).
    The red and green upper triangles are then mirrored by `_mirror`, and
    blue is what is left of each row.
    """
    red, green = [], []
    for u, row in enumerate(g.adj):
        up = row >> (u + 1)  # the bits above u, from bit 0
        code = bin(up).encode().replace(b"1", b"%c") % tuple(
            colours.take(up.bit_count())[::-1]
        )
        red.append(int(code.translate(_RED_DIGITS), 2) << (u + 1))
        green.append(int(code.translate(_GREEN_DIGITS), 2) << (u + 1))
    red, green = _mirror(red), _mirror(green)
    return red, green, [a & ~(r | gr) for a, r, gr in zip(g.adj, red, green)]


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
    return ColouredGraph(g.n, tuple(rows))  # type: ignore[arg-type]


class GraphFormatError(ValueError):
    """Malformed coloured-graph text; message carries the 1-based line."""


# Characters per block of text that `loads` tokenises at once.
BLOCK_CHARS = 1 << 16
# A token that neither `_VertexNames` nor LETTER_TO_COLOUR accepts, set
# after each line of a block.
_SEPARATOR = " | "
# The characters other than LF at which `str.splitlines` ends a line, CR
# first; `_line_blocks` turns each into LF.
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# `loads` sets one bit of each edge, and mirrors its colour rows once,
# in a text of at least UPPER_LINES * n^2 / BAND + UPPER_ROW_LINES * n
# lines; its docstring gives the measured break-even.
UPPER_LINES = 1
UPPER_ROW_LINES = 16
# `dump_rows` writes a row edge by edge when SPARSE_ROW times its edge
# count is below its width; its docstring gives the measured break-even.
SPARSE_ROW = 16
# `dump_rows` reads the bin digits of a row as its line selectors.
_SELECTORS = bytes.maketrans(b"01", b"\0\1")
# `dump_rows` adds a complete row's bin digits as bytes, red plus twice
# green, which gives 0x90 + 0 (blue), 1 (red) or 2 (green) per column.
_LETTERS = bytes.maketrans(b"\x90\x91\x92", b"brg")


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

    Entry 3v + c of one table is the line " v c\n", c the colour's
    letter, and row u's text is the name u before each of its lines.  Its
    colour rows above column u, of width w up to their highest bit, are
    written in one of three ways, chosen by the row alone.  A complete
    row, with an edge to every column above u, copies a template, the
    red lines of the table for each run of columns whose names have one
    number of digits, built at the first complete row.  One letter byte
    per column, from the sum of the red and twice the green `bin` digits,
    goes into each run's letter slots with one strided assignment, and
    one `str.replace` puts the name before each line.  A row with gaps
    and at least w / SPARSE_ROW edges interleaves the `bin` digits of its
    red, green and blue rows, lowest column first, into one bytearray of
    3w selectors for the 3w entries from column u + 1 on.  A row with
    fewer reads its set bits, each a big-int step as wide as the row, and
    sorts their entries.  The closure of an n = 1200 criterion instance,
    the complete graph, took 22.2 ms by templates against 47.3 ms by
    selectors, and the closure of `gen --n 300 --p 0.7 --seed 3` 2.2
    against 3.7 ms (medians of eleven interleaved runs, 2-vCPU machine,
    Python 3.11).  Over G(n, p), writing every row edge by edge took as
    long as by selectors at p of about 0.11 for n = 2000 and 0.07 for n =
    8000, and 0.16 times as long at p = 0.01 (best of three).
    """
    n = cg.n
    table = [f" {v} {letter}\n" for v in range(n) for letter in "rgb"]
    templates = None
    yield f"n {n}\n"
    for u, (r, g, b) in enumerate(zip(*cg.colour_adj)):
        above = u + 1
        r, g, b = r >> above, g >> above, b >> above
        row = r | g | b
        if not row:
            continue
        width = row.bit_length()
        name = str(u)
        if width == n - above and row.bit_count() == width:
            if templates is None:
                templates = _templates(table, n)
            top = 1 << width  # a sentinel bit, so that each bin has w digits
            codes = int.from_bytes(bin(r | top)[3:].encode(), "big")
            codes += int.from_bytes(bin(g | top)[3:].encode(), "big") << 1
            letters = codes.to_bytes(width, "little").translate(_LETTERS)
            text = bytearray()
            for lo, hi, template in templates:
                if hi > above:
                    first = max(lo, above)
                    step = len(template) // (hi - lo)  # " v r\n", its letter at step - 2
                    end = len(text)
                    text += memoryview(template)[(first - lo) * step :]
                    text[end + step - 2 :: step] = letters[first - above : hi - above]
            yield name + text.decode().replace("\n", "\n" + name)[: -len(name)]
        elif SPARSE_ROW * row.bit_count() < width:
            start = 3 * above
            picked = sorted(
                start + 3 * k + c for c, bits in enumerate((r, g, b)) for k in iter_bits(bits)
            )
            yield name + name.join(map(table.__getitem__, picked))
        else:
            top = 1 << width
            selectors = bytearray(3 * width)
            selectors[0::3] = bin(r | top)[:2:-1].encode()
            selectors[1::3] = bin(g | top)[:2:-1].encode()
            selectors[2::3] = bin(b | top)[:2:-1].encode()
            lines = compress(
                table[3 * above : 3 * (above + width)], selectors.translate(_SELECTORS)
            )
            yield name + name.join(lines)


def _templates(table: list[str], n: int) -> list[tuple[int, int, bytes]]:
    """(lo, hi, the red lines of table for columns lo..hi-1) for each run
    of columns below n, n >= 2, whose names have one number of digits."""
    bounds = [0, *(10**k for k in range(1, len(str(n - 1)))), n]
    return [
        (lo, hi, "".join(table[3 * lo : 3 * hi : 3]).encode()) for lo, hi in pairwise(bounds)
    ]


def loads(text: str) -> ColouredGraph:
    """Parse the text interchange format; raises GraphFormatError with the
    offending line number on malformed input, including a vertex count
    above MAX_VERTICES.

    The edge lines are read in blocks of about BLOCK_CHARS characters
    (`_line_blocks`), each tokenised by one split (`_edge_block`) with no
    Python step per line, and every vertex name is read through one
    `_VertexNames` table for the whole text.  A block that fails that pass
    is read again without its blank and comment lines.  If it fails
    again, if a line has u >= v, or if the colour rows overlap at the
    end, the text holds a faulty line, and `_first_fault` names the first
    one, in line order, whether it is malformed or gives an edge a second
    colour.

    Bit u of row v, for each edge u < v, is set edge by edge, or, in a
    text with at least UPPER_LINES * n^2 / BAND + UPPER_ROW_LINES * n line
    breaks (a bound on its edge count, counted in a first pass before any
    line is read), once per colour after the last edge by the block
    transpose `_mirror`, whose cost follows n^2 / BAND.  That regime takes
    bit v of row u from a table of the n single bits, about n^2 / 16
    bytes: under 8 bytes per line break, and about a sixth of the colour
    rows it builds.  It tests u < v once per colour row before it mirrors,
    since a line with u >= v leaves a bit at or below the diagonal of row
    u.  The other regime tests u < v on each block's lines: a swapped line
    there sets the two bits of its forward form.  Over G(n, p) texts with
    m = x n^2 / BAND edges (best of five to eleven, interleaved, 2-vCPU
    machine, Python 3.11), the mirroring read took as long at x of about 8
    for n = 300, 4.5 for n = 600, 3 for n = 1200, 2 to 2.5 for n = 2400
    and 1.5 for n = 4000, and 1.1 to 1.8 times as long at x = 1; at the
    paper's criterion density, x of about 40, it took 0.72 times as long
    for n = 1200.
    """
    return _read(partial(_text_blocks, text))


def _read(blocks: Callable[[], Iterator[str]]) -> ColouredGraph:
    """The body of `loads` and `load`: the graph of a text, which each
    call of blocks yields from its start in blocks of whole lines
    (`_line_blocks`).  The first call counts the line feeds, before any
    line is parsed; the second is the one pass that reads the graph;
    `_first_fault` makes another to name a fault."""
    breaks = sum(block.count("\n") for block in blocks())
    stream = blocks()
    lineno = 1
    for block in stream:
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
    upper = breaks * BAND >= n * (UPPER_LINES * n + UPPER_ROW_LINES * BAND)
    bits = [1 << v for v in range(n)] if upper else []
    rest = "\n".join([*lines[header + 1 :], ""])
    for block in chain([rest], stream):
        edges = _edge_block(block, names, row_of)
        if edges is None:
            data = "\n".join([*filter(_is_data, block.splitlines()), ""])
            edges = _edge_block(data, names, row_of)
            if edges is None:
                raise _first_fault(blocks, n)
        us, vs, colour_rows = edges
        if upper:
            for u, v, row in zip(us, vs, colour_rows):
                row[u] |= bits[v]
        elif all(map(lt, us, vs)):
            for u, v, row in zip(us, vs, colour_rows):
                row[u] |= 1 << v
                row[v] |= 1 << u
        else:
            raise _first_fault(blocks, n)
    if upper:
        for colour_rows in rows:
            # a line with u >= v left a bit at or below the diagonal of row u
            if any(row & ((2 << u) - 1) for u, row in enumerate(colour_rows)):
                raise _first_fault(blocks, n)
            _mirror(colour_rows)
    try:
        return ColouredGraph(n, tuple(map(tuple, rows)))  # type: ignore[arg-type]
    except ValueError:
        # Every edge was validated, so only a pair listed with two colours,
        # which sets its bit in two colour rows, can be rejected here.
        raise _first_fault(blocks, n) from None


def _text_blocks(text: str) -> Iterator[str]:
    """The text in blocks of whole lines, from its BLOCK_CHARS slices."""
    return _line_blocks(text[i : i + BLOCK_CHARS] for i in range(0, len(text), BLOCK_CHARS))


def _line_blocks(chunks: Iterable[str]) -> Iterator[str]:
    """The text that chunks yields piece by piece, in blocks of whole
    lines with line feeds for line breaks; the one block source of
    `loads` and `load`.

    Every line break of `str.splitlines` becomes a line feed: each CR LF
    pair, then each CR left, as a text-mode file reads them, and then each
    other break in _BREAKS, so that a CR followed by an FF stays two
    breaks.  A chunk's last CR, which may start a CR LF pair, is held back
    and put before the next chunk.  Each chunk is then cut after its last
    line feed, and the rest is carried into the next block.  So the lines
    of the blocks, block after block, are those that `str.splitlines`
    finds in the whole text.  A chunk with no break other than LF, such as
    one that `dump_rows` wrote, is not copied to find them.
    """
    rest = held = ""
    for chunk in chunks:
        chunk = held + chunk
        held = ""
        if any(map(chunk.__contains__, _BREAKS)):
            if chunk.endswith("\r"):
                chunk, held = chunk[:-1], "\r"
            chunk = chunk.replace("\r\n", "\n")
            for brk in _BREAKS:
                chunk = chunk.replace(brk, "\n")
        cut = chunk.rfind("\n") + 1
        if not cut:
            rest += chunk
            continue
        yield rest + chunk[:cut]
        rest = chunk[cut:]
    if held:
        rest += "\n"
    if rest:
        yield rest


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
    it is not one with 0 <= u, v < n, or if a token follows the last line
    feed.  The order u < v is left to the reader (`_read`).

    Each line feed becomes a separator " | ", and one split reads the
    block.  One length test then checks the shape, by counting: S line
    feeds make 4S tokens in all only if the lines hold 3S.  Once every u,
    v and c place below has been read, which the name and colour tables
    refuse for "|", the S separators can stand only at the S places
    3, 7, ..., 4S - 1.  So the j-th separator is token 4j - 1, the j-th
    line holds the 3 tokens before it, and nothing follows the last one.
    The name table checks 0 <= u, v < n as it reads.
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
    return us, vs, colour_rows


def _first_fault(blocks: Callable[[], Iterator[str]], n: int) -> GraphFormatError:
    """The error for the first faulty edge line of the text that blocks()
    yields, whose header declared n vertices: a malformed line, or an edge
    that an earlier line gave another colour.  Only called on a text that
    holds one; it names the line and accepts no edge.  Each block ends a
    line, so its lines, block after block, are those of the whole text."""
    lines = (
        (lineno, line.split())
        for lineno, line in enumerate(chain.from_iterable(map(str.splitlines, blocks())), start=1)
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
    """Read the file at path as `loads` reads its UTF-8 text, holding a
    block of it at a time rather than the whole text.

    The reader takes its blocks from `_file_blocks`, so its first pass,
    which counts the line breaks, also checks that the file is UTF-8.  A
    bad byte raises before any line is parsed, and the error raised is
    that of decoding the whole file, which gives the bad byte's offset in
    the file; the file is read whole only to raise it.  A source that
    cannot seek, such as a pipe, is first read into memory as bytes.
    """
    with open(path, "rb") as f:
        if not f.seekable():
            f = io.BytesIO(f.read())
        try:
            return _read(partial(_file_blocks, f))
        except UnicodeDecodeError:
            f.seek(0)
            f.read().decode("utf-8")
            raise


def _file_blocks(f: BinaryIO) -> Iterator[str]:
    """The text of the binary file f in blocks of whole lines, from its
    reads of BLOCK_CHARS bytes decoded by one incremental UTF-8 decoder,
    whose final check runs after the last read."""
    f.seek(0)
    decode = codecs.getincrementaldecoder("utf-8")().decode
    reads = chain(iter(partial(f.read, BLOCK_CHARS), b""), [b""])
    return _line_blocks(decode(data, final=not data) for data in reads)
