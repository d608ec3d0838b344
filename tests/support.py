"""Independent oracles and shared generators for the test suite.

Everything here deliberately avoids the library's own machinery wherever
it serves as a cross-check: components come from a plain BFS over edge
lists, cover numbers from bitmask dynamic programming or subset
enumeration, independence from nested loops over adjacency sets.
"""

from __future__ import annotations

import math
from itertools import combinations, compress
from typing import Iterable, Iterator

from hypothesis import strategies as st

from monotree import (
    COLOURS,
    AlphaClass,
    BipartiteGraph,
    CheckOutcome,
    CheckReport,
    Colour,
    ColouredGraph,
    GraphFormatError,
    SimpleGraph,
    colour_random,
    colour_three_stars,
    generate_gnp,
)
from monotree.components import ComponentLabelling
from monotree.graphs import BAND, LETTER_TO_COLOUR, MAX_VERTICES, iter_bits
from monotree.hypergraph import CompRef, ComponentHypergraph
from monotree.rng import MASK64
from monotree.solver import Tree, TreeCover, _dedupe, _union_mask

BIG = 1 << 30


def bfs_colour_components(cg: ColouredGraph) -> dict[Colour, list[set[int]]]:
    """Per-colour components via breadth-first search over adjacency sets."""
    adj: dict[Colour, dict[int, set[int]]] = {
        c: {v: set() for v in range(cg.n)} for c in COLOURS
    }
    for u, v, c in coloured_edges(cg):
        adj[c][u].add(v)
        adj[c][v].add(u)
    out: dict[Colour, list[set[int]]] = {}
    for c in COLOURS:
        seen: set[int] = set()
        comps: list[set[int]] = []
        for start in range(cg.n):
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in adj[c][u]:
                        if w not in comp:
                            comp.add(w)
                            nxt.append(w)
                frontier = nxt
            seen |= comp
            comps.append(comp)
        out[c] = comps
    return out


def min_component_cover_size(cg: ColouredGraph) -> int:
    """Exact minimum number of single-colour components covering all
    vertices, by dynamic programming over covered-vertex bitmasks.
    Exponential in n; use only for n up to ~12."""
    n = cg.n
    if n == 0:
        return 0
    comps = bfs_colour_components(cg)
    comp_masks_of: list[list[int]] = [[] for _ in range(n)]
    for c in COLOURS:
        for comp in comps[c]:
            mask = 0
            for v in comp:
                mask |= 1 << v
            for v in comp:
                comp_masks_of[v].append(mask)
    full = (1 << n) - 1
    dp = [BIG] * (full + 1)
    dp[0] = 0
    for mask in range(full + 1):
        if dp[mask] >= BIG:
            continue
        if mask == full:
            break
        v = ((~mask) & full & -((~mask) & full)).bit_length() - 1
        for cm in comp_masks_of[v]:
            nxt = mask | cm
            if dp[mask] + 1 < dp[nxt]:
                dp[nxt] = dp[mask] + 1
    return dp[full]


def adjacency_sets(adj_rows) -> list[set[int]]:
    out = []
    for row in adj_rows:
        s = set()
        v = 0
        while row:
            if row & 1:
                s.add(v)
            row >>= 1
            v += 1
        out.append(s)
    return out


def independence_trichotomy(n: int, adj: list[set[int]]) -> str:
    """"one", "two" or "three_plus" by plain loops over adjacency sets."""
    complete = all(len(adj[v]) == n - 1 for v in range(n))
    if complete:
        return "one"
    for u in range(n):
        for v in range(u + 1, n):
            if v in adj[u]:
                continue
            for w in range(v + 1, n):
                if w not in adj[u] and w not in adj[v]:
                    return "three_plus"
    return "two"


def naive_tau(h) -> int:
    """Minimum hypergraph cover by subset enumeration over all vertices."""
    return naive_cover_number([h.refs_of(e) for e in h.edges])


def naive_cover_number(edges) -> int:
    """Fewest vertices meeting every edge, by subset enumeration."""
    edge_refs = [set(e) for e in edges]
    refs = sorted(set().union(*edge_refs))
    if not edge_refs:
        return 0
    for k in range(len(refs) + 1):
        for subset in combinations(refs, k):
            chosen = set(subset)
            if all(er & chosen for er in edge_refs):
                return k
    raise AssertionError("unreachable: the full vertex set is a cover")


def naive_nu(h) -> int:
    """Maximum matching by enumerating hyperedge subsets, largest first."""
    edge_refs = [set(h.refs_of(e)) for e in h.edges]
    m = len(edge_refs)
    for k in range(m, 0, -1):
        for subset in combinations(range(m), k):
            refs: set = set()
            ok = True
            for i in subset:
                if refs & edge_refs[i]:
                    ok = False
                    break
                refs |= edge_refs[i]
            if ok:
                return k
    return 0


@st.composite
def coloured_graphs(draw, min_n: int = 0, max_n: int = 12):
    """Random coloured graphs: each pair is absent or one of three colours."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    codes = draw(
        st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs))
    )
    items = [
        (u, v, Colour(code - 1))
        for (u, v), code in zip(pairs, codes)
        if code > 0
    ]
    return from_edge_colours(n, items)


# The exact search of the parent of the hitting-set reductions, verbatim
# apart from its name and docstring, with the helpers it used.


def _greedy_cover(edges: list[tuple[CompRef, ...]]) -> list[CompRef]:
    uncovered = set(range(len(edges)))
    picked: list[CompRef] = []
    while uncovered:
        counts: dict[CompRef, int] = {}
        for i in uncovered:
            for r in edges[i]:
                counts[r] = counts.get(r, 0) + 1
        best = min(counts, key=lambda r: (-counts[r], r))
        picked.append(best)
        uncovered = {i for i in uncovered if best not in edges[i]}
    return picked


def _greedy_disjoint(edges: list[tuple[CompRef, ...]], indices: Iterable[int]) -> int:
    used: set[CompRef] = set()
    count = 0
    for i in indices:
        refs = edges[i]
        if not any(r in used for r in refs):
            used.update(refs)
            count += 1
    return count


def reference_tau_exact(h: ComponentHypergraph, k_max: int | None = None) -> tuple[CompRef, ...] | None:
    """Minimum vertex cover by 3-way branch and bound: the exact search
    monotree used before its hitting-set reductions, kept verbatim as the
    oracle that `tau_exact`'s covers are compared against.

    Branches on the first uncovered hyperedge (one of its three components
    must join any cover), with a greedy cover as incumbent, a greedy
    disjoint-hyperedge packing as lower bound, and dominance memoisation on
    the uncovered set.  Returns None iff the optimum exceeds k_max.
    """
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be non-negative")
    edge_refs = [h.refs_of(e) for e in h.edges]
    if not edge_refs:
        return ()

    greedy = _greedy_cover(edge_refs)
    best: list[CompRef] = greedy
    bound = len(greedy) if k_max is None else min(len(greedy), k_max + 1)

    incidence: dict[CompRef, set[int]] = {}
    for i, refs in enumerate(edge_refs):
        for r in refs:
            incidence.setdefault(r, set()).add(i)

    memo: dict[frozenset[int], int] = {}
    all_indices = frozenset(range(len(edge_refs)))

    def search(uncovered: frozenset[int], chosen: list[CompRef]) -> None:
        nonlocal best, bound
        if not uncovered:
            if len(chosen) < bound:
                best = list(chosen)
                bound = len(chosen)
            return
        lower = len(chosen) + _greedy_disjoint(edge_refs, sorted(uncovered))
        if lower >= bound:
            return
        seen = memo.get(uncovered)
        if seen is not None and seen <= len(chosen):
            return
        if len(memo) < 1 << 16:
            memo[uncovered] = len(chosen)
        pivot = min(uncovered)
        for r in edge_refs[pivot]:
            chosen.append(r)
            search(uncovered - incidence[r], chosen)
            chosen.pop()

    search(all_indices, [])
    if k_max is not None and len(best) > k_max:
        return None
    return tuple(sorted(best))


# The tree builder of the parent of the labelling's spanning forest,
# verbatim apart from its name and docstring.


def reference_trees(
    cg: ColouredGraph, comps: Iterable[CompRef], lab: ComponentLabelling
) -> TreeCover:
    """Breadth-first spanning tree of each component of `lab`, rooted at
    its id, by a walk of its own over cg's colour rows: the builder that
    reading `lab.parent` replaced, kept as the oracle the labelling's
    parents are compared against."""
    refs = tuple(sorted(_dedupe(comps)))
    union = _union_mask(lab, refs)
    full = (1 << cg.n) - 1
    if union != full:
        missing = next(iter_bits(full & ~union))
        raise ValueError(f"components do not cover vertex {missing}")
    trees = []
    for c, cid in refs:
        mask = lab.members[c][cid]
        rows = cg.colour_adj[c]
        root = cid
        parent: dict[int, int | None] = {root: None}
        unseen = mask ^ (1 << root)
        frontier = [root]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                novel = rows[u] & unseen
                if novel:
                    unseen ^= novel
                    for v in iter_bits(novel):
                        parent[v] = u
                        nxt.append(v)
            frontier = nxt
        if unseen:
            raise RuntimeError(
                f"component ({Colour(c).name}, {cid}) is not connected in its colour"
            )
        trees.append(Tree(COLOURS[c], root, parent))
    return TreeCover(tuple(trees))


# The trichotomy of the parent of the closure rows read on demand, verbatim
# apart from its name and docstring, with the triple search it called then,
# which took the whole closure graph.


def _first_nonadjacent_triple(g: SimpleGraph) -> tuple[int, int, int] | None:
    full = g.full_mask
    for u in range(g.n - 2):
        non_u = ~g.adj[u] & full & ~(1 << u)
        for v in iter_bits(non_u >> (u + 1) << (u + 1)):
            third = (non_u & ~g.adj[v]) >> (v + 1)
            if third:
                return (u, v, v + 1 + next(iter_bits(third)))
    return None


def reference_alpha_class(lab: ComponentLabelling) -> AlphaClass:
    """Exact trichotomy on the independence number of the closure graph,
    read off all n closure rows built at once as a `SimpleGraph`: the
    classifier that reading rows on demand replaced, kept as the oracle
    `alpha_class` is compared against."""
    g = lab.closure()
    n = g.n
    full = g.full_mask
    if all(g.adj[v] | (1 << v) == full for v in range(n)):
        return AlphaClass("one")
    triple = _first_nonadjacent_triple(g)
    if triple is not None:
        return AlphaClass("three_plus", triple)
    return AlphaClass("two")


def parity_instances() -> Iterator[ColouredGraph]:
    """Seeded instances on which rewritten searches are compared with their
    references: G(n, p) at the criterion-1 density p = 1.5 (ln n / n)^(1/6)
    for n = 300 and 600, coloured at random and by three stars, then 12
    random colourings of each sparse-exact benchmark cell."""
    for n in (300, 600):
        for seed in range(2):
            g = generate_gnp(n, 1.5 * (math.log(n) / n) ** (1 / 6), seed=31 * n + seed)
            yield colour_random(g, seed=seed + 1)
            yield colour_three_stars(g, *_first_nonadjacent_triple(g), base=COLOURS[seed])
    for n, p in ((100, 0.03), (100, 0.05), (100, 0.08), (60, 0.1)):
        for seed in range(12):
            yield colour_random(generate_gnp(n, p, seed=7 * n + seed), seed=seed + 40)


# The text reader and writer of the parent of the block tokeniser, verbatim
# apart from their names, their docstrings and the views and builder below,
# which they called as methods then.


def reference_dumps(cg: ColouredGraph) -> str:
    """One f-string per edge: the writer that `dumps` replaced, kept as the
    oracle its bytes are compared against."""
    lines = [f"n {cg.n}"]
    for u, v, c in coloured_edges(cg):
        lines.append(f"{u} {v} {letter(c)}")
    return "\n".join(lines) + "\n"


def reference_loads(text: str) -> ColouredGraph:
    """One split and one validation per line, edges handed to
    `from_edge_colours`: the reader that `loads` replaced,
    kept as the oracle its graphs and error messages are compared
    against."""
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
        return from_edge_colours(n, edges())
    except GraphFormatError:
        raise
    except ValueError:
        # Every edge was validated above, so only the two-colour rule of
        # from_edge_colours can reject one.
        lineno, u, v = last
        raise GraphFormatError(
            f"line {lineno}: edge {u} {v} already declared with another colour"
        ) from None


# The band transpose of the parent of the 8x8 block transpose, verbatim
# apart from its name and docstring.


def reference_mirror(rows: list[int]) -> list[int]:
    """Complete a strict upper triangle to symmetric rows, in place, a band
    of BAND columns at a time: each band one string of `bin` digits per
    row, each column a strided slice of it read back by int(..., 2).  The
    transpose that `graphs._mirror` replaced, kept as the oracle its rows
    are compared against."""
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


# The row writer of the parent of the complete-row templates, its selector
# path taken for every row, verbatim apart from its name, its docstring and
# the rule that picked the path.

_SELECTORS = bytes.maketrans(b"01", b"\0\1")


def selector_rows(cg: ColouredGraph) -> Iterator[str]:
    """The chunks of `graphs.dump_rows(cg)`, each row's lines selected from
    one table of the 3n lines " v c" by the interleaved `bin` digits of its
    colour rows: the writer of complete rows that their templates replaced,
    kept as the oracle their chunks are compared against."""
    n = cg.n
    table = [f" {v} {c}\n" for v in range(n) for c in "rgb"]
    yield f"n {n}\n"
    for u, (r, g, b) in enumerate(zip(*cg.colour_adj)):
        above = u + 1
        r, g, b = r >> above, g >> above, b >> above
        row = r | g | b
        if not row:
            continue
        width = row.bit_length()
        top = 1 << width  # a sentinel bit, so that each bin has w digits
        selectors = bytearray(3 * width)
        selectors[0::3] = bin(r | top)[:2:-1].encode()
        selectors[1::3] = bin(g | top)[:2:-1].encode()
        selectors[2::3] = bin(b | top)[:2:-1].encode()
        lines = compress(
            table[3 * above : 3 * (above + width)], selectors.translate(_SELECTORS)
        )
        name = str(u)
        yield name + name.join(lines)


# Builders and views that only the tests use; the library builds its graphs
# by sampling and by `loads`, and never lists them edge by edge.


def letter(c: Colour) -> str:
    return "rgb"[c]


def graph_edges(g: SimpleGraph) -> Iterator[tuple[int, int]]:
    """Edges as (u, v) with u < v, lexicographically ascending."""
    return ((u, u + 1 + off) for u in range(g.n) for off in iter_bits(g.adj[u] >> (u + 1)))


def adjacency(cg: ColouredGraph) -> SimpleGraph:
    """The uncoloured graph of cg: the union of its three colour rows."""
    return SimpleGraph(cg.n, tuple(r | g | b for r, g, b in zip(*cg.colour_adj)))


def coloured_edges(cg: ColouredGraph) -> Iterator[tuple[int, int, Colour]]:
    return ((u, v, cg.colour_of(u, v)) for u, v in graph_edges(adjacency(cg)))


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, tuple(((1 << n) - 1) ^ (1 << v) for v in range(n)))


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> SimpleGraph:
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return SimpleGraph(n, tuple(rows))


def from_edge_colours(n: int, items: Iterable[tuple[int, int, Colour]]) -> ColouredGraph:
    """Graph from (u, v, colour) triples.  An edge listed twice must keep
    its colour; `reference_loads` relies on the ValueError otherwise."""
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
    return ColouredGraph(n, tuple(tuple(r) for r in rows))  # type: ignore[arg-type]


def bipartite_from_edges(left: Iterable[int], pairs: Iterable[tuple[int, int]]) -> BipartiteGraph:
    """A green-blue link graph with an empty `origin`: the matching code
    never reads it."""
    adj: dict[int, set[int]] = {a: set() for a in sorted(set(left))}
    for a, b in pairs:
        adj[a].add(b)
    adjacency = {a: tuple(sorted(bs)) for a, bs in adj.items()}
    return BipartiteGraph((int(Colour.GREEN), int(Colour.BLUE)), adjacency, {})


def bipartite_edges(bp: BipartiteGraph) -> list[tuple[int, int]]:
    return sorted((a, b) for a in bp.adjacency for b in bp.adjacency[a])


def is_cover(h: ComponentHypergraph, refs: tuple[CompRef, ...]) -> bool:
    return all(any(r in refs for r in h.refs_of(e)) for e in h.edges)


def matching_to_independent_set(
    h: ComponentHypergraph, m: tuple[tuple[int, int, int], ...]
) -> tuple[int, ...]:
    """Witness vertices of a hypergraph matching, sorted: pairwise
    non-adjacent in the closure, since an edge between two would join two
    distinct components of its colour."""
    return tuple(sorted(h.witness[e] for e in m))


def outcome(report: CheckReport, label: str) -> CheckOutcome:
    return next(o for o in report.outcomes if o.label == label)


def all_passed(o: CheckOutcome) -> bool:
    return o.status == "ok" and o.fails == 0 and o.passes > 0


def pass_fraction(o: CheckOutcome) -> float:
    return o.passes / (o.passes + o.fails) if o.passes + o.fails else 0.0


def finalise64_inverse(z: int) -> int:
    """The state whose splitmix64 output is z: each xor-shift is undone by
    xoring in the repeated shifts, each multiply by the inverse mod 2^64."""

    def unshift(x: int, s: int) -> int:
        y, shifted = x, x >> s
        while shifted:
            y ^= shifted
            shifted >>= s
        return y

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK64
    return unshift(z, 30)
