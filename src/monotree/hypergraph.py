"""The tripartite component hypergraph and its exact cover/matching numbers.

Every vertex of a coloured graph lies in exactly one component per colour,
so it induces one (red, green, blue) component triple; the deduplicated
triples are the hyperedges.  A set of components covers the vertex set of
the graph iff it is a vertex cover of this hypergraph, which is what makes
the exact solvers here usable as ground-truth oracles for the tree-cover
pipeline.  The exact cover number comes from the classic hitting-set
reductions (Weihe 1998; Abu-Khzam 2010) followed by branch and bound on
each connected piece of the reduced kernel; the exact cover is then
recovered by a descent that the cover number guides.  The module also
carries the bipartite machinery: the union of link graphs over one colour
class, maximum matching, and the matching-sized vertex cover given by
König's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .components import ComponentLabelling
from .graphs import COLOURS, Colour

# A hypergraph vertex: (colour value, component id).
CompRef = tuple[int, int]


def refs_json(refs: Iterable[CompRef]) -> list[list]:
    """Component references as JSON: [colour name, component id] pairs."""
    return [[Colour(c).name.lower(), cid] for c, cid in refs]


@dataclass(frozen=True)
class ComponentHypergraph:
    """3-partite 3-uniform hypergraph of component triples.

    `edges` are (red id, green id, blue id) triples, sorted; `witness`
    maps each triple to the smallest graph vertex lying in all three
    components.
    """

    parts: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    edges: tuple[tuple[int, int, int], ...]
    witness: dict[tuple[int, int, int], int]

    def refs_of(self, edge: tuple[int, int, int]) -> tuple[CompRef, CompRef, CompRef]:
        return ((0, edge[0]), (1, edge[1]), (2, edge[2]))


def build_component_hypergraph(lab: ComponentLabelling) -> ComponentHypergraph:
    """One hyperedge per graph vertex, deduplicated, smallest witness kept."""
    witness: dict[tuple[int, int, int], int] = {}
    for v in range(lab.n):
        witness.setdefault(lab.triple_of(v), v)
    parts = tuple(tuple(sorted(lab.members[c])) for c in range(3))
    return ComponentHypergraph(parts, tuple(sorted(witness)), witness)  # type: ignore[arg-type]


@dataclass(frozen=True)
class CoverCertificate:
    """A verified vertex cover; `cover` holds (part, id) pairs.

    For hypergraph covers the part is the colour value; for bipartite
    covers it is 0 for the left side and 1 for the right.
    """

    cover: tuple[CompRef, ...]

    @property
    def size(self) -> int:
        return len(self.cover)


@dataclass(frozen=True)
class MatchingCertificate:
    """Pairwise-disjoint hyperedges (triples) or bipartite edges (pairs)."""

    edges: tuple[tuple, ...]

    @property
    def size(self) -> int:
        return len(self.edges)


def is_cover(h: ComponentHypergraph, refs: Iterable[CompRef]) -> bool:
    chosen = set(refs)
    return all(
        any(r in chosen for r in h.refs_of(e)) for e in h.edges
    )


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


def _through(edges: Iterable[frozenset[CompRef]]) -> dict[CompRef, list[frozenset[CompRef]]]:
    """The edges through each component."""
    through: dict[CompRef, list[frozenset[CompRef]]] = {}
    for e in edges:
        for r in e:
            through.setdefault(r, []).append(e)
    return through


def _kernel(edges: Iterable[Iterable[CompRef]]) -> tuple[int, set[frozenset[CompRef]]]:
    """Apply the hitting-set reductions until none fires; returns the
    number of forced components and the kernel, which has the same cover
    number as the input minus that count.

    * Unit edge: an edge with one component left forces that component.
    * Edge domination: an edge containing another edge is covered by
      every cover of the smaller one, so it is dropped.
    * Component domination: a is dropped when every edge through a also
      contains some b that lies on strictly more edges, or on the same
      edges with b < a; any cover can swap a for b.  Domination is
      transitive and the smallest of a set of equals survives, so each
      dropped component keeps a surviving dominator and one sweep may
      drop all dominated components at once.
    """
    kernel = {frozenset(e) for e in edges}
    forced = 0
    while True:
        units = {r for e in kernel if len(e) == 1 for r in e}
        if units:
            forced += len(units)
            kernel = {e for e in kernel if not e & units}
            continue
        # Only an edge longer than the shortest can contain another.
        least = min(map(len, kernel), default=0)
        dominated = {
            e for e in kernel
            if len(e) > least and any(
                frozenset(sub) in kernel
                for k in range(least, len(e)) for sub in combinations(e, k)
            )
        }
        if dominated:
            kernel -= dominated
            continue
        through = _through(kernel)
        drop = {
            a for a, es in through.items()
            if any(
                len(through[b]) > len(es) or b < a
                for b in frozenset.intersection(*es) - {a}
            )
        }
        if not drop:
            return forced, kernel
        kernel = {e - drop for e in kernel}


def _pieces(kernel: set[frozenset[CompRef]]) -> list[list[tuple[CompRef, ...]]]:
    """The kernel split into connected pieces (edges sharing a component),
    each edge a sorted tuple and each piece sorted."""
    pieces: list[list[tuple[CompRef, ...]]] = []
    through = _through(kernel)
    seen: set[frozenset[CompRef]] = set()
    for start in kernel:
        if start in seen:
            continue
        seen.add(start)
        piece, frontier = [start], [start]
        while frontier:
            e = frontier.pop()
            for r in e:
                for f in through[r]:
                    if f not in seen:
                        seen.add(f)
                        piece.append(f)
                        frontier.append(f)
        pieces.append(sorted(tuple(sorted(e)) for e in piece))
    return pieces


def _branch_and_bound(edges: list[tuple[CompRef, ...]]) -> int:
    """Cover number of one piece: branch on the first uncovered edge, with
    a greedy cover as incumbent and a greedy disjoint-edge packing as
    lower bound."""
    incidence: dict[CompRef, set[int]] = {}
    for i, refs in enumerate(edges):
        for r in refs:
            incidence.setdefault(r, set()).add(i)
    best = len(_greedy_cover(edges))

    def search(uncovered: frozenset[int], depth: int) -> None:
        nonlocal best
        if not uncovered:
            best = min(best, depth)
            return
        if depth + _greedy_disjoint(edges, sorted(uncovered)) >= best:
            return
        for r in edges[min(uncovered)]:
            search(uncovered - incidence[r], depth + 1)

    search(frozenset(range(len(edges))), 0)
    return best


def cover_number(edges: Iterable[Iterable[CompRef]]) -> int:
    """Minimum number of components meeting every edge: the forced
    components of the reduced kernel plus the branch-and-bound optimum of
    each connected piece of it."""
    forced, kernel = _kernel(edges)
    return forced + sum(_branch_and_bound(piece) for piece in _pieces(kernel))


def tau_exact(h: ComponentHypergraph, k_max: int | None = None) -> CoverCertificate | None:
    """Minimum vertex cover; None iff the optimum τ exceeds k_max.

    τ comes from `cover_number`, and k_max is decided before any cover is
    built; when a greedy packing finds more than k_max pairwise disjoint
    hyperedges, that settles it without τ.

    The cover is the one a depth-first branch and bound returns when it
    branches on the first uncovered hyperedge in `h.edges` order, tries
    its components in (red, green, blue) order, starts from the greedy
    cover as incumbent, replaces the incumbent only by a strictly smaller
    leaf, prunes by a greedy disjoint-packing bound and skips an uncovered
    set that a memo saw with no more components chosen.  That search
    returns the greedy cover when the greedy cover is optimal, and
    otherwise its first optimal leaf in depth-first order:

    * while the incumbent exceeds τ, a node on an optimal path has
      len(chosen) + packing bound <= τ < incumbent, so no bound prunes it;
    * a memo hit only skips an uncovered set already searched with no
      more components chosen, whose subtree held an earlier optimal leaf;
    * once that leaf is found, nothing smaller can replace it.

    Here the leaf is found by guided descent: at each node take the first
    component of the first uncovered hyperedge whose residual has cover
    number one lower.  One of them always does, so the last needs no test.
    """
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be non-negative")
    edge_refs = [h.refs_of(e) for e in h.edges]
    if k_max is not None and _greedy_disjoint(edge_refs, range(len(edge_refs))) > k_max:
        return None
    tau = cover_number(edge_refs)
    if k_max is not None and tau > k_max:
        return None
    greedy = _greedy_cover(edge_refs)
    if len(greedy) == tau:
        return CoverCertificate(tuple(sorted(greedy)))

    chosen: list[CompRef] = []
    rest = edge_refs
    while rest:
        *tested, pick = rest[0]
        for r in tested:
            if cover_number([e for e in rest if r not in e]) == tau - len(chosen) - 1:
                pick = r
                break
        chosen.append(pick)
        rest = [e for e in rest if pick not in e]
    return CoverCertificate(tuple(sorted(chosen)))


def nu_exact(h: ComponentHypergraph) -> MatchingCertificate:
    """Maximum matching by include/exclude branching.

    The bounds at each node are the count of remaining hyperedges disjoint
    from the current partial matching, which closes immediately on the
    degenerate all-disjoint instances, and then their cover number (ν ≤ τ).
    A pruned subtree holds no larger matching, so the result is the first
    maximum matching in branching order either way.
    """
    edge_refs = [h.refs_of(e) for e in h.edges]
    order = list(range(len(edge_refs)))
    best: list[int] = []

    def search(pos: int, used: set[CompRef], current: list[int]) -> None:
        nonlocal best
        available = [
            i for i in order[pos:] if not any(r in used for r in edge_refs[i])
        ]
        if len(current) + len(available) <= len(best):
            return
        if not available:
            if len(current) > len(best):
                best = list(current)
            return
        if len(current) + cover_number(edge_refs[j] for j in available) <= len(best):
            return
        i = available[0]
        refs = edge_refs[i]
        current.append(i)
        used.update(refs)
        search(i + 1, used, current)
        used.difference_update(refs)
        current.pop()
        search(i + 1, used, current)

    search(0, set(), [])
    return MatchingCertificate(tuple(h.edges[i] for i in sorted(best)))


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on integer-labelled sides.

    `origin`, when present, maps each edge to the sorted ids of the pivot
    components whose links contributed it.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]  # left id -> sorted right ids
    origin: dict[tuple[int, int], tuple[int, ...]] | None = None

    def edges(self) -> list[tuple[int, int]]:
        return sorted((a, b) for a in self.adjacency for b in self.adjacency[a])

    @classmethod
    def from_edges(
        cls,
        left: Iterable[int],
        right: Iterable[int],
        pairs: Iterable[tuple[int, int]],
    ) -> "BipartiteGraph":
        left_t = tuple(sorted(set(left)))
        right_t = tuple(sorted(set(right)))
        left_set, right_set = set(left_t), set(right_t)
        adj: dict[int, set[int]] = {a: set() for a in left_t}
        for a, b in pairs:
            if a not in left_set or b not in right_set:
                raise ValueError(f"edge ({a}, {b}) leaves the declared sides")
            adj[a].add(b)
        return cls(left_t, right_t, {a: tuple(sorted(bs)) for a, bs in adj.items()})


def link_union(h: ComponentHypergraph, pivot: Colour = Colour.RED) -> BipartiteGraph:
    """Union of the link graphs of every pivot-colour component.

    One bipartite edge per pair of non-pivot components that appears in a
    hyperedge with some pivot component; `origin` records which pivot
    components contribute each edge.  With the default red pivot the left
    side is the green ids and the right side the blue ids.
    """
    others = [c for c in COLOURS if c != pivot]
    lc, rc = others[0], others[1]
    adj: dict[int, set[int]] = {cid: set() for cid in h.parts[lc]}
    origin: dict[tuple[int, int], set[int]] = {}
    for e in h.edges:
        a, b, s = e[lc], e[rc], e[pivot]
        adj[a].add(b)
        origin.setdefault((a, b), set()).add(s)
    return BipartiteGraph(
        h.parts[lc],
        h.parts[rc],
        {a: tuple(sorted(bs)) for a, bs in adj.items()},
        {pair: tuple(sorted(s)) for pair, s in origin.items()},
    )


_UNREACHED = 1 << 60


def max_matching_bipartite(l: BipartiteGraph) -> MatchingCertificate:
    """Maximum matching via Hopcroft-Karp layered augmentation.

    Deterministic: vertices and neighbour lists are processed in sorted
    order, so a fixed input always yields the same matching.
    """
    from collections import deque

    pair_l: dict[int, int] = {}
    pair_r: dict[int, int] = {}
    dist: dict[int, int] = {}
    lefts = list(l.left)
    limit = _UNREACHED

    def bfs() -> bool:
        nonlocal limit
        queue = deque()
        for a in lefts:
            if a not in pair_l:
                dist[a] = 0
                queue.append(a)
            else:
                dist[a] = _UNREACHED
        limit = _UNREACHED
        while queue:
            a = queue.popleft()
            if dist[a] >= limit:
                continue
            for b in l.adjacency.get(a, ()):
                if b not in pair_r:
                    limit = min(limit, dist[a] + 1)
                else:
                    nxt = pair_r[b]
                    if dist[nxt] == _UNREACHED:
                        dist[nxt] = dist[a] + 1
                        queue.append(nxt)
        return limit < _UNREACHED

    def dfs(a: int) -> bool:
        for b in l.adjacency.get(a, ()):
            if b not in pair_r:
                if limit == dist[a] + 1:
                    pair_l[a] = b
                    pair_r[b] = a
                    return True
            else:
                nxt = pair_r[b]
                if dist[nxt] == dist[a] + 1 and dfs(nxt):
                    pair_l[a] = b
                    pair_r[b] = a
                    return True
        dist[a] = _UNREACHED
        return False

    while bfs():
        for a in lefts:
            if a not in pair_l:
                dfs(a)
    return MatchingCertificate(tuple(sorted(pair_l.items())))


def konig_cover(l: BipartiteGraph, m: MatchingCertificate) -> CoverCertificate:
    """Vertex cover of size |m| via alternating reachability.

    Cover members are (0, left id) and (1, right id).  Raises RuntimeError
    if the construction fails, which happens exactly when m is not a
    maximum matching of l.
    """
    pair_l = {a: b for a, b in m.edges}
    pair_r = {b: a for a, b in m.edges}
    reach_l = {a for a in l.left if a not in pair_l}
    reach_r: set[int] = set()
    frontier = sorted(reach_l)
    while frontier:
        next_l: list[int] = []
        for a in frontier:
            for b in l.adjacency.get(a, ()):
                if b == pair_l.get(a) or b in reach_r:
                    continue
                reach_r.add(b)
                if b in pair_r and pair_r[b] not in reach_l:
                    reach_l.add(pair_r[b])
                    next_l.append(pair_r[b])
        frontier = sorted(next_l)
    cover = tuple(
        sorted(
            [(0, a) for a in l.left if a not in reach_l]
            + [(1, b) for b in l.right if b in reach_r]
        )
    )
    if len(cover) != m.size:
        raise RuntimeError("cover size differs from matching size; matching not maximum")
    covered = set(cover)
    for a, bs in l.adjacency.items():
        for b in bs:
            if (0, a) not in covered and (1, b) not in covered:
                raise RuntimeError(
                    f"edge ({a}, {b}) uncovered; matching not maximum"
                )
    return CoverCertificate(cover)


def matching_to_independent_set(
    h: ComponentHypergraph, m: MatchingCertificate
) -> tuple[int, ...]:
    """Witness vertices of a hypergraph matching, sorted.

    Any edge between two witnesses in the closure graph would join two
    distinct components of the edge's colour, so the returned vertices are
    pairwise non-adjacent there.
    """
    return tuple(sorted(h.witness[e] for e in m.edges))
