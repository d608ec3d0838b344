"""The tripartite component hypergraph and its exact cover/matching numbers.

Every vertex of a coloured graph lies in exactly one component per colour,
so it induces one (red, green, blue) component triple; the deduplicated
triples are the hyperedges.  A set of components covers the vertex set of
the graph iff it is a vertex cover of this hypergraph, which is what makes
the exact solvers here usable as ground-truth oracles for the tree-cover
pipeline.  The module also carries the bipartite machinery: the union of
link graphs over one colour class, maximum matching, and the matching-sized
vertex cover given by König's theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def tau_exact(h: ComponentHypergraph, k_max: int | None = None) -> CoverCertificate | None:
    """Minimum vertex cover by 3-way branch and bound.

    Branches on the first uncovered hyperedge (one of its three components
    must join any cover), with a greedy cover as incumbent, a greedy
    disjoint-hyperedge packing as lower bound, and dominance memoisation on
    the uncovered set.  Returns None iff the optimum exceeds k_max.
    """
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be non-negative")
    edge_refs = [h.refs_of(e) for e in h.edges]
    if not edge_refs:
        return CoverCertificate(())

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
    return CoverCertificate(tuple(sorted(best)))


def nu_exact(h: ComponentHypergraph) -> MatchingCertificate:
    """Maximum matching by include/exclude branching.

    The bound at each node is the count of remaining hyperedges disjoint
    from the current partial matching, which closes immediately on the
    degenerate all-disjoint instances.
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
