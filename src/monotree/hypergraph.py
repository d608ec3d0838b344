"""The tripartite component hypergraph and its exact cover/matching numbers.

Every vertex of a coloured graph lies in exactly one component per colour,
so it induces one (red, green, blue) component triple; the deduplicated
triples are the hyperedges.  A set of components covers the vertex set of
the graph iff it is a vertex cover of this hypergraph, which is what makes
the exact solvers here usable as ground-truth oracles for the tree-cover
pipeline.  A minimum cover comes from the classic hitting-set reductions
(Weihe 1998; Abu-Khzam 2010), applied incrementally where the last one may
have made another fire, followed by one branch and bound on the reduced
kernel.  The reductions are sound in any order, but which cover they leave
depends on the order, so they run in one that no hash decides, and
`tau_exact` returns the canonical cover that they and the branch and bound
leave.  A maximum matching comes from an include/exclude search on each
piece of linked hyperedges.  Both searches hand a call only what is still
open and take back the best found.  The module also carries the bipartite
machinery: the union of link graphs over one colour class, maximum matching
by Hopcroft-Karp, and the matching-sized vertex cover given by König's
theorem, read from the alternating layering of the last phase.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain
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


def _greedy_cover(edges: list[tuple[CompRef, ...]]) -> list[CompRef]:
    """Greedy cover: repeatedly pick the component on the most uncovered
    edges, the least such component on ties.  Each pick recounts the
    uncovered edges; it runs only on branch and bound kernels, which are
    small.
    """
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


def _kernel(
    edges: Iterable[Iterable[CompRef]],
) -> tuple[set[CompRef], list[tuple[CompRef, ...]]]:
    """Apply the hitting-set reductions until none fires; returns the
    components they force and the kernel they leave, as sorted edges.  A
    minimum cover of the kernel joined with the forced components is a
    minimum cover of the input.

    * Unit edge: an edge with one component left forces that component,
      and the edges through it are dropped.
    * Edge domination: an edge containing another edge, or equal to it,
      is covered by every cover of the other, so it is dropped.
    * Component domination: a is dropped from its edges when some b lies
      on every edge through a and on strictly more edges, or on the same
      edges with b < a; any cover can swap a for b.

    One pass first applies component domination to every component on a
    single edge.  After it, each reduction is applied on its own, and
    only where the last ones may have made it fire: an edge is checked
    again when it loses a component, and a component when it loses an
    edge.  An edge can come to contain another only when the other
    shrinks, and a component can become dominated only when its own
    edges thin out, so once both queues are empty no reduction fires
    anywhere.  The component queue is filled in sorted order and drained
    last in, first out, so no hash of a component decides the cover left.
    """
    edges = list(edges)
    degree = Counter(chain.from_iterable(edges))
    forced: set[CompRef] = set()
    members: dict[int, set[CompRef]] = {}  # edge id -> the edge's components
    through: defaultdict[CompRef, set[int]] = defaultdict(set)  # the reverse
    for i, e in enumerate(edges):
        # Component domination of the components on one edge, all at once:
        # a member on more edges dominates them, or else the least member,
        # which the edge then forces.
        kept = {r for r in e if degree[r] > 1}
        if kept:
            members[i] = kept
            for r in kept:
                through[r].add(i)
        else:
            forced.add(min(e))
    shrunk = list(members)  # edges to check for a unit or a sub-edge
    thinned = dict.fromkeys(sorted(through))  # components to check for a dominator

    def drop(i: int) -> None:
        for r in sorted(members.pop(i)):
            left = through[r]
            left.discard(i)
            if left:
                thinned[r] = None
            else:
                del through[r]

    while shrunk or thinned:
        if shrunk:
            i = shrunk.pop()
            e = members.get(i)
            if e is None:
                continue
            if len(e) == 1:
                forced |= e
                for j in list(through[next(iter(e))]):
                    drop(j)
                continue
            containing = set.intersection(*[through[r] for r in e])
            containing.discard(i)
            for j in containing:
                drop(j)
            continue
        a, _ = thinned.popitem()
        own = through.get(a)
        if own is None:
            continue
        for b in members[next(iter(own))]:
            other = through[b]
            if b != a and own <= other and (len(other) > len(own) or b < a):
                del through[a]
                for i in own:
                    members[i].discard(a)
                    shrunk.append(i)
                break
    return forced, sorted(tuple(sorted(e)) for e in members.values())


def _branch_and_bound(edges: list[tuple[CompRef, ...]]) -> list[CompRef]:
    """A minimum cover of a kernel: branch on the first uncovered edge, with
    a greedy cover as incumbent and a greedy disjoint-edge packing as
    lower bound."""
    incidence: dict[CompRef, set[int]] = {}
    for i, refs in enumerate(edges):
        for r in refs:
            incidence.setdefault(r, set()).add(i)

    def search(
        uncovered: frozenset[int], chosen: list[CompRef], best: list[CompRef]
    ) -> list[CompRef]:
        if not uncovered:
            return chosen  # it passed its parent's bound, so it is smaller
        if len(chosen) + _greedy_disjoint(edges, sorted(uncovered)) >= len(best):
            return best
        for r in edges[min(uncovered)]:
            best = search(uncovered - incidence[r], chosen + [r], best)
        return best

    return search(frozenset(range(len(edges))), [], _greedy_cover(edges))


def min_cover(edges: Iterable[Iterable[CompRef]]) -> set[CompRef]:
    """A minimum set of components meeting every edge: the components the
    reductions force plus the branch-and-bound optimum of the kernel they
    leave.  Unlike ν's search, this one is not split into pieces: after the
    reductions the kernel is almost always empty and was never seen split."""
    forced, kernel = _kernel(edges)
    return forced.union(_branch_and_bound(kernel))


def _edge_keys(h: ComponentHypergraph) -> tuple[int, list[tuple[int, int, int]]]:
    """k, 1 + the largest component id, and each hyperedge's components as
    the int keys colour * k + id, which order as the (colour, id) pairs do:
    every sort, min and tie-break picks the same component on either."""
    k = 1 + max(chain.from_iterable(h.parts), default=-1)
    return k, [(r, k + g, 2 * k + b) for r, g, b in h.edges]


def tau_exact(h: ComponentHypergraph, k_max: int | None = None) -> tuple[CompRef, ...] | None:
    """Minimum vertex cover, sorted; None iff the optimum τ exceeds k_max.

    When a greedy packing finds more than k_max pairwise disjoint
    hyperedges, that settles k_max without τ.  The cover is `min_cover`'s:
    the canonical one that the fixed-order reductions and the branch and
    bound on their kernel leave, the same on every platform, searched on
    `_edge_keys` and decoded once, at the end.
    """
    if k_max is not None and k_max < 0:
        raise ValueError("k_max must be non-negative")
    k, edge_keys = _edge_keys(h)
    if k_max is not None and _greedy_disjoint(edge_keys, range(len(edge_keys))) > k_max:
        return None
    cover = min_cover(edge_keys)
    if k_max is not None and len(cover) > k_max:
        return None
    return tuple(divmod(key, k) for key in sorted(cover))


def nu_exact(h: ComponentHypergraph) -> tuple[tuple[int, int, int], ...]:
    """Maximum matching, as hyperedges in `h.edges` order.

    ν adds up over the pieces that hyperedges sharing a component link, so
    each is searched on its own.  A node branches on its first free
    hyperedge, one disjoint from the partial matching: a call takes it, then
    the node's loop leaves it out, so no call recurses deeper than the
    matching it builds.  The bounds are the count of free hyperedges, which
    closes all-disjoint pieces at once, then their cover number (ν ≤ τ).  A
    pruned subtree holds no larger matching, so each piece yields its first
    maximum matching in branching order; their union is the whole's first.
    Components are `_edge_keys`' int keys throughout.
    """
    _, edge_keys = _edge_keys(h)

    def search(free: list[int], chosen: list[int], best: list[int]) -> list[int]:
        while len(chosen) + len(free) > len(best):
            if not free:
                return chosen
            if len(chosen) + len(min_cover(edge_keys[j] for j in free)) <= len(best):
                break
            i, *free = free
            refs = edge_keys[i]
            disjoint = [j for j in free if not any(r in refs for r in edge_keys[j])]
            best = search(disjoint, chosen + [i], best)
        return best

    through: defaultdict[int, list[int]] = defaultdict(list)
    for i, refs in enumerate(edge_keys):
        for r in refs:
            through[r].append(i)
    matching: list[int] = []
    for start, refs in enumerate(edge_keys):
        if refs[0] in through:  # its components leave `through` with its piece
            piece, new = set(), {start}
            while new:
                piece |= new
                new = {j for i in new for r in edge_keys[i] for j in through.pop(r, ())} - piece
            matching += search(sorted(piece), [], [])
    return tuple(h.edges[i] for i in sorted(matching))


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph between components of two colours.

    `colours` holds the colour values of the left and right sides, and the
    left ids are the keys of `adjacency`, in ascending order.  `origin`
    maps each edge to the sorted ids of the pivot components whose links
    contributed it.
    """

    colours: tuple[int, int]
    adjacency: dict[int, tuple[int, ...]]  # left id -> sorted right ids
    origin: dict[tuple[int, int], tuple[int, ...]]


def link_union(h: ComponentHypergraph, pivot: Colour = Colour.RED) -> BipartiteGraph:
    """Union of the link graphs of every pivot-colour component.

    One bipartite edge per pair of non-pivot components that appears in a
    hyperedge with some pivot component; `origin` records which pivot
    components contribute each edge.  The sides are the two other colours
    in (red, green, blue) order: green and blue for the default red pivot.
    """
    lc, rc = (c for c in COLOURS if c != pivot)
    adj: dict[int, set[int]] = {cid: set() for cid in h.parts[lc]}
    origin: dict[tuple[int, int], set[int]] = {}
    for e in h.edges:
        a, b, s = e[lc], e[rc], e[pivot]
        adj[a].add(b)
        origin.setdefault((a, b), set()).add(s)
    return BipartiteGraph(
        (int(lc), int(rc)),
        {a: tuple(sorted(bs)) for a, bs in adj.items()},
        {pair: tuple(sorted(s)) for pair, s in origin.items()},
    )


_UNREACHED = 1 << 60


def _alternating_layers(
    l: BipartiteGraph, pair_l: dict[int, int], pair_r: dict[int, int]
) -> tuple[dict[int, int], int]:
    """Breadth-first layering of the alternating paths from the free left
    vertices: `dist` maps each left vertex to its layer (_UNREACHED when no
    alternating path reaches it), and `limit` is the length of the shortest
    augmenting path, or _UNREACHED when the matching is maximum.  Layers at
    or beyond `limit` are not expanded."""
    dist = {a: _UNREACHED if a in pair_l else 0 for a in l.adjacency}
    queue = deque(a for a in l.adjacency if a not in pair_l)
    limit = _UNREACHED
    while queue:
        a = queue.popleft()
        if dist[a] >= limit:
            continue
        for b in l.adjacency[a]:
            if b not in pair_r:
                limit = min(limit, dist[a] + 1)
            else:
                nxt = pair_r[b]
                if dist[nxt] == _UNREACHED:
                    dist[nxt] = dist[a] + 1
                    queue.append(nxt)
    return dist, limit


def max_matching_bipartite(l: BipartiteGraph) -> tuple[tuple[int, int], ...]:
    """Maximum matching via Hopcroft-Karp layered augmentation, as sorted
    (left id, right id) pairs.

    Deterministic: vertices and neighbour lists are processed in sorted
    order, so a fixed input always yields the same matching.
    """
    pair_l: dict[int, int] = {}
    pair_r: dict[int, int] = {}

    def dfs(a: int) -> bool:
        for b in l.adjacency[a]:
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

    while True:
        dist, limit = _alternating_layers(l, pair_l, pair_r)
        if limit == _UNREACHED:
            return tuple(sorted(pair_l.items()))
        for a in l.adjacency:
            if a not in pair_l:
                dfs(a)


def konig_cover(l: BipartiteGraph, m: tuple[tuple[int, int], ...]) -> tuple[CompRef, ...]:
    """Vertex cover of size |m| by König's theorem: with Z the vertices
    that alternating paths from the free left vertices reach, the cover is
    the left vertices outside Z and the right vertices in Z.  Every right
    vertex in Z is matched to a left vertex in Z, so the right half is the
    partners of the reached matched left vertices.

    Cover members are sorted (colour, id) pairs, coloured by `l.colours`.
    Raises RuntimeError if m is not a matching of l, or not a maximum one.
    """
    lc, rc = l.colours
    pair_l = dict(m)
    pair_r = {b: a for a, b in m}
    if len(pair_l) != len(m) or len(pair_r) != len(m):
        raise RuntimeError("two pairs share an endpoint; not a matching")
    for a, b in m:
        if b not in l.adjacency.get(a, ()):
            raise RuntimeError(f"pair ({a}, {b}) is not an edge; not a matching")
    dist, limit = _alternating_layers(l, pair_l, pair_r)
    if limit != _UNREACHED:
        raise RuntimeError("an augmenting path exists; matching not maximum")
    cover = tuple(
        sorted(
            [(lc, a) for a in l.adjacency if dist[a] == _UNREACHED]
            + [(rc, pair_l[a]) for a in l.adjacency if a in pair_l and dist[a] != _UNREACHED]
        )
    )
    if len(cover) != len(m):
        raise RuntimeError("cover size differs from matching size; matching not maximum")
    covered = set(cover)
    for a, bs in l.adjacency.items():
        for b in bs:
            if (lc, a) not in covered and (rc, b) not in covered:
                raise RuntimeError(
                    f"edge ({a}, {b}) uncovered; matching not maximum"
                )
    return cover
