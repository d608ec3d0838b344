"""End-to-end cover pipeline.

Label the single-colour components of the input, classify the
independence number of the closure they define (u ~ v when some colour
puts u and v in one component), and run the matching constructive
strategy on the components:

* complete closure: exact search for one or two covering components;
* independent triple: rainbow-pattern analysis of a common neighbourhood,
  then all triples of the five named candidate components;
* no independent triple: the link-graph route (a matching-sized bipartite
  cover when the matching is small, otherwise a three-way case analysis of
  how a 4-matching distributes over two pivot links).

Every strategy enumerates a small explicit family of candidate covers and
verifies candidates directly, so it stays sound on inputs where the
high-probability regularity behind the strategies fails; the exact
hypergraph cover search is always available as fallback and doubles as an
optimality oracle at small component counts.  Returned tree covers are
verified before they leave `solve_cover`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain, combinations, permutations
from typing import Iterable, Sequence

from .components import ComponentLabelling, alpha_class, monochromatic_components
from .graphs import COLOURS, Colour, ColouredGraph, iter_bits
from .hypergraph import (
    CompRef,
    ComponentHypergraph,
    build_component_hypergraph,
    konig_cover,
    link_union,
    max_matching_bipartite,
    refs_json,
    tau_exact,
)

BRANCH_EGP = "egp"
BRANCH_ALPHA3 = "alpha-ge3"
BRANCH_KONIG = "konig"
BRANCH_CASE1 = "case1"
BRANCH_CASE2 = "case2"
BRANCH_CASE3 = "case3"
BRANCH_FALLBACK = "fallback"

BRANCHES = (
    BRANCH_EGP,
    BRANCH_ALPHA3,
    BRANCH_KONIG,
    BRANCH_CASE1,
    BRANCH_CASE2,
    BRANCH_CASE3,
    BRANCH_FALLBACK,
)

# The exact search runs beside a successful strategy only up to this many
# components (a degenerate strategy always gets it).  It stays because the
# pinned `solve` JSON of perfbench's file-solve three-star instances (837 to
# 902 components) omits `exact_size` on account of it.
EXACT_SEARCH_MAX_COMPONENTS = 400


@dataclass(frozen=True)
class Tree:
    """A rooted tree, monochromatic in its host graph.

    `parent` maps every tree vertex to its parent; the root maps to None.
    """

    colour: Colour
    root: int
    parent: dict[int, int | None]

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.parent))

    @property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            sorted((p, v) for v, p in self.parent.items() if p is not None)
        )


@dataclass(frozen=True)
class TreeCover:
    trees: tuple[Tree, ...]

    @property
    def size(self) -> int:
        return len(self.trees)


@dataclass
class TraceReport:
    """Which proof branch fired and the evidence it used.

    The strategy that ran fills in its own evidence; `solve_cover` adds
    the alpha class, the counts and the final cover.
    """

    alpha: str = ""
    branch: str = ""
    component_count: int = 0
    cover_refs: tuple[CompRef, ...] = ()
    strategy_size: int | None = None
    exact_size: int | None = None
    notes: list[str] = field(default_factory=list)
    # independent-triple branch
    triple: tuple[int, int, int] | None = None
    x_size: int | None = None
    colour_pattern: tuple[str, str, str] | None = None
    # link-graph branch
    nu_link: int | None = None
    matching: tuple[tuple[int, int], ...] | None = None
    case: int | None = None
    j_witnesses: dict[str, int] | None = None
    winning_candidate: tuple[CompRef, ...] | None = None

    def to_json(self) -> dict:
        """Every field that is not None, `cover_refs` under "cover",
        component references as `refs_json` pairs and tuples as lists."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name in ("cover_refs", "winning_candidate"):
                value = refs_json(value)
            elif isinstance(value, (tuple, list)):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            elif isinstance(value, dict):
                value = dict(value)
            out["cover" if f.name == "cover_refs" else f.name] = value
        return out


def _union_mask(lab: ComponentLabelling, refs: Iterable[CompRef]) -> int:
    mask = 0
    for c, cid in refs:
        mask |= lab.members[c][cid]
    return mask


def _dedupe(refs: Iterable[CompRef]) -> tuple[CompRef, ...]:
    return tuple(dict.fromkeys(refs))


def _covering_candidate(
    lab: ComponentLabelling,
    full: int,
    candidates: Iterable[tuple[CompRef, ...]],
) -> tuple[CompRef, ...] | None:
    """The first candidate whose components cover `full`, deduplicated and
    sorted, or None when no candidate covers."""
    for cand in candidates:
        refs = _dedupe(cand)
        if _union_mask(lab, refs) == full:
            return tuple(sorted(refs))
    return None


def _finish(
    trace: TraceReport,
    winner: tuple[CompRef, ...] | None,
    branch: str = "",
    failure: str = "",
) -> tuple[tuple[CompRef, ...] | None, TraceReport]:
    """Every strategy's exit: record the winner and the branch that found
    it, or, when there is no winner, the `failure` note saying why."""
    if winner is None:
        trace.notes.append(failure)
        return None, trace
    trace.branch = branch
    trace.winning_candidate = winner
    return winner, trace


def egp_partition_search(lab: ComponentLabelling) -> tuple[CompRef, ...]:
    """Exact search for at most two covering components of a complete
    closure graph: all single components first, then all pairs, in colour
    then id order.

    A covering pair always exists for a complete 3-coloured graph, so
    exhausting the pairs raises: it means the input was not complete.
    """
    full = (1 << lab.n) - 1
    if full == 0:
        return ()
    refs = [(c, cid) for c in COLOURS for cid in lab.component_ids(c)]
    winner = _covering_candidate(
        lab, full, chain(((ref,) for ref in refs), combinations(refs, 2))
    )
    if winner is None:
        raise RuntimeError(
            "no covering pair of components; input closure graph is not complete"
        )
    return winner


def strategy_alpha_ge3(
    cg: ColouredGraph, lab: ComponentLabelling, triple: tuple[int, int, int]
) -> tuple[tuple[CompRef, ...] | None, TraceReport]:
    """Cover attempt from an independent triple of the closure graph.

    Groups the common neighbourhood of the triple by the colour pattern it
    sends to the three vertices (every pattern is rainbow: a repeated
    colour would be a single-colour path between two triple vertices),
    takes the largest group, and tests all triples of the five components
    it names: each triple vertex with its pattern colour plus the two
    swapped components of the second and third vertex.

    Returns (cover, trace); cover is None when the neighbourhood
    degenerates, which signals the exact fallback.
    """
    v1, v2, v3 = triple
    trace = TraceReport(triple=triple)
    for a, b in ((v1, v2), (v1, v3), (v2, v3)):
        # Sharing a component of some colour is adjacency in the closure.
        if any(ids[a] == ids[b] for ids in lab.comp_id):
            raise ValueError(f"vertices {a} and {b} are adjacent in the closure graph")
    # A common neighbour sending one colour c to two triple vertices would
    # put both in its c-component, adjacent in the closure, ruled out above;
    # so the six rainbow groups split the common neighbourhood by pattern.
    ca = cg.colour_adj
    groups = {
        (c1, c2, c3): mask
        for c1, c2, c3 in permutations(COLOURS)
        if (mask := ca[c1][v1] & ca[c2][v2] & ca[c3][v3])
    }
    if not groups:
        return _finish(trace, None, failure="triple has no common neighbour")
    pattern = min(groups, key=lambda p: (-groups[p].bit_count(), p))
    x_mask = groups[pattern]
    c1, c2, c3 = pattern
    trace.x_size = x_mask.bit_count()
    trace.colour_pattern = tuple(c.name.lower() for c in pattern)
    five = _dedupe(
        [
            (int(c1), lab.id_of(c1, v1)),
            (int(c2), lab.id_of(c2, v2)),
            (int(c3), lab.id_of(c3, v3)),
            (int(c3), lab.id_of(c3, v2)),
            (int(c2), lab.id_of(c2, v3)),
        ]
    )
    winner = _covering_candidate(
        lab, (1 << cg.n) - 1, combinations(five, min(3, len(five)))
    )
    return _finish(
        trace, winner, BRANCH_ALPHA3,
        "no covering triple among the five candidate components",
    )


def _case2_candidates(
    lab: ComponentLabelling,
    r1: int,
    r2: int,
    fourth: tuple[int, int],
) -> list[tuple[CompRef, ...]]:
    # Covers tried for the 3+1 split: the two pivot components plus any
    # third pivot component, then {R1, B4, G4}, {R1, R2, B4}, {R1, R2, G4}.
    g4, b4 = fourth
    cands: list[tuple[CompRef, ...]] = [
        ((0, r1), (0, r2), (0, r)) for r in sorted(lab.members[0])
    ]
    cands.append(((0, r1), (2, b4), (1, g4)))
    cands.append(((0, r1), (0, r2), (2, b4)))
    cands.append(((0, r1), (0, r2), (1, g4)))
    return cands


def _case1_candidates(
    r1: int, r2: int, edges4: Sequence[tuple[int, int]]
) -> list[tuple[CompRef, ...]]:
    cands: list[tuple[CompRef, ...]] = []
    for _, b in edges4:
        cands.append(((0, r1), (0, r2), (2, b)))
    for g, _ in edges4:
        cands.append(((0, r1), (0, r2), (1, g)))
    return cands


def strategy_alpha2(
    lab: ComponentLabelling, h: ComponentHypergraph
) -> tuple[tuple[CompRef, ...] | None, TraceReport]:
    """Cover attempt through the union of red-component link graphs.

    With matching number at most 3 the matching-sized bipartite cover
    lifts directly to at most three covering components.  Otherwise the
    first four matching edges distribute over at most two red components
    (three disjoint representatives would force an independent triple in
    the closure graph), splitting into the 2+2, 3+1 and 4+0 cases; each
    case tests its explicit candidate family.  The 4+0 case first tries to
    re-route to 3+1 through a hyperedge of another red component.

    Returns (cover, trace); None signals the exact fallback.
    """
    full = (1 << lab.n) - 1
    link = link_union(h, Colour.RED)
    m = max_matching_bipartite(link)
    trace = TraceReport(nu_link=len(m), matching=m)
    if len(m) <= 3:
        refs = konig_cover(link, m)
        # Every vertex's hyperedge projects to a link edge, so a link cover
        # always covers the whole vertex set.
        if _union_mask(lab, refs) != full:
            raise RuntimeError("link cover failed to cover the vertex set")
        return _finish(trace, refs, BRANCH_KONIG)

    edges4 = list(m[:4])
    origins = [set(link.origin[e]) for e in edges4]
    coverage: dict[int, int] = {}
    for os in origins:
        for r in os:
            coverage[r] = coverage.get(r, 0) + 1
    r1 = min(coverage, key=lambda r: (-coverage[r], r))
    assigned = [e for e, os in zip(edges4, origins) if r1 in os]
    rest = [e for e, os in zip(edges4, origins) if r1 not in os]
    r2 = None
    if rest:
        # `shared` is never empty.  Witness h.witness[(r, g, b)] lies in red
        # r, green g and blue b, and two vertices whose three components
        # all differ are non-adjacent in the closure.  Let e0 be a matching
        # edge through r1.  If `shared` were empty, two edges e_a and e_b of
        # rest would have origins r_a != r_b, neither of them r1, and the
        # witnesses of (r1, e0), (r_a, e_a) and (r_b, e_b) would be pairwise
        # non-adjacent: their reds differ, and their greens and blues
        # differ because these are matching edges.  That triple would make
        # the independence number at least 3, and `solve_cover` calls this
        # only when it is 2.
        shared = set.intersection(*[os for os in origins if r1 not in os])
        r2 = min(shared)

    # rest never holds more than two edges: r1 has the largest coverage and
    # r2 lies on every edge of rest, so
    # 4 - len(rest) = coverage[r1] >= coverage[r2] >= len(rest).
    # Its 2, 1 or 0 edges give the 2+2, 3+1 and 4+0 cases; the witnesses
    # number the edges in the r1 link first, then those in the r2 link.
    trace.case = 3 - len(rest)
    ordered = assigned + rest
    trace.j_witnesses = {
        f"J{i + 1}": h.witness[(r1 if i < len(assigned) else r2, *e)]
        for i, e in enumerate(ordered)
    }
    if trace.case == 1:
        winner = _covering_candidate(lab, full, _case1_candidates(r1, r2, ordered))
        return _finish(trace, winner, BRANCH_CASE1, "2+2 case candidates exhausted")
    if trace.case == 2:
        winner = _covering_candidate(
            lab, full, _case2_candidates(lab, r1, r2, rest[0])
        )
        return _finish(trace, winner, BRANCH_CASE2, "3+1 case candidates exhausted")

    # 4+0: all four matching edges in the r1 link.  `others` is never
    # empty: every vertex has a hyperedge, so if all of them passed
    # through r1, every vertex would lie in r1 and the closure would be
    # complete, with independence number 1; `solve_cover` calls this only
    # when it is 2.
    others = [e for e in h.edges if e[0] != r1]
    greens = [g for g, _ in edges4]
    blues = [b for _, b in edges4]
    for r2x, gx, bx in others:
        if gx in greens:
            k = greens.index(gx)
            if bx in [b for i, b in enumerate(blues) if i != k]:
                continue  # this hyperedge only re-meets matched components
        trace.j_witnesses["J4'"] = h.witness[(r2x, gx, bx)]
        winner = _covering_candidate(
            lab, full, _case2_candidates(lab, r1, r2x, (gx, bx))
        )
        if winner is not None:
            trace.notes.append("4+0 case re-routed through a 3+1 analysis")
            return _finish(trace, winner, BRANCH_CASE3)
    # No re-route: the first hyperedge outside the r1 link meets a matched
    # green component and a matched blue component of a different edge.
    r2x, gx, bx = others[0]
    trace.j_witnesses["J5"] = h.witness[(r2x, gx, bx)]
    cands: list[tuple[CompRef, ...]] = []
    green_ids = sorted(lab.members[1])
    blue_ids = sorted(lab.members[2])
    for c in green_ids:
        cands.append(((0, r1), (2, bx), (1, c)))
    for c in blue_ids:
        cands.append(((0, r1), (2, bx), (2, c)))
    for c in green_ids:
        cands.append(((0, r1), (1, gx), (1, c)))
    for c in blue_ids:
        cands.append(((0, r1), (1, gx), (2, c)))
    cands.append(((0, r1), (2, bx), (1, gx)))
    winner = _covering_candidate(lab, full, cands)
    return _finish(trace, winner, BRANCH_CASE3, "4+0 case candidates exhausted")


def components_to_trees(comps: Iterable[CompRef], lab: ComponentLabelling) -> TreeCover:
    """The spanning tree of each component that `lab`'s breadth-first walk
    kept, rooted at its id (the smallest vertex).  Raises ValueError if
    the union of the components misses a vertex."""
    refs = tuple(sorted(_dedupe(comps)))
    missing = ((1 << lab.n) - 1) & ~_union_mask(lab, refs)
    if missing:
        raise ValueError(f"components do not cover vertex {next(iter_bits(missing))}")
    # An id is its component's least vertex: mask >> id == 1 is a singleton.
    return TreeCover(tuple(
        Tree(COLOURS[c], cid, {cid: None} if (mask := lab.members[c][cid]) >> cid == 1
             else {v: lab.parent[c][v] for v in iter_bits(mask)})
        for c, cid in refs
    ))


def verify_cover(cg: ColouredGraph, tc: TreeCover) -> list[str]:
    """The first violation of the tree-cover contract alone, or else one
    message per vertex that no tree covers; an empty list means valid.

    Trees are checked in order, on bitsets.  Per tree: the colour is red,
    green or blue, the root is the one vertex whose parent is None, every
    vertex is an int in range and every parent a tree vertex.  The
    children of each parent form one mask, which must lie in the parent's
    row of the tree's colour.  Each parent's chain of parents must reach
    the root: it is walked up to the root or a vertex that an earlier walk
    reached, so each vertex once, and a walk back to its own vertex is a
    cycle.  The range test comes before any shift, so that an id far out
    of range never builds a huge int.  A violation names its tree as
    `tree i (colour, root r)`.
    """
    n = cg.n
    covered = 0
    try:
        for index, tree in enumerate(tc.trees):
            parent, root = tree.parent, tree.root
            if tree.colour not in COLOURS:
                what = f"colour {tree.colour!r} is not red, green or blue"
                return _fault(index, tree, what)
            if parent.get(root, 0) is not None:
                what = "root has a parent" if root in parent else "root missing from vertex set"
                return _fault(index, tree, what)
            low, high = min(parent), max(parent)
            if low < 0 or high >= n:
                v = low if low < 0 else high
                what = f"vertex {v} out of range" if isinstance(v, int) else _non_int(tree)
                return _fault(index, tree, what)
            if len(parent) == 1:
                covered |= 1 << root
                continue
            children: dict[int | None, int] = {}
            for v, p in parent.items():
                children[p] = children.get(p, 0) | 1 << v
            if (roots := children.pop(None)) != 1 << root:
                return _fault(index, tree, f"second root {next(iter_bits(roots ^ 1 << root))}")
            if not children.keys() <= parent.keys():
                v = next(v for v, p in parent.items() if p is not None and p not in parent)
                return _fault(index, tree, f"parent {parent[v]} of {v} outside tree")
            covered |= sum(children.values(), 1 << root)
            rows = cg.colour_adj[tree.colour]
            walk_of: dict[int, int | None] = {root: None}  # vertex -> the walk that reached it
            for start, kids in children.items():
                if stray := kids & ~rows[start]:
                    return _fault(index, tree, _edge_fault(cg, start, next(iter_bits(stray))))
                u = start
                while u not in walk_of:
                    walk_of[u] = start
                    u = parent[u]
                if walk_of[u] == start:
                    return _fault(index, tree, f"cycle through vertex {u}")
    except TypeError:
        return _fault(index, tree, _non_int(tree))
    return [f"uncovered vertex {v}" for v in iter_bits(((1 << n) - 1) & ~covered)]


def _fault(index: int, tree: Tree, what: str) -> list[str]:
    """The one violation `what`, headed by its tree's index, colour and
    root."""
    name = Colour(tree.colour).name.lower() if tree.colour in COLOURS else repr(tree.colour)
    return [f"tree {index} ({name}, root {tree.root}): {what}"]


def _edge_fault(cg: ColouredGraph, p: int, v: int) -> str:
    """Why (p, v) is not an edge of its tree's colour, as a violation."""
    for c in COLOURS:
        if cg.colour_adj[c][p] >> v & 1:
            return f"edge ({p}, {v}) is {c.name.lower()}"
    return f"missing edge ({p}, {v})"


def _non_int(tree: Tree) -> str:
    """A value of `tree` that should be an int and is not, as a violation:
    its first such vertex, or else its root, or else a parent.  Such a
    root or parent lies outside the tree unless it equals a vertex; `in`
    on a list compares without hashing, so one that cannot be hashed
    equals none."""
    parent, root = tree.parent, tree.root
    odd = [v for v in parent if not isinstance(v, int)]
    if odd:
        return f"vertex {odd[0]!r} is not an int"
    if not isinstance(root, int):
        if root in list(parent):
            return f"root {root!r} is not an int"
        return "root missing from vertex set"
    v, p = next((v, p) for v, p in parent.items() if p is not None and not isinstance(p, int))
    if p in list(parent):
        return f"parent {p!r} of {v} is not an int"
    return f"parent {p} of {v} outside tree"


def solve_cover(cg: ColouredGraph) -> tuple[TreeCover, TraceReport]:
    """Cover the vertices of cg with monochromatic trees, at most three on
    every instance the constructive strategies handle.

    Returns the verified tree cover and a trace recording the branch that
    fired, the evidence it used, and the exact optimum whenever the exact
    search ran: always when the strategy degenerates, and otherwise on
    instances of at most `EXACT_SEARCH_MAX_COMPONENTS` components.
    The cover size is the smaller of the strategy result and the exact
    result.
    """
    lab = monochromatic_components(cg)
    ac = alpha_class(lab)

    strategy_cover: tuple[CompRef, ...] | None
    h: ComponentHypergraph | None = None
    if ac.kind == "one":
        strategy_cover = egp_partition_search(lab)
        trace = TraceReport(branch=BRANCH_EGP)
    elif ac.kind == "three_plus":
        assert ac.witness is not None
        strategy_cover, trace = strategy_alpha_ge3(cg, lab, ac.witness)
    else:
        h = build_component_hypergraph(lab)
        strategy_cover, trace = strategy_alpha2(lab, h)
    trace.alpha = ac.kind
    trace.component_count = lab.component_count()
    if strategy_cover is not None:
        trace.strategy_size = len(strategy_cover)

    exact_cover: tuple[CompRef, ...] | None = None
    if strategy_cover is None or trace.component_count <= EXACT_SEARCH_MAX_COMPONENTS:
        if h is None:
            h = build_component_hypergraph(lab)
        # Only a cover smaller than the strategy's can replace it, so ask
        # for one; None means the strategy's cover is optimal.
        exact_cover = tau_exact(h, k_max=len(strategy_cover) - 1 if strategy_cover else None)
        trace.exact_size = len(strategy_cover if exact_cover is None else exact_cover)

    if strategy_cover is None:
        assert exact_cover is not None
        final = exact_cover
        trace.branch = BRANCH_FALLBACK
        trace.notes.append("strategy degenerated; exact cover used")
    elif exact_cover is not None and len(exact_cover) < len(strategy_cover):
        final = exact_cover
        trace.notes.append("exact cover smaller than strategy candidate")
    else:
        final = strategy_cover
    trace.cover_refs = tuple(sorted(final))

    trees = components_to_trees(final, lab)
    violations = verify_cover(cg, trees)
    if violations:
        raise AssertionError(f"solver produced an invalid cover: {violations}")
    return trees, trace
