"""Single-colour component structure of a coloured graph.

Covers three things: the per-colour partition of the vertex set into
connected components of each colour class (isolated vertices count as
singleton components in every colour), found by one breadth-first walk
per component that keeps its spanning tree, the closure of a coloured graph
under single-colour connectivity, read off that labelling, and the
independence-number trichotomy on the closure, which builds only the rows
it reads.  The whole closure and its inherited colouring are built only
on request, by `shortcut_graph`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import COLOURS, Colour, ColouredGraph, first_nonadjacent_triple


@dataclass(frozen=True)
class ComponentLabelling:
    """Per-colour vertex partition into single-colour components, with a
    breadth-first spanning tree of each.

    Component ids are canonical: the smallest vertex the component
    contains.  `comp_id[c][v]` is the id of v's c-component,
    `members[c][id]` its vertex bitset, and `parent[c][v]` v's parent in
    the breadth-first tree of that component rooted at its id, or None
    for the id itself.
    """

    n: int
    comp_id: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    members: tuple[dict[int, int], dict[int, int], dict[int, int]]
    parent: tuple[tuple[int | None, ...], tuple[int | None, ...], tuple[int | None, ...]]

    def id_of(self, colour: Colour, v: int) -> int:
        return self.comp_id[colour][v]

    def component_ids(self, colour: Colour) -> list[int]:
        return sorted(self.members[colour])

    def triple_of(self, v: int) -> tuple[int, int, int]:
        """(red id, green id, blue id) of vertex v."""
        return (self.comp_id[0][v], self.comp_id[1][v], self.comp_id[2][v])

    def component_count(self) -> int:
        return sum(len(self.members[c]) for c in range(3))


def _colour_components(
    n: int, rows: tuple[int, ...]
) -> tuple[tuple[int, ...], dict[int, int], tuple[int | None, ...]]:
    """ids, member masks and breadth-first parents of one colour's
    components.  Roots come from a scan in vertex order that skips
    labelled vertices, so every id is the smallest member; a root with an
    empty row is a singleton and touches no full-width mask.  Any other
    root walks breadth-first: a queue in discovery order, in which u takes
    `rows[u] & unseen` as its children, in ascending order."""
    ids = list(range(n))
    parent: list[int | None] = [None] * n
    members: dict[int, int] = {}
    unseen = (1 << n) - 1
    for root in range(n):
        if ids[root] != root:
            continue
        if not rows[root]:
            members[root] = 1 << root
            continue
        comp = 1 << root
        unseen ^= comp
        queue = [root]
        for u in queue:
            novel = rows[u] & unseen
            if novel:
                unseen ^= novel
                comp |= novel
                while novel:
                    low = novel & -novel
                    v = low.bit_length() - 1
                    ids[v] = root
                    parent[v] = u
                    queue.append(v)
                    novel ^= low
        members[root] = comp
    return tuple(ids), members, tuple(parent)


def monochromatic_components(cg: ColouredGraph) -> ComponentLabelling:
    """Connected components of each single-colour subgraph of cg."""
    per_colour = [_colour_components(cg.n, cg.colour_adj[c]) for c in COLOURS]
    return ComponentLabelling(cg.n, *zip(*per_colour))  # type: ignore[arg-type]


def shortcut_graph(cg: ColouredGraph) -> ColouredGraph:
    """The single-colour-connectivity closure of cg with its inherited
    colouring: a direct edge keeps its input colour, a new edge takes the
    smallest colour whose component joins the pair.  With that rule the
    per-colour component partitions of the closure and cg coincide.  The
    new edges at v join it to the rest of its three components outside
    its three colour rows."""
    lab = monochromatic_components(cg)
    rows: tuple[list[int], list[int], list[int]] = ([], [], [])
    for v, r, g, b in zip(range(cg.n), *cg.colour_adj):
        comps = [lab.members[c][lab.comp_id[c][v]] for c in COLOURS]
        new = (comps[0] | comps[1] | comps[2]) & ~(r | g | b | 1 << v)
        for c in COLOURS:
            joined = new & comps[c]
            rows[c].append(cg.colour_adj[c][v] | joined)
            new &= ~joined
    return ColouredGraph(cg.n, tuple(tuple(r) for r in rows))  # type: ignore[arg-type]


@dataclass(frozen=True)
class AlphaClass:
    """Independence-number trichotomy of a closure graph.

    kind is "one" (complete graph), "two" (some non-adjacent pair but no
    independent triple) or "three_plus" with the lexicographically smallest
    independent triple as witness.
    """

    kind: str
    witness: tuple[int, int, int] | None = None


class _ClosureRows:
    """The closure's rows, each built on its first read and then kept.
    Row v is the union of v's three components, so it holds v's own bit."""

    def __init__(self, lab: ComponentLabelling):
        self.lab, self.built = lab, {}

    def __len__(self) -> int:
        return self.lab.n

    def __getitem__(self, v: int) -> int:
        if v not in self.built:
            ids, members = self.lab.comp_id, self.lab.members
            self.built[v] = members[0][ids[0][v]] | members[1][ids[1][v]] | members[2][ids[2][v]]
        return self.built[v]


def alpha_class(lab: ComponentLabelling) -> AlphaClass:
    """Exact trichotomy on the independence number of the closure graph.
    The complete-graph test stops at the first incomplete row and the
    triple search at the first triple, and each builds only the closure
    rows it reads, once: a sparse closure builds a few, not n."""
    rows = _ClosureRows(lab)
    full = (1 << lab.n) - 1
    if all(rows[v] == full for v in range(lab.n)):
        return AlphaClass("one")
    triple = first_nonadjacent_triple(rows)
    if triple is not None:
        return AlphaClass("three_plus", triple)
    return AlphaClass("two")
