import math
import tracemalloc

import pytest
from hypothesis import given, settings

from monotree import (
    COLOURS,
    Colour,
    alpha_class,
    colour_random,
    colour_three_stars,
    first_nonadjacent_triple,
    generate_gnp,
    monochromatic_components,
    shortcut_graph,
)
from monotree.graphs import iter_bits
from monotree.rng import SplitMix64

import support


def cg_from(n, items):
    return support.from_edge_colours(n, items)


def shuffled_red_path(n, seed):
    order = SplitMix64(seed).sample(n, n)
    return cg_from(n, [(order[i], order[i + 1], Colour.RED) for i in range(n - 1)])


class TestMonochromaticComponents:
    def test_all_red_triangle(self):
        cg = cg_from(3, [(0, 1, Colour.RED), (0, 2, Colour.RED), (1, 2, Colour.RED)])
        lab = monochromatic_components(cg)
        assert lab.members[Colour.RED] == {0: 0b111}
        assert lab.members[Colour.GREEN] == {0: 0b001, 1: 0b010, 2: 0b100}
        assert lab.members[Colour.BLUE] == {0: 0b001, 1: 0b010, 2: 0b100}

    def test_empty_graph_all_singletons(self):
        lab = monochromatic_components(cg_from(4, []))
        for c in COLOURS:
            assert lab.members[c] == {v: 1 << v for v in range(4)}

    def test_two_colour_path(self):
        cg = cg_from(3, [(0, 1, Colour.RED), (1, 2, Colour.BLUE)])
        lab = monochromatic_components(cg)
        assert lab.members[Colour.RED] == {0: 0b011, 2: 0b100}
        assert lab.members[Colour.BLUE] == {0: 0b001, 1: 0b110}
        assert lab.members[Colour.GREEN] == {v: 1 << v for v in range(3)}

    def test_ids_are_smallest_member(self):
        cg = cg_from(5, [(2, 4, Colour.GREEN), (1, 3, Colour.GREEN)])
        lab = monochromatic_components(cg)
        assert lab.id_of(Colour.GREEN, 4) == 2
        assert lab.id_of(Colour.GREEN, 3) == 1

    @settings(max_examples=60)
    @given(support.coloured_graphs(max_n=12))
    def test_matches_bfs_oracle(self, cg):
        lab = monochromatic_components(cg)
        oracle = support.bfs_colour_components(cg)
        for c in COLOURS:
            ours = {frozenset(support.adjacency_sets([m])[0]) for m in lab.members[c].values()}
            theirs = {frozenset(comp) for comp in oracle[c]}
            assert ours == theirs

    @pytest.mark.parametrize(
        "make",
        [
            lambda: colour_random(generate_gnp(200, 0.01, seed=11), seed=12),
            lambda: colour_random(generate_gnp(200, 0.02, seed=13), seed=14),
            lambda: colour_random(
                generate_gnp(300, 1.5 * (math.log(300) / 300) ** (1 / 6), seed=15),
                seed=16,
            ),
            # one vertex joins the frontier per round: the most rounds a
            # walk can take
            lambda: shuffled_red_path(300, seed=17),
        ],
        ids=["gnp-200-0.01", "gnp-200-0.02", "gnp-300-dense", "shuffled-path"],
    )
    def test_matches_bfs_oracle_at_scale(self, make):
        cg = make()
        lab = monochromatic_components(cg)
        oracle = support.bfs_colour_components(cg)
        for c in COLOURS:
            ours = {frozenset(support.adjacency_sets([m])[0]) for m in lab.members[c].values()}
            assert ours == {frozenset(comp) for comp in oracle[c]}
            for comp in oracle[c]:
                smallest = min(comp)
                assert all(lab.comp_id[c][v] == smallest for v in comp)

    @settings(max_examples=40)
    @given(support.coloured_graphs(max_n=12))
    def test_partition_per_colour(self, cg):
        lab = monochromatic_components(cg)
        full = support.adjacency(cg).full_mask
        for c in COLOURS:
            union = 0
            for cid, mask in lab.members[c].items():
                assert mask & union == 0
                assert (mask >> cid) & 1
                union |= mask
            assert union == full


def criterion_density(n):
    return 1.5 * (math.log(n) / n) ** (1 / 6)


def both_colourings(n, p, seed):
    """G(n, p) coloured at random, and by three stars when it has an
    independent triple."""
    g = generate_gnp(n, p, seed=seed)
    yield colour_random(g, seed=seed + 1)
    triple = first_nonadjacent_triple(g.adj)
    if triple is not None:
        yield colour_three_stars(g, *triple, base=Colour(seed % 3))


def assert_forest_matches_reference(cg):
    """For every component of every colour, `lab.parent` is the tree that
    `support.reference_trees` builds, and each parent is a neighbour of
    its child one breadth-first layer closer to the component's id."""
    lab = monochromatic_components(cg)
    for c in COLOURS:
        adj = [set(iter_bits(row)) for row in cg.colour_adj[c]]
        parent = lab.parent[c]
        reference = support.reference_trees(cg, [(c, cid) for cid in lab.members[c]], lab)
        for tree in reference.trees:
            assert {v: parent[v] for v in tree.parent} == tree.parent
            depth, queue = {tree.root: 0}, [tree.root]
            for u in queue:
                for w in adj[u] - depth.keys():
                    depth[w] = depth[u] + 1
                    queue.append(w)
            assert depth.keys() == tree.parent.keys()
            for v, p in tree.parent.items():
                if p is None:
                    assert v == tree.root
                else:
                    assert v in adj[p] and depth[p] == depth[v] - 1


class TestSpanningForest:
    """The labelling's breadth-first parents against the tree builder they
    replaced, on every component, not only those a cover picks."""

    @settings(max_examples=100)
    @given(support.coloured_graphs(max_n=12))
    def test_matches_reference_on_small_graphs(self, cg):
        assert_forest_matches_reference(cg)

    @pytest.mark.parametrize("n", [300, 600, 1200])
    def test_matches_reference_at_criterion_density(self, n):
        for cg in both_colourings(n, criterion_density(n), seed=n + 1):
            assert_forest_matches_reference(cg)

    @pytest.mark.parametrize("n, p", [(100, 0.03), (100, 0.05), (100, 0.08), (60, 0.1)])
    def test_matches_reference_on_sparse_cells(self, n, p):
        # the cells of perfbench's sparse-exact workload
        for seed in range(8):
            for cg in both_colourings(n, p, seed=1000 * seed + n):
                assert_forest_matches_reference(cg)


class TestShortcutGraph:
    def test_red_path_closes_to_red_triangle(self):
        cg = cg_from(3, [(0, 1, Colour.RED), (1, 2, Colour.RED)])
        closure = shortcut_graph(cg)
        assert support.adjacency(closure).edge_count() == 3
        assert closure.colour_of(0, 2) == Colour.RED

    def test_two_colour_path_adds_nothing(self):
        cg = cg_from(3, [(0, 1, Colour.RED), (1, 2, Colour.BLUE)])
        closure = shortcut_graph(cg)
        assert sorted(support.graph_edges(support.adjacency(closure))) == [(0, 1), (1, 2)]
        assert closure.colour_of(0, 1) == Colour.RED
        assert closure.colour_of(1, 2) == Colour.BLUE

    def test_empty_graph(self):
        closure = shortcut_graph(cg_from(4, []))
        assert support.adjacency(closure).edge_count() == 0

    def test_direct_edge_keeps_colour_over_smaller_shortcut(self):
        # 0-1 blue edge inside a green component {0,1,2}: the direct edge
        # keeps blue, while the 0-2 and 1-2 shortcuts stay green.
        cg = cg_from(
            3, [(0, 1, Colour.BLUE), (0, 2, Colour.GREEN), (1, 2, Colour.GREEN)]
        )
        closure = shortcut_graph(cg)
        assert closure.colour_of(0, 1) == Colour.BLUE

    def test_new_edge_takes_smallest_colour(self):
        # 0 and 2 share a green component and a blue component but have no
        # direct edge: the inherited colour is green (the smaller colour).
        cg = cg_from(
            4,
            [
                (0, 1, Colour.GREEN),
                (1, 2, Colour.GREEN),
                (0, 3, Colour.BLUE),
                (2, 3, Colour.BLUE),
            ],
        )
        closure = shortcut_graph(cg)
        assert closure.colour_of(0, 2) == Colour.GREEN

    @settings(max_examples=60)
    @given(support.coloured_graphs(max_n=12))
    def test_source_edges_survive(self, cg):
        closure = shortcut_graph(cg)
        before, after = support.adjacency(cg), support.adjacency(closure)
        for v in range(cg.n):
            assert before.adj[v] & ~after.adj[v] == 0
        for u, v, c in support.coloured_edges(cg):
            assert closure.colour_of(u, v) == c

    @settings(max_examples=40)
    @given(support.coloured_graphs(max_n=10))
    def test_idempotent_edge_sets(self, cg):
        once = shortcut_graph(cg)
        twice = shortcut_graph(once)
        assert support.adjacency(twice) == support.adjacency(once)

    @settings(max_examples=40)
    @given(support.coloured_graphs(max_n=10))
    def test_component_partitions_preserved(self, cg):
        closure = shortcut_graph(cg)
        lab_g = monochromatic_components(cg)
        lab_f = monochromatic_components(closure)
        for c in COLOURS:
            assert lab_g.members[c] == lab_f.members[c]

    def test_component_preservation_at_scale(self):
        cg = colour_random(generate_gnp(120, 0.08, seed=4), seed=5)
        lab = monochromatic_components(cg)
        lab_f = monochromatic_components(shortcut_graph(cg))
        for c in COLOURS:
            assert lab.members[c] == lab_f.members[c]


class TestAlphaClass:
    def test_complete_graph_is_one(self):
        cg = colour_random(support.complete_graph(5), seed=0)
        assert alpha_class(monochromatic_components(cg)).kind == "one"

    def test_k5_minus_edge_is_two(self):
        # A red star at 0 and a green star at 1 close to K5 minus {0, 1}:
        # the only non-adjacent pair cannot extend to an independent triple.
        items = [(0, v, Colour.RED) for v in (2, 3, 4)]
        items += [(1, v, Colour.GREEN) for v in (2, 3, 4)]
        lab = monochromatic_components(cg_from(5, items))
        closure = support.closure_graph(lab)
        assert closure.edge_count() == 9
        assert not closure.has_edge(0, 1)
        assert alpha_class(lab).kind == "two"

    def test_empty_graph_witness_is_lex_smallest(self):
        ac = alpha_class(monochromatic_components(cg_from(3, [])))
        assert ac.kind == "three_plus"
        assert ac.witness == (0, 1, 2)

    def test_single_vertex_and_empty_are_one(self):
        assert alpha_class(monochromatic_components(cg_from(1, []))).kind == "one"
        assert alpha_class(monochromatic_components(cg_from(0, []))).kind == "one"

    def test_two_isolated_vertices_are_two(self):
        assert alpha_class(monochromatic_components(cg_from(2, []))).kind == "two"

    @settings(max_examples=200)
    @given(support.coloured_graphs(max_n=15))
    def test_agrees_with_reference(self, cg):
        lab = monochromatic_components(cg)
        assert alpha_class(lab) == support.reference_alpha_class(lab)

    def test_agrees_with_reference_on_seeded_instances(self):
        kinds = set()
        for cg in support.parity_instances():
            lab = monochromatic_components(cg)
            ac = alpha_class(lab)
            assert ac == support.reference_alpha_class(lab)
            kinds.add(ac.kind)
        assert kinds == {"one", "two", "three_plus"}

    def test_sparse_closure_builds_few_rows(self):
        # tracemalloc peaks of alpha_class on this labelling (n = 16384,
        # 2 kB a closure row) on Python 3.11: 33,090,708 bytes when it
        # built all n closure rows as a SimpleGraph, and 22,832 bytes as it
        # builds the rows that the complete-graph test and the triple
        # search read, here rows 0 and 1.
        n = 16384
        lab = monochromatic_components(colour_random(generate_gnp(n, 2e-4, seed=1), seed=1))
        tracemalloc.start()
        try:
            ac = alpha_class(lab)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ac == support.reference_alpha_class(lab)
        assert peak <= 64 * n // 8

    @settings(max_examples=80)
    @given(support.coloured_graphs(max_n=15))
    def test_agrees_with_naive_trichotomy(self, cg):
        lab = monochromatic_components(cg)
        ours = alpha_class(lab)
        closure = support.closure_graph(lab)
        theirs = support.independence_trichotomy(
            closure.n, support.adjacency_sets(closure.adj)
        )
        assert ours.kind == theirs
        if ours.witness is not None:
            u, v, w = ours.witness
            assert not closure.has_edge(u, v)
            assert not closure.has_edge(u, w)
            assert not closure.has_edge(v, w)
