import hashlib
import json
import math
import time

import pytest
from hypothesis import given, settings

from monotree import (
    Colour,
    ColouredGraph,
    Tree,
    alpha_class,
    build_component_hypergraph,
    colour_random,
    colour_three_stars,
    components_to_trees,
    dumps,
    egp_partition_search,
    first_nonadjacent_triple,
    generate_gnp,
    monochromatic_components,
    nu_exact,
    shortcut_graph,
    solve_cover,
    strategy_alpha2,
    strategy_alpha_ge3,
    tau_exact,
    verify_cover,
)
from monotree.graphs import COLOURS, iter_bits
from monotree.rng import SplitMix64
from monotree.solver import (
    BRANCH_ALPHA3,
    BRANCH_CASE1,
    BRANCH_CASE2,
    BRANCH_CASE3,
    BRANCH_EGP,
    BRANCH_FALLBACK,
    BRANCH_KONIG,
    BRANCHES,
    TreeCover,
    _cover_faults,
    _cover_holds,
)

import support

R, G, B = Colour.RED, Colour.GREEN, Colour.BLUE


def cg_from(n, items):
    return support.from_edge_colours(n, items)


def k6_star_instance() -> ColouredGraph:
    g = support.graph_from_edges(
        6,
        [(u, v) for u in range(6) for v in range(u + 1, 6) if not (u < 3 and v < 3)],
    )
    return colour_three_stars(g, 0, 1, 2, Colour.RED)


class TestSolveCover:
    def test_all_red_k5_single_tree(self):
        cg = cg_from(5, [(u, v, R) for u in range(5) for v in range(u + 1, 5)])
        cover, trace = solve_cover(cg)
        assert cover.size == 1
        assert cover.trees[0].colour == R
        assert trace.branch == BRANCH_EGP

    def test_two_coloured_k6_always_one_tree(self):
        # sampled here; the acceptance suite runs all 2^15 colourings
        pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        rng = SplitMix64(77)
        for _ in range(300):
            items = [(u, v, R if rng.randrange(2) else G) for u, v in pairs]
            cover, _ = solve_cover(cg_from(6, items))
            assert cover.size == 1

    def test_k6_star_instance_exactly_three(self):
        cg = k6_star_instance()
        cover, trace = solve_cover(cg)
        assert cover.size == 3
        assert trace.branch in (BRANCH_ALPHA3, BRANCH_FALLBACK)
        assert trace.exact_size == 3
        assert support.min_component_cover_size(cg) == 3

    def test_no_exact_search_beside_strategy_above_400_components(self):
        # Three-star colourings of G(300, 0.2) have 471 to 485 components:
        # alpha-ge3 covers them with three trees, and the exact search, which
        # runs beside a successful strategy only up to 400 components, does
        # not run, so the trace carries no exact size.
        for seed in range(3):
            g = generate_gnp(300, 0.2, seed=seed)
            cg = colour_three_stars(g, *first_nonadjacent_triple(g.adj), base=R)
            cover, trace = solve_cover(cg)
            assert (trace.branch, cover.size) == (BRANCH_ALPHA3, 3)
            assert 471 <= trace.component_count <= 485
            assert trace.exact_size is None
            assert "exact_size" not in trace.to_json()

    def test_empty_and_tiny_graphs(self):
        cover, trace = solve_cover(cg_from(0, []))
        assert cover.size == 0 and trace.branch == BRANCH_EGP
        cover, trace = solve_cover(cg_from(1, []))
        assert cover.size == 1
        cover, trace = solve_cover(cg_from(3, []))
        assert cover.size == 3 and trace.alpha == "three_plus"

    def test_trace_branch_is_declared(self):
        for items, n in [
            ([], 4),
            ([(0, 1, R), (2, 3, R)], 4),
            ([(0, 1, R)], 2),
        ]:
            _, trace = solve_cover(cg_from(n, items))
            assert trace.branch in BRANCHES

    def test_tree_count_matches_cover_refs(self):
        cg = k6_star_instance()
        cover, trace = solve_cover(cg)
        assert cover.size == len(trace.cover_refs)

    def test_deterministic_across_calls(self):
        cg = colour_random(generate_gnp(25, 0.35, seed=6), seed=16)
        cover_a, trace_a = solve_cover(cg)
        cover_b, trace_b = solve_cover(cg)
        assert trace_a.cover_refs == trace_b.cover_refs
        assert trace_a.branch == trace_b.branch
        assert [t.parent for t in cover_a.trees] == [t.parent for t in cover_b.trees]

    @settings(max_examples=60, deadline=None)
    @given(support.coloured_graphs(max_n=9))
    def test_sound_and_optimal_at_small_scale(self, cg):
        cover, trace = solve_cover(cg)
        assert verify_cover(cg, cover) == []
        assert cover.size == support.min_component_cover_size(cg)
        assert trace.exact_size == cover.size

    @settings(max_examples=60, deadline=None)
    @given(support.coloured_graphs(max_n=10))
    def test_alpha_invariants(self, cg):
        lab = monochromatic_components(cg)
        ac = alpha_class(lab)
        cover, trace = solve_cover(cg)
        if ac.kind == "one":
            assert cover.size <= 2
        if ac.kind == "two":
            h = build_component_hypergraph(lab)
            assert len(nu_exact(h)) <= 2


class TestStrategyAlphaGe3:
    def test_k6_star_neighbourhood_analysis(self):
        cg = k6_star_instance()
        lab = monochromatic_components(cg)
        refs, details = strategy_alpha_ge3(cg, lab, (0, 1, 2))
        assert details.x_size == 3
        assert details.colour_pattern == ("red", "green", "blue")
        assert refs is not None
        assert set(refs) == {(0, 0), (1, 1), (2, 2)}

    def test_no_common_neighbour_degenerates(self):
        # r, b, g pairwise non-adjacent with empty common neighbourhood
        cg = cg_from(5, [(0, 3, R), (1, 4, G)])
        lab = monochromatic_components(cg)
        ac = alpha_class(lab)
        assert ac.kind == "three_plus"
        refs, details = strategy_alpha_ge3(cg, lab, ac.witness)
        assert refs is None
        assert any("common neighbour" in note for note in details.notes)

    def test_three_isolated_vertices_degenerate(self):
        cg = cg_from(3, [])
        lab = monochromatic_components(cg)
        refs, details = strategy_alpha_ge3(cg, lab, (0, 1, 2))
        assert refs is None

    def test_adjacent_triple_rejected(self):
        cg = cg_from(3, [(0, 1, R)])
        lab = monochromatic_components(cg)
        with pytest.raises(ValueError):
            strategy_alpha_ge3(cg, lab, (0, 1, 2))

    def test_fallback_covers_degenerate_instance(self):
        cg = cg_from(5, [(0, 3, R), (1, 4, G)])
        cover, trace = solve_cover(cg)
        assert verify_cover(cg, cover) == []
        assert trace.branch == BRANCH_FALLBACK
        assert cover.size == support.min_component_cover_size(cg)


class TestStrategyAlpha2:
    def _run(self, cg):
        lab = monochromatic_components(cg)
        h = build_component_hypergraph(lab)
        return strategy_alpha2(lab, h), lab

    def test_single_vertex_konig_path(self):
        (refs, details), _ = self._run(cg_from(1, []))
        assert details.nu_link == 1
        assert details.branch == BRANCH_KONIG
        assert refs is not None and len(refs) == 1

    def test_single_green_component_hub(self):
        # all hyperedges share the one green component, so the link-graph
        # cover has size 1
        items = [(0, v, G) for v in range(1, 5)]
        (refs, details), lab = self._run(cg_from(5, items))
        assert details.nu_link == 1
        assert refs == ((1, 0),)

    def test_case1_two_plus_two(self):
        cg = cg_from(4, [(0, 1, R), (2, 3, R)])
        (refs, details), lab = self._run(cg)
        assert alpha_class(lab).kind == "two"
        assert details.case == 1
        assert details.j_witnesses == {"J1": 0, "J2": 1, "J3": 2, "J4": 3}
        assert refs is not None
        cover, trace = solve_cover(cg)
        assert trace.branch == BRANCH_CASE1
        assert cover.size == support.min_component_cover_size(cg) == 2

    def test_case2_three_plus_one(self):
        cg = cg_from(5, [(0, 1, R), (1, 2, R), (3, 4, R)])
        (refs, details), lab = self._run(cg)
        assert alpha_class(lab).kind == "two"
        assert details.case == 2
        assert details.nu_link == 5
        assert refs is not None
        cover, trace = solve_cover(cg)
        assert trace.branch == BRANCH_CASE2
        assert cover.size == support.min_component_cover_size(cg) == 2

    def test_case3_reroute_to_three_plus_one(self):
        cg = cg_from(5, [(0, 1, R), (1, 2, R), (2, 3, R), (0, 4, G)])
        (refs, details), lab = self._run(cg)
        assert alpha_class(lab).kind == "two"
        assert details.case == 3
        assert refs is not None
        assert any("re-routed" in note for note in details.notes)
        cover, trace = solve_cover(cg)
        assert trace.branch == BRANCH_CASE3
        assert cover.size == support.min_component_cover_size(cg) == 2

    def test_case3_shared_components_subcase(self):
        # the only hyperedge off the pivot red component re-meets a matched
        # green and a matched blue component, so no re-route applies
        cg = cg_from(
            5, [(0, 1, R), (1, 2, R), (2, 3, R), (3, 4, G), (2, 4, B)]
        )
        (refs, details), lab = self._run(cg)
        assert alpha_class(lab).kind == "two"
        assert details.case == 3
        assert "J5" in details.j_witnesses
        assert details.j_witnesses["J5"] == 4
        assert refs is not None
        cover, trace = solve_cover(cg)
        assert verify_cover(cg, cover) == []
        assert cover.size == support.min_component_cover_size(cg) == 2

    def test_case3_single_red_component_covers(self):
        # every vertex lies in the one red component; the link matching has
        # only three edges, so the konig route fires before any case split
        items = [(v, v + 1, R) for v in range(4)]
        items += [(0, 2, G), (1, 3, G), (0, 3, B), (1, 4, B)]
        cg = cg_from(5, items)
        (refs, details), lab = self._run(cg)
        assert (refs, details.to_json()) == (
            ((1, 0), (1, 1), (1, 4)),
            {
                "alpha": "", "branch": "konig", "component_count": 0, "cover": [],
                "matching": [[0, 2], [1, 0], [4, 1]], "notes": [], "nu_link": 3,
                "winning_candidate": [["green", 0], ["green", 1], ["green", 4]],
            },
        )
        if details.case == 3 and refs is not None:
            assert support.min_component_cover_size(cg) <= len(refs)

    def test_dense_random_instances_within_three(self):
        for seed in range(8):
            cg = colour_random(generate_gnp(40, 0.8, seed=seed), seed=seed + 50)
            lab = monochromatic_components(cg)
            h = build_component_hypergraph(lab)
            (refs, details) = strategy_alpha2(lab, h)
            assert refs is not None and len(refs) <= 3
            mask = 0
            for c, cid in refs:
                mask |= lab.members[c][cid]
            assert mask == support.adjacency(cg).full_mask
            tau_cover = tau_exact(h)
            assert tau_cover is not None and len(tau_cover) <= len(refs)


class TestEgpPartitionSearch:
    def test_all_red_k4(self):
        cg = cg_from(4, [(u, v, R) for u in range(4) for v in range(u + 1, 4)])
        refs = egp_partition_search(monochromatic_components(cg))
        assert refs == ((0, 0),)

    def test_red_matching_blue_rest(self):
        items = [(0, 1, R), (2, 3, R)]
        items += [(0, 2, B), (0, 3, B), (1, 2, B), (1, 3, B)]
        refs = egp_partition_search(monochromatic_components(cg_from(4, items)))
        assert refs == ((2, 0),)

    def test_sampled_colourings_of_k5(self):
        # the acceptance suite runs all 3^10 colourings; a sample here
        pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        rng = SplitMix64(31337)
        found = []
        for _ in range(500):
            items = [(u, v, Colour(rng.randrange(3))) for u, v in pairs]
            refs = egp_partition_search(monochromatic_components(cg_from(5, items)))
            assert 1 <= len(refs) <= 2
            found.append(refs)
        # 408 single components and 92 pairs, pinned by their JSON digest
        assert sum(len(refs) == 2 for refs in found) == 92
        assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == (
            "bacd46a5a463ba803f546773bad4fdf386bec189388dec69dbeae6b589bae55e"
        )

    def test_incomplete_input_raises(self):
        # three isolated vertices need three singleton components, so the
        # pair search must report the contract violation
        with pytest.raises(RuntimeError):
            egp_partition_search(monochromatic_components(cg_from(3, [])))


class TestComponentsToTrees:
    def test_single_red_component_tree(self):
        cg = cg_from(3, [(0, 1, R), (0, 2, R), (1, 2, R)])
        cover = components_to_trees([(0, 0)], monochromatic_components(cg))
        assert cover.size == 1
        tree = cover.trees[0]
        assert tree.root == 0
        assert len(tree.edge_list) == 2

    def test_missing_vertex_rejected(self):
        cg = cg_from(3, [(0, 1, R)])
        with pytest.raises(ValueError, match="cover"):
            components_to_trees([(0, 0)], monochromatic_components(cg))

    def test_overlapping_components_allowed(self):
        cg = cg_from(3, [(0, 1, R), (0, 2, G), (1, 2, B)])
        lab = monochromatic_components(cg)
        cover = components_to_trees([(0, 0), (1, 0), (2, 1)], lab)
        assert cover.size == 3
        assert verify_cover(cg, cover) == []

    def test_singleton_component_tree(self):
        cg = cg_from(2, [(0, 1, R)])
        cover = components_to_trees([(0, 0), (1, 0), (1, 1)], monochromatic_components(cg))
        assert {t.vertices for t in cover.trees} == {(0, 1), (0,), (1,)}


# the valid tree of TestVerifyCover.test_each_message_pinned's graph
MESSAGE_PATH = {0: None, 1: 0, 2: 1, 3: 2}


class TestVerifyCover:
    def test_valid_cover_passes(self):
        cg = cg_from(3, [(0, 1, R), (0, 2, R), (1, 2, R)])
        cover = components_to_trees([(0, 0)], monochromatic_components(cg))
        assert verify_cover(cg, cover) == []

    def test_overlapping_trees_allowed(self):
        cg = cg_from(3, [(0, 1, R), (0, 2, R), (1, 2, R)])
        from monotree.solver import TreeCover

        cover = TreeCover((Tree(R, 0, {0: None, 1: 0, 2: 0}), Tree(R, 2, {2: None})))
        assert verify_cover(cg, cover) == []

    def test_out_of_range_vertex_detected(self):
        cg = cg_from(3, [(0, 1, R), (0, 2, R), (1, 2, R)])
        from monotree.solver import TreeCover

        bad = TreeCover(
            (Tree(R, 0, {0: None, 1: 0, 2: 0}), Tree(R, 3, {3: None}))
        )
        issues = verify_cover(cg, bad)
        assert any("out of range" in i for i in issues)

    def test_wrong_colour_detected(self):
        cg = cg_from(3, [(0, 1, G), (0, 2, R), (1, 2, R)])
        from monotree.solver import TreeCover

        bad = TreeCover((Tree(R, 0, {0: None, 1: 0, 2: 0}),))
        issues = verify_cover(cg, bad)
        assert any("(0, 1)" in i for i in issues)

    def test_non_edge_detected(self):
        cg = cg_from(3, [(0, 2, R), (1, 2, R)])
        from monotree.solver import TreeCover

        bad = TreeCover((Tree(R, 0, {0: None, 1: 0, 2: 0}),))
        issues = verify_cover(cg, bad)
        assert any("missing edge" in i for i in issues)

    def test_uncovered_vertex_detected(self):
        cg = cg_from(3, [(0, 1, R)])
        from monotree.solver import TreeCover

        partial = TreeCover((Tree(R, 0, {0: None, 1: 0}),))
        issues = verify_cover(cg, partial)
        assert issues == ["uncovered vertex 2"]

    def test_cycle_detected(self):
        cg = cg_from(3, [(0, 1, R), (0, 2, R), (1, 2, R)])
        from monotree.solver import TreeCover

        bad = TreeCover((Tree(R, 0, {0: None, 1: 2, 2: 1}),))
        issues = verify_cover(cg, bad)
        assert any("cycle" in i for i in issues)

    @pytest.mark.parametrize(
        "trees, expected",
        [
            pytest.param(
                (Tree(R, 0, MESSAGE_PATH), Tree(R, 4, {4: None})),
                ["tree 1 (red, root 4): vertex 4 out of range"],
                id="out-of-range",
            ),
            pytest.param(
                (Tree(R, 0, MESSAGE_PATH), Tree(G, 3, {0: None})),
                ["tree 1 (green, root 3): root missing from vertex set"],
                id="root-missing",
            ),
            pytest.param(
                (Tree(R, 0, {0: 1, 1: None, 2: 1, 3: 2}),),
                [
                    "tree 0 (red, root 0): root has a parent",
                    "tree 0 (red, root 0): second root 1",
                ],
                id="root-has-parent",
            ),
            pytest.param(
                (Tree(R, 0, {0: None, 1: 0, 2: None, 3: 2}),),
                ["tree 0 (red, root 0): second root 2"],
                id="second-root",
            ),
            pytest.param(
                (Tree(R, 0, {0: None, 1: 0, 3: 2}), Tree(R, 2, {2: None})),
                ["tree 0 (red, root 0): parent 2 of 3 outside tree"],
                id="parent-outside",
            ),
            pytest.param(
                (Tree(R, 0, {0: None, 2: 0, 1: 2, 3: 2}),),
                ["tree 0 (red, root 0): missing edge (0, 2)"],
                id="missing-edge",
            ),
            pytest.param(
                (Tree(R, 0, {0: None, 1: 0, 2: 1, 3: 0}),),
                ["tree 0 (red, root 0): edge (0, 3) is green"],
                id="wrong-colour",
            ),
            pytest.param(
                (Tree(R, 0, {0: None, 1: 2, 2: 1, 3: 2}),),
                ["tree 0 (red, root 0): cycle through vertex 1"],
                id="cycle",
            ),
            pytest.param(
                (Tree(R, 0, {0: None, 1: 0, 2: 1}),),
                ["uncovered vertex 3"],
                id="uncovered",
            ),
            pytest.param(
                (Tree(R, 0, MESSAGE_PATH), Tree(-2, 0, {0: None, 3: 0})),
                ["tree 1 (-2, root 0): colour -2 is not red, green or blue"],
                id="not-a-colour",
            ),
            pytest.param(
                (Tree(R, 0, MESSAGE_PATH), Tree(R, 0, {0: None, 1.0: 0})),
                ["tree 1 (red, root 0): vertex 1.0 is not an int"],
                id="not-an-int",
            ),
            pytest.param(
                (Tree(R, 0, MESSAGE_PATH), Tree(R, 0, {0: None, 1: [0]})),
                ["tree 1 (red, root 0): parent [0] of 1 outside tree"],
                id="unhashable-parent",
            ),
            pytest.param(
                (Tree(R, 0, MESSAGE_PATH), Tree(R, [0], {0: None})),
                ["tree 1 (red, root [0]): root missing from vertex set"],
                id="unhashable-root",
            ),
        ],
    )
    def test_each_message_pinned(self, trees, expected):
        # a red path 0-1-2-3 closed by the green edge (0, 3)
        cg = cg_from(4, [(0, 1, R), (1, 2, R), (2, 3, R), (0, 3, G)])
        assert verify_cover(cg, TreeCover((Tree(R, 0, MESSAGE_PATH),))) == []
        assert verify_cover(cg, TreeCover(trees)) == expected

    def test_bitset_check_reads_no_row_out_of_range(self):
        cg = cg_from(4, [(0, 1, R), (1, 2, R), (2, 3, R), (0, 3, G)])
        bad = TreeCover((Tree(R, 0, MESSAGE_PATH), Tree(R, 4, {4: None, 0: 4})))
        assert not _cover_holds(cg, bad)
        assert verify_cover(cg, bad) == ["tree 1 (red, root 4): vertex 4 out of range"]

    def test_long_path_checks_in_linear_time(self):
        # A red path of 20,000 vertices rooted at one end, listed from the
        # far end first, so that the first parent's chain is the whole
        # path: each later chain stops at a vertex an earlier one reached,
        # so the check takes about 0.05 s on a 2-vCPU machine, where
        # walking every chain to the root would take some 2 * 10^8 steps.
        n = 20000
        cg = cg_from(n, [(v, v + 1, R) for v in range(n - 1)])
        for order in (range(n - 1, -1, -1), range(n)):
            cover = TreeCover((Tree(R, 0, {v: v - 1 if v else None for v in order}),))
            start = time.perf_counter()
            assert _cover_holds(cg, cover)
            assert verify_cover(cg, cover) == []
            assert time.perf_counter() - start < 2.0

    def test_bitset_check_takes_only_the_three_colours(self):
        # colour_adj[-2] is the green rows, where (0, 3) lies
        cg = cg_from(4, [(0, 1, R), (1, 2, R), (2, 3, R), (0, 3, G)])
        bad = TreeCover((Tree(R, 0, MESSAGE_PATH), Tree(-2, 0, {0: None, 3: 0})))
        assert not _cover_holds(cg, bad)

    @pytest.mark.parametrize(
        "n, p, seeds",
        [
            pytest.param(100, 0.03, range(30), id="sparse-100-0.03"),
            pytest.param(100, 0.05, range(30), id="sparse-100-0.05"),
            pytest.param(100, 0.08, range(30), id="sparse-100-0.08"),
            pytest.param(60, 0.1, range(30), id="sparse-60-0.1"),
            pytest.param(
                300, 1.5 * (math.log(300) / 300) ** (1 / 6), range(6), id="dense-300"
            ),
        ],
    )
    def test_stages_agree_on_corrupted_covers(self, n, p, seeds):
        """The bitset check accepts a corrupted cover exactly when the
        per-vertex scan finds nothing, and verify_cover words it as the
        scan does."""
        rejected = 0
        cycles = dict.fromkeys(CYCLES, 0)
        for seed in seeds:
            cg = colour_random(generate_gnp(n, p, seed), seed + 100)
            cover, _ = solve_cover(cg)
            assert _cover_holds(cg, cover) and _cover_faults(cg, cover) == []
            rng = SplitMix64(seed + 200)
            for kind in CORRUPTIONS:
                for _ in range(2):
                    bad = _corrupt(cg, cover, kind, rng)
                    if bad is None:
                        continue
                    faults = _cover_faults(cg, bad)
                    assert _cover_holds(cg, bad) == (faults == []), (kind, bad)
                    assert verify_cover(cg, bad) == faults
                    if kind in ALWAYS_INVALID:
                        assert faults, (kind, bad)
                    rejected += bool(faults)
            for kind in CYCLES:
                bad = _with_cycle(cover, kind, rng)
                if bad is None:
                    continue
                faults = _cover_faults(cg, bad)
                assert faults and not _cover_holds(cg, bad), (kind, bad)
                assert verify_cover(cg, bad) == faults
                cycles[kind] += 1
        assert rejected >= len(seeds) * 2 * len(ALWAYS_INVALID)
        # every cover has room for each cycle, but the dense covers' trees,
        # whose breadth-first walks end two levels below the root
        deep = 0 if n == 300 else len(seeds)
        assert cycles == {"self-parent": len(seeds), "root-two-cycle": len(seeds), "deep-cycle": deep}


CORRUPTIONS = (
    "drop-vertex",
    "drop-tree",
    "other-colour",
    "non-neighbour",
    "outside-tree",
    "in-tree",
    "recolour",
    "negative",
    "too-high",
    "two-cycle",
    "second-root",
    "key-minus-one",
    "key-n",
)
# "drop-vertex", "drop-tree", "in-tree" (a parent of the tree's colour
# inside the tree) and "recolour" (of a one-vertex tree) may leave the
# cover valid
ALWAYS_INVALID = frozenset(CORRUPTIONS) - {
    "drop-vertex", "drop-tree", "in-tree", "recolour"
}


def _pick(rng, items):
    items = list(items)
    return items[rng.randrange(len(items))] if items else None


def _corrupt(cg, cover, kind, rng):
    """`cover` with one corruption of the given kind, or None when the
    picked tree leaves no room for it."""
    trees = list(cover.trees)
    if kind == "drop-tree":
        del trees[rng.randrange(len(trees))]
        return TreeCover(tuple(trees))
    index = rng.randrange(len(trees))
    tree = trees[index]
    parent = dict(tree.parent)
    n, root = cg.n, tree.root
    if kind == "recolour":
        colour = COLOURS[(tree.colour + 1 + rng.randrange(2)) % 3]
        trees[index] = Tree(colour, root, parent)
        return TreeCover(tuple(trees))
    inside = sum(1 << v for v in parent)
    v = _pick(rng, (u for u in parent if u != root))
    if kind == "drop-vertex":
        del parent[_pick(rng, parent)]
    elif kind == "key-minus-one":
        parent[-1] = root
    elif kind == "key-n":
        parent[n] = root
    elif v is None:
        return None
    elif kind == "negative":
        parent[v] = -1 - rng.randrange(n)
    elif kind == "too-high":
        parent[v] = n + rng.randrange(n)
    elif kind == "two-cycle":
        parent[parent[v]] = v
    elif kind == "second-root":
        parent[v] = None
    else:
        row = cg.colour_adj[tree.colour][v]
        graph = support.adjacency(cg)
        mask = {
            "other-colour": graph.adj[v] & ~row,
            "non-neighbour": graph.full_mask & ~graph.adj[v] & ~(1 << v),
            "outside-tree": graph.full_mask & ~inside,
            "in-tree": row & inside,
        }[kind]
        u = _pick(rng, iter_bits(mask))
        if u is None:
            return None
        parent[v] = u
    trees[index] = Tree(tree.colour, root, parent)
    return TreeCover(tuple(trees))


# Cycles in one tree, whose root stays the one vertex without a parent.  In
# the last two every parent edge is an edge of the tree's colour, so only the
# chain walk of `_cover_holds` rejects them; a vertex that is its own parent
# also fails the row test, since no row holds its own bit.
CYCLES = ("self-parent", "root-two-cycle", "deep-cycle")


def _with_cycle(cover, kind, rng):
    """`cover` with one tree made cyclic: a vertex that is its own parent
    ("self-parent"), or a child at which its parent points back, along the
    tree edge they share, where that parent is a child of the root
    ("root-two-cycle") or lies deeper, below a valid subtree of at least
    two vertices ("deep-cycle").  None when no tree has room for it."""
    fits = {"self-parent": lambda depth: depth >= 1, "root-two-cycle": lambda depth: depth == 2,
            "deep-cycle": lambda depth: depth >= 3}[kind]
    places = []
    for index, tree in enumerate(cover.trees):
        for v in tree.parent:
            depth, u = 0, v
            while tree.parent[u] is not None:
                depth, u = depth + 1, tree.parent[u]
            if fits(depth):
                places.append((index, v))
    if not places:
        return None
    index, v = _pick(rng, places)
    tree = cover.trees[index]
    parent = dict(tree.parent)
    if kind == "self-parent":
        parent[v] = v
    else:
        parent[parent[v]] = v
    trees = list(cover.trees)
    trees[index] = Tree(tree.colour, tree.root, parent)
    return TreeCover(tuple(trees))


# solve_cover traces of the hand-built branch instances above, pinned
# literally so that a dropped note, witness or field shows up.
TRACE_PINS = [
    (
        # The empty strategy cover must not be read as "no cover": the exact
        # search then runs without a bound and finds the same empty cover.
        "egp-empty",
        lambda: cg_from(0, []),
        {
            "alpha": "one", "branch": "egp", "component_count": 0,
            "cover": [], "exact_size": 0, "notes": [], "strategy_size": 0,
        },
    ),
    (
        "egp",
        lambda: cg_from(
            4, [(0, 1, R), (2, 3, R), (0, 2, B), (0, 3, B), (1, 2, B), (1, 3, B)]
        ),
        {
            "alpha": "one", "branch": "egp", "component_count": 7,
            "cover": [["blue", 0]], "exact_size": 1, "notes": [], "strategy_size": 1,
        },
    ),
    (
        "alpha-ge3",
        k6_star_instance,
        {
            "alpha": "three_plus", "branch": "alpha-ge3",
            "colour_pattern": ["red", "green", "blue"], "component_count": 9,
            "cover": [["red", 0], ["green", 1], ["blue", 2]], "exact_size": 3,
            "notes": [], "strategy_size": 3, "triple": [0, 1, 2],
            "winning_candidate": [["red", 0], ["green", 1], ["blue", 2]],
            "x_size": 3,
        },
    ),
    (
        "fallback",
        lambda: cg_from(5, [(0, 3, R), (1, 4, G)]),
        {
            "alpha": "three_plus", "branch": "fallback", "component_count": 13,
            "cover": [["red", 0], ["red", 2], ["green", 1]], "exact_size": 3,
            "notes": [
                "triple has no common neighbour",
                "strategy degenerated; exact cover used",
            ],
            "triple": [0, 1, 2],
        },
    ),
    (
        "konig",
        lambda: cg_from(4, [(0, 1, R), (2, 3, G)]),
        {
            "alpha": "two", "branch": "konig", "component_count": 10,
            "cover": [["red", 0], ["green", 2]], "exact_size": 2,
            "matching": [[0, 0], [1, 1], [2, 2]],
            "notes": ["exact cover smaller than strategy candidate"],
            "nu_link": 3, "strategy_size": 3,
            "winning_candidate": [["green", 0], ["green", 1], ["green", 2]],
        },
    ),
    (
        "case1",
        lambda: cg_from(4, [(0, 1, R), (2, 3, R)]),
        {
            "alpha": "two", "branch": "case1", "case": 1, "component_count": 10,
            "cover": [["red", 0], ["red", 2]], "exact_size": 2,
            "j_witnesses": {"J1": 0, "J2": 1, "J3": 2, "J4": 3},
            "matching": [[0, 0], [1, 1], [2, 2], [3, 3]],
            "notes": ["exact cover smaller than strategy candidate"],
            "nu_link": 4, "strategy_size": 3,
            "winning_candidate": [["red", 0], ["red", 2], ["blue", 0]],
        },
    ),
    (
        "case2",
        lambda: cg_from(5, [(0, 1, R), (1, 2, R), (3, 4, R)]),
        {
            "alpha": "two", "branch": "case2", "case": 2, "component_count": 12,
            "cover": [["red", 0], ["red", 3]], "exact_size": 2,
            "j_witnesses": {"J1": 0, "J2": 1, "J3": 2, "J4": 3},
            "matching": [[0, 0], [1, 1], [2, 2], [3, 3], [4, 4]],
            "notes": [], "nu_link": 5, "strategy_size": 2,
            "winning_candidate": [["red", 0], ["red", 3]],
        },
    ),
    (
        "case3-reroute",
        lambda: cg_from(5, [(0, 1, R), (1, 2, R), (2, 3, R), (0, 4, G)]),
        {
            "alpha": "two", "branch": "case3", "case": 3, "component_count": 11,
            "cover": [["red", 0], ["red", 4]], "exact_size": 2,
            "j_witnesses": {"J1": 0, "J2": 1, "J3": 2, "J4": 3, "J4'": 4},
            "matching": [[0, 0], [1, 1], [2, 2], [3, 3]],
            "notes": ["4+0 case re-routed through a 3+1 analysis"],
            "nu_link": 4, "strategy_size": 2,
            "winning_candidate": [["red", 0], ["red", 4]],
        },
    ),
    (
        "case3-J5",
        lambda: cg_from(5, [(0, 1, R), (1, 2, R), (2, 3, R), (3, 4, G), (2, 4, B)]),
        {
            "alpha": "two", "branch": "case3", "case": 3, "component_count": 10,
            "cover": [["red", 0], ["green", 3]], "exact_size": 2,
            "j_witnesses": {"J1": 0, "J2": 1, "J3": 2, "J4": 3, "J5": 4},
            "matching": [[0, 0], [1, 1], [2, 2], [3, 3]],
            "notes": ["exact cover smaller than strategy candidate"],
            "nu_link": 4, "strategy_size": 3,
            "winning_candidate": [["red", 0], ["green", 0], ["blue", 2]],
        },
    ),
]


@pytest.mark.parametrize(
    "make, expected", [pin[1:] for pin in TRACE_PINS], ids=[pin[0] for pin in TRACE_PINS]
)
def test_trace_json_pinned(make, expected):
    cg = make()
    _, trace = solve_cover(cg)
    assert trace.to_json() == expected
    _check_against_reference(cg, trace)


def _check_against_reference(cg, trace):
    # The reported components cover, and the exact size is the reference
    # search's optimum.
    h = build_component_hypergraph(monochromatic_components(cg))
    assert support.is_cover(h, trace.cover_refs)
    if trace.exact_size is not None:
        assert trace.exact_size == len(support.reference_tau_exact(h))


def _gate_instances():
    # Seeded G(n, p) samples in both colourings (the three-star one wherever
    # the sample has an independent triple), plus one n = 300 sample at the
    # criterion-1 density.  Together they reach egp, alpha-ge3, konig,
    # case2, case3 and fallback.
    for n in (6, 8, 10, 12, 15, 22, 35):
        for p in (0.1, 0.2, 0.35, 0.5, 0.8):
            for seed in range(8):
                g = generate_gnp(n, p, seed=1000 * n + seed)
                yield colour_random(g, seed=seed + 7)
                triple = first_nonadjacent_triple(g.adj)
                if triple is not None:
                    yield colour_three_stars(g, *triple, base=Colour(seed % 3))
    n = 300
    g = generate_gnp(n, 1.5 * (math.log(n) / n) ** (1 / 6), seed=5)
    yield colour_random(g, seed=6)
    yield colour_three_stars(g, *first_nonadjacent_triple(g.adj), base=Colour.RED)


def test_closure_and_outputs_pinned():
    # The closure the solver classifies is the graph `monotree shortcut`
    # writes, and the solve traces, trees and coloured closures match a
    # pinned digest.
    digest = hashlib.sha256()
    for cg in _gate_instances():
        closure = shortcut_graph(cg)
        assert monochromatic_components(cg).closure() == support.adjacency(closure)
        cover, trace = solve_cover(cg)
        _check_against_reference(cg, trace)
        trees = [[support.letter(t.colour), t.root, sorted(t.parent.items())] for t in cover.trees]
        digest.update(json.dumps([trace.to_json(), trees], sort_keys=True).encode())
        digest.update(dumps(closure).encode())
    assert digest.hexdigest() == (
        "dafaebae0bbf46ed5cafbc8175af01372732919fecb2281ea8d22659a28c8628"
    )
