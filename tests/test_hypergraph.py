import hashlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotree import (
    BipartiteGraph,
    Colour,
    ColouredGraph,
    ComponentHypergraph,
    MatchingCertificate,
    SimpleGraph,
    build_component_hypergraph,
    colour_random,
    colour_three_stars,
    generate_gnp,
    konig_cover,
    link_union,
    matching_to_independent_set,
    max_matching_bipartite,
    monochromatic_components,
    nu_exact,
    tau_exact,
)
from monotree.experiment import first_nonadjacent_triple
from monotree.hypergraph import _kernel, _pieces, cover_number, is_cover
from monotree.rng import SplitMix64, derive_seed

import support


def all_red_triangle_h() -> ComponentHypergraph:
    cg = ColouredGraph.from_edge_colours(
        3, [(0, 1, Colour.RED), (0, 2, Colour.RED), (1, 2, Colour.RED)]
    )
    return build_component_hypergraph(monochromatic_components(cg))


def k6_star_h() -> ComponentHypergraph:
    g = SimpleGraph.from_edges(
        6,
        [(u, v) for u in range(6) for v in range(u + 1, 6) if not (u < 3 and v < 3)],
    )
    cg = colour_three_stars(g, 0, 1, 2, Colour.RED)
    return build_component_hypergraph(monochromatic_components(cg))


class TestBuild:
    def test_all_red_triangle(self):
        h = all_red_triangle_h()
        assert h.parts[Colour.RED] == (0,)
        assert h.parts[Colour.GREEN] == (0, 1, 2)
        assert h.parts[Colour.BLUE] == (0, 1, 2)
        assert h.edges == ((0, 0, 0), (0, 1, 1), (0, 2, 2))
        assert [h.witness[e] for e in h.edges] == [0, 1, 2]

    def test_two_isolated_vertices(self):
        h = build_component_hypergraph(
            monochromatic_components(ColouredGraph.from_edge_colours(2, []))
        )
        assert h.edges == ((0, 0, 0), (1, 1, 1))
        assert all(len(p) == 2 for p in h.parts)

    def test_k6_star_instance_matches_hand_enumeration(self):
        # Components found independently by BFS: one big component per
        # colour ({0,3,4,5} red, {1,3,4,5} green, {2,3,4,5} blue) plus
        # singletons, giving one rainbow triple for each of 0, 1, 2 and a
        # shared triple for 3, 4, 5.
        h = k6_star_h()
        assert h.edges == ((0, 0, 0), (0, 1, 2), (1, 1, 1), (2, 2, 2))
        assert h.witness[(0, 1, 2)] == 3

    @settings(max_examples=50)
    @given(support.coloured_graphs(max_n=12))
    def test_every_vertex_induces_a_covered_triple(self, cg):
        lab = monochromatic_components(cg)
        h = build_component_hypergraph(lab)
        for v in range(cg.n):
            t = lab.triple_of(v)
            assert t in h.witness
            assert h.witness[t] <= v


class TestTauExact:
    def test_all_red_triangle_cover_is_the_red_component(self):
        h = all_red_triangle_h()
        cert = tau_exact(h, k_max=3)
        assert cert is not None
        assert cert.size == 1
        assert cert.cover == ((0, 0),)
        assert support.naive_tau(h) == 1

    def test_k6_star_instance_needs_three(self):
        h = k6_star_h()
        cert = tau_exact(h, k_max=3)
        assert cert is not None and cert.size == 3
        assert support.naive_tau(h) == 3

    def test_no_hyperedges_gives_empty_cover(self):
        h = ComponentHypergraph(((), (), ()), (), {})
        cert = tau_exact(h)
        assert cert is not None and cert.size == 0

    def test_k_max_too_small_returns_none(self):
        assert tau_exact(k6_star_h(), k_max=2) is None

    def test_disjoint_instance_closes_fast(self):
        # 40 isolated vertices: 40 disjoint hyperedges, minimum cover 40.
        cg = ColouredGraph.from_edge_colours(40, [])
        h = build_component_hypergraph(monochromatic_components(cg))
        cert = tau_exact(h)
        assert cert is not None and cert.size == 40

    @settings(max_examples=50, deadline=None)
    @given(support.coloured_graphs(max_n=8))
    def test_agrees_with_subset_enumeration(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        cert = tau_exact(h)
        assert cert is not None
        assert is_cover(h, cert.cover)
        assert cert.size == support.naive_tau(h)


@st.composite
def seeded_coloured_graphs(draw):
    """A seeded G(n, p) sample, coloured at random or by three stars."""
    n = draw(st.integers(0, 30))
    p = draw(st.sampled_from((0.05, 0.1, 0.2, 0.35, 0.6)))
    seed = draw(st.integers(0, 2**32 - 1))
    g = generate_gnp(n, p, seed=seed)
    triple = first_nonadjacent_triple(g)
    if draw(st.booleans()) and triple is not None:
        return colour_three_stars(g, *triple, base=Colour(seed % 3))
    return colour_random(g, seed=seed + 1)


# Edges of 1 to 3 distinct vertices, each inside one of two blocks of four,
# so that a kernel the reductions leave can split into two pieces.
_BLOCKS = ([(0, i) for i in range(4)], [(1, i) for i in range(4)])
small_hypergraphs = st.lists(
    st.sampled_from(_BLOCKS).flatmap(
        lambda block: st.lists(st.sampled_from(block), min_size=1, max_size=3, unique=True)
    ),
    max_size=14,
)


def _sparse_instances():
    # Seeded sparse samples in the regime where the exact search does the
    # work: n = 20..100, p = 0.02..0.2, 16 seeds per cell.
    for n in (20, 35, 50, 70, 100):
        for p in (0.02, 0.05, 0.1, 0.2):
            for seed in range(16):
                g = generate_gnp(n, p, seed=7919 * n + seed)
                yield n, p, seed, colour_random(g, seed=seed + 11)


class TestAgainstReferenceSearch:
    """The reduction-based `tau_exact` against the plain branch and bound
    it replaced (`support.reference_tau_exact`)."""

    @settings(max_examples=150, deadline=None)
    @given(seeded_coloured_graphs())
    def test_same_cover_for_every_k_max(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        for k_max in (None, 0, 1, 2, 3):
            assert tau_exact(h, k_max) == support.reference_tau_exact(h, k_max)

    @settings(max_examples=300, deadline=None)
    @given(small_hypergraphs)
    def test_reductions_keep_the_cover_number(self, edges):
        assert cover_number(edges) == support.naive_cover_number(edges)

    def test_irreducible_kernel_splits_into_pieces(self):
        # Two triangles and a 5-cycle of pairs: no reduction fires, and the
        # three pieces need 2, 2 and 3 components.
        def cycle(colour, length):
            return [[(colour, i), (colour, (i + 1) % length)] for i in range(length)]

        edges = cycle(0, 3) + cycle(1, 3) + cycle(2, 5)
        forced, kernel = _kernel(edges)
        assert forced == 0 and len(kernel) == len(edges) == 11
        assert sorted(map(len, _pieces(kernel))) == [3, 3, 5]
        assert cover_number(edges) == support.naive_cover_number(edges) == 7

    def test_sparse_covers_pinned(self):
        # SHA-256 of the covers of 320 seeded sparse instances but two,
        # generated with the reference search, which did not finish those
        # two within 5 s (one was still running after 8 minutes).
        unfinished = {(100, 0.02, 5), (100, 0.02, 7)}
        digest = hashlib.sha256()
        for n, p, seed, cg in _sparse_instances():
            h = build_component_hypergraph(monochromatic_components(cg))
            cert = tau_exact(h)
            assert is_cover(h, cert.cover)
            if (n, p, seed) not in unfinished:
                digest.update(json.dumps([n, p, seed, [list(r) for r in cert.cover]]).encode())
        assert digest.hexdigest() == (
            "f194ca5702ec8ac096323a66f4c447fa1e544f9a8128d1b2779361dec4a2801f"
        )


def _matching_instances():
    # Seeded samples at n = 6..60, p = 0.05..0.4, 8 seeds per cell, each
    # coloured at random and, where a non-adjacent triple exists, by three
    # stars.
    for n in (6, 12, 20, 30, 45, 60):
        for p in (0.05, 0.1, 0.2, 0.4):
            for seed in range(8):
                g = generate_gnp(n, p, seed=1009 * n + seed)
                yield n, p, seed, "random", colour_random(g, seed=seed + 5)
                triple = first_nonadjacent_triple(g)
                if triple is not None:
                    cg = colour_three_stars(g, *triple, base=Colour(seed % 3))
                    yield n, p, seed, "three-star", cg


class TestNuExact:
    def test_common_vertex_forces_one(self):
        assert nu_exact(all_red_triangle_h()).size == 1

    def test_two_disjoint_hyperedges(self):
        cg = ColouredGraph.from_edge_colours(2, [])
        h = build_component_hypergraph(monochromatic_components(cg))
        assert nu_exact(h).size == 2

    def test_empty(self):
        h = ComponentHypergraph(((), (), ()), (), {})
        assert nu_exact(h).size == 0

    @settings(max_examples=50, deadline=None)
    @given(support.coloured_graphs(max_n=8))
    def test_agrees_with_subset_enumeration(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        cert = nu_exact(h)
        used = set()
        for e in cert.edges:
            refs = set(h.refs_of(e))
            assert not refs & used
            used |= refs
        assert cert.size == support.naive_nu(h)

    def test_matchings_pinned(self):
        # SHA-256 of the matchings of 384 seeded instances but one, generated
        # with the disjoint-count bound alone, which took up to 46 s on the
        # sparsest of them and did not finish the one left out within 60 s.
        unfinished = (60, 0.05, 6, "random")
        digest = hashlib.sha256()
        count = 0
        for n, p, seed, mode, cg in _matching_instances():
            h = build_component_hypergraph(monochromatic_components(cg))
            cert = nu_exact(h)
            refs = [r for e in cert.edges for r in h.refs_of(e)]
            assert len(refs) == len(set(refs))
            count += 1
            if (n, p, seed, mode) == unfinished:
                continue
            digest.update(json.dumps([n, p, seed, mode, [list(e) for e in cert.edges]]).encode())
        assert count == 384
        assert digest.hexdigest() == (
            "d646b1d6cfd57b7c4094bb31a43e2c9b0ff16b5b35ffb209aec4aee6d9c44002"
        )

    def test_sparse_matching_finishes(self):
        # `monotree gen --n 90 --p 0.03 --seed 9`: 90 hyperedges, where the
        # disjoint-count bound alone ran for minutes; about 70 ms with both.
        cg = colour_random(generate_gnp(90, 0.03, seed=9), derive_seed(9, 1))
        h = build_component_hypergraph(monochromatic_components(cg))
        start = time.perf_counter()
        assert nu_exact(h).size == 27
        assert time.perf_counter() - start < 3.0


class TestLinkUnion:
    def test_all_red_triangle(self):
        link = link_union(all_red_triangle_h())
        assert link.edges() == [(0, 0), (1, 1), (2, 2)]
        assert all(link.origin[e] == (0,) for e in link.origin)

    def test_no_hyperedges(self):
        h = ComponentHypergraph(((), (), ()), (), {})
        assert link_union(h).edges() == []

    def test_shared_pair_deduplicates_with_merged_origin(self):
        h = ComponentHypergraph(
            ((0, 5), (1,), (2,)),
            ((0, 1, 2), (5, 1, 2)),
            {(0, 1, 2): 0, (5, 1, 2): 5},
        )
        link = link_union(h)
        assert link.edges() == [(1, 2)]
        assert link.origin[(1, 2)] == (0, 5)

    def test_green_pivot(self):
        h = all_red_triangle_h()
        link = link_union(h, pivot=Colour.GREEN)
        # sides become (red, blue); the red component 0 meets every blue one
        assert link.edges() == [(0, 0), (0, 1), (0, 2)]


class TestBipartiteMatching:
    def test_four_cycle(self):
        bp = BipartiteGraph.from_edges([0, 1], [0, 1], [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert max_matching_bipartite(bp).size == 2

    def test_star(self):
        bp = BipartiteGraph.from_edges([0], [0, 1, 2], [(0, 0), (0, 1), (0, 2)])
        assert max_matching_bipartite(bp).size == 1

    def test_path_of_three(self):
        bp = BipartiteGraph.from_edges([0, 1], [0], [(0, 0), (1, 0)])
        assert max_matching_bipartite(bp).size == 1

    def test_deterministic(self):
        bp = BipartiteGraph.from_edges(
            range(5), range(5), [(a, b) for a in range(5) for b in range(5) if (a + b) % 2]
        )
        assert max_matching_bipartite(bp).edges == max_matching_bipartite(bp).edges


class TestKonigCover:
    def test_four_cycle(self):
        bp = BipartiteGraph.from_edges([0, 1], [0, 1], [(0, 0), (0, 1), (1, 0), (1, 1)])
        m = max_matching_bipartite(bp)
        cover = konig_cover(bp, m)
        assert cover.size == 2

    def test_star_cover_is_centre(self):
        bp = BipartiteGraph.from_edges([0], [0, 1, 2], [(0, 0), (0, 1), (0, 2)])
        cover = konig_cover(bp, max_matching_bipartite(bp))
        assert cover.cover == ((0, 0),)

    def test_empty(self):
        bp = BipartiteGraph.from_edges([], [], [])
        cover = konig_cover(bp, MatchingCertificate(()))
        assert cover.size == 0

    def test_non_maximum_matching_rejected(self):
        bp = BipartiteGraph.from_edges([0, 1], [0, 1], [(0, 0), (1, 1)])
        with pytest.raises(RuntimeError):
            konig_cover(bp, MatchingCertificate(((0, 0),)))

    def test_random_suite(self):
        rng = SplitMix64(2024)
        for trial in range(200):
            nl = 1 + rng.randrange(12)
            nr = 1 + rng.randrange(12)
            pairs = [
                (a, b)
                for a in range(nl)
                for b in range(nr)
                if rng.randrange(100) < 25
            ]
            bp = BipartiteGraph.from_edges(range(nl), range(nr), pairs)
            m = max_matching_bipartite(bp)
            cover = konig_cover(bp, m)
            assert cover.size == m.size
            chosen = set(cover.cover)
            for a, b in bp.edges():
                assert (0, a) in chosen or (1, b) in chosen


class TestMatchingToIndependentSet:
    def test_empty_matching(self):
        h = all_red_triangle_h()
        assert matching_to_independent_set(h, MatchingCertificate(())) == ()

    def test_single_edge(self):
        h = all_red_triangle_h()
        m = MatchingCertificate(((0, 0, 0),))
        assert matching_to_independent_set(h, m) == (0,)

    @settings(max_examples=50, deadline=None)
    @given(support.coloured_graphs(max_n=12))
    def test_witnesses_are_independent_in_closure(self, cg):
        lab = monochromatic_components(cg)
        h = build_component_hypergraph(lab)
        m = nu_exact(h)
        verts = matching_to_independent_set(h, m)
        closure = lab.closure()
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                assert not closure.has_edge(u, v)


class TestInequalities:
    @settings(max_examples=60, deadline=None)
    @given(support.coloured_graphs(max_n=9))
    def test_sandwich_and_tripartite_bounds(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        nu = nu_exact(h).size
        cert = tau_exact(h)
        assert cert is not None
        tau = cert.size
        assert nu <= tau <= 3 * nu or (nu == 0 and tau == 0)
        assert tau <= 2 * nu or nu == 0

    @settings(max_examples=40, deadline=None)
    @given(support.coloured_graphs(max_n=9))
    def test_cover_number_equals_component_cover_oracle(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        cert = tau_exact(h)
        assert cert is not None
        assert cert.size == support.min_component_cover_size(cg)

    @settings(max_examples=40, deadline=None)
    @given(support.coloured_graphs(max_n=9))
    def test_hypergraph_tau_below_link_cover(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        cert = tau_exact(h)
        assert cert is not None
        link = link_union(h)
        cover = konig_cover(link, max_matching_bipartite(link))
        assert cert.size <= cover.size

    def test_medium_random_instances(self):
        for seed in range(10):
            cg = colour_random(generate_gnp(11, 0.45, seed=seed), seed=seed + 100)
            h = build_component_hypergraph(monochromatic_components(cg))
            nu = nu_exact(h).size
            cert = tau_exact(h)
            assert cert is not None
            assert nu <= cert.size <= 2 * nu
