import hashlib
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monotree import (
    Colour,
    ComponentHypergraph,
    build_component_hypergraph,
    colour_random,
    colour_three_stars,
    generate_gnp,
    konig_cover,
    link_union,
    max_matching_bipartite,
    monochromatic_components,
    nu_exact,
    tau_exact,
)
from monotree.experiment import first_nonadjacent_triple
from monotree.hypergraph import _greedy_cover, _kernel, min_cover
from monotree.rng import SplitMix64, derive_seed

import support


def all_red_triangle_h() -> ComponentHypergraph:
    cg = support.from_edge_colours(
        3, [(0, 1, Colour.RED), (0, 2, Colour.RED), (1, 2, Colour.RED)]
    )
    return build_component_hypergraph(monochromatic_components(cg))


def k6_star_h() -> ComponentHypergraph:
    g = support.graph_from_edges(
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
            monochromatic_components(support.from_edge_colours(2, []))
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
        cover = tau_exact(h, k_max=3)
        assert cover is not None
        assert len(cover) == 1
        assert cover == ((0, 0),)
        assert support.naive_tau(h) == 1

    def test_k6_star_instance_needs_three(self):
        h = k6_star_h()
        cover = tau_exact(h, k_max=3)
        assert cover is not None and len(cover) == 3
        assert support.naive_tau(h) == 3

    def test_no_hyperedges_gives_empty_cover(self):
        h = ComponentHypergraph(((), (), ()), (), {})
        cover = tau_exact(h)
        assert cover is not None and len(cover) == 0

    def test_k_max_too_small_returns_none(self):
        assert tau_exact(k6_star_h(), k_max=2) is None
        with pytest.raises(ValueError, match="^k_max must be non-negative$"):
            tau_exact(k6_star_h(), k_max=-1)

    def test_disjoint_instance_closes_fast(self):
        # 40 isolated vertices: 40 disjoint hyperedges, minimum cover 40.
        cg = support.from_edge_colours(40, [])
        h = build_component_hypergraph(monochromatic_components(cg))
        cover = tau_exact(h)
        assert cover is not None and len(cover) == 40

    @settings(max_examples=50, deadline=None)
    @given(support.coloured_graphs(max_n=8))
    def test_agrees_with_subset_enumeration(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        cover = tau_exact(h)
        assert cover is not None
        assert support.is_cover(h, cover)
        assert len(cover) == support.naive_tau(h)


@st.composite
def seeded_coloured_graphs(draw):
    """A seeded G(n, p) sample, coloured at random or by three stars."""
    n = draw(st.integers(0, 30))
    p = draw(st.sampled_from((0.05, 0.1, 0.2, 0.35, 0.6)))
    seed = draw(st.integers(0, 2**32 - 1))
    g = generate_gnp(n, p, seed=seed)
    triple = first_nonadjacent_triple(g.adj)
    if draw(st.booleans()) and triple is not None:
        return colour_three_stars(g, *triple, base=Colour(seed % 3))
    return colour_random(g, seed=seed + 1)


# Edges of 1 to 3 distinct vertices, each inside one of two blocks of four,
# so that the kernel the reductions leave can fall into two disconnected
# pieces, which the single branch and bound must cover together.
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


def _large_sparse_instances():
    # Seeded sparse samples larger than those above: n = 150..400 at
    # p = 1.5/n and 3/n, 6 seeds per cell.  In 25 of the 36 a greedy cover
    # of the whole hypergraph is not optimal.
    for n in (150, 250, 400):
        for c in (1.5, 3.0):
            for seed in range(6):
                g = generate_gnp(n, c / n, seed=104729 * n + seed)
                yield n, c, seed, colour_random(g, seed=seed + 13)


class TestAgainstReferenceSearch:
    """The reduction-based `tau_exact` against the plain branch and bound
    it replaced (`support.reference_tau_exact`)."""

    @settings(max_examples=150, deadline=None)
    @given(seeded_coloured_graphs())
    def test_same_cover_for_every_k_max(self, cg):
        # One cover whatever k_max is, of the reference search's size, and
        # None for exactly the k_max for which the reference returns None.
        h = build_component_hypergraph(monochromatic_components(cg))
        cover = tau_exact(h)
        assert support.is_cover(h, cover)
        for k_max in (None, 0, 1, 2, 3):
            reference = support.reference_tau_exact(h, k_max)
            if reference is None:
                assert tau_exact(h, k_max) is None
            else:
                assert tau_exact(h, k_max) == cover
                assert len(cover) == len(reference)

    @settings(max_examples=300, deadline=None)
    @given(small_hypergraphs)
    def test_reductions_keep_the_cover_number(self, edges):
        cover = min_cover(edges)
        assert all(cover.intersection(e) for e in edges)
        assert len(cover) == support.naive_cover_number(edges)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=3,
                 unique=True).map(tuple),
        max_size=20,
    ))
    def test_greedy_cover_picks_as_the_rescan_does(self, edges):
        # Few components on many edges, so counts tie often and the least
        # component must win each tie, as the per-pick rescan decides it.
        assert _greedy_cover(edges) == support._greedy_cover(edges)

    def test_irreducible_kernel_splits_into_pieces(self):
        # Two triangles and a 5-cycle of pairs: no reduction fires, and the
        # kernel is three disconnected pieces needing 2, 2 and 3 components,
        # which one branch and bound over the whole kernel must add up.
        def cycle(colour, length):
            return [[(colour, i), (colour, (i + 1) % length)] for i in range(length)]

        edges = cycle(0, 3) + cycle(1, 3) + cycle(2, 5)
        forced, kernel = _kernel(edges)
        assert not forced and len(kernel) == len(edges) == 11
        assert len(min_cover(edges)) == support.naive_cover_number(edges) == 7

    def test_sparse_covers_pinned(self):
        # SHA-256 of the cover sizes of 320 seeded sparse instances but two,
        # generated with the reference search, which did not finish those
        # two within 5 s (one was still running after 8 minutes), and of the
        # canonical covers of all 320.
        unfinished = {(100, 0.02, 5), (100, 0.02, 7)}
        sizes, covers = hashlib.sha256(), hashlib.sha256()
        for n, p, seed, cg in _sparse_instances():
            h = build_component_hypergraph(monochromatic_components(cg))
            cover = tau_exact(h)
            assert support.is_cover(h, cover)
            if (n, p, seed) not in unfinished:
                sizes.update(json.dumps([n, p, seed, len(cover)]).encode())
            covers.update(json.dumps([n, p, seed, [list(r) for r in cover]]).encode())
        assert sizes.hexdigest() == (
            "603e1f14139da9485e615e8db3b9dbd9f297eff18eb421baa703c4a6a556b2d3"
        )
        assert covers.hexdigest() == (
            "b968cddc31eb6ff463cf2afd760bda11fa7e3462976a07140f7574fb38293dfa"
        )

    def test_large_sparse_covers_pinned(self):
        # SHA-256 of the cover sizes of 36 larger seeded sparse instances,
        # generated with the earlier `tau_exact`, which returned the covers
        # a plain depth-first search finds, and of the canonical covers.
        # The reference search finished only 5 of the 36 within 5 s, and
        # agreed on their sizes.
        sizes, covers = hashlib.sha256(), hashlib.sha256()
        for n, c, seed, cg in _large_sparse_instances():
            h = build_component_hypergraph(monochromatic_components(cg))
            cover = tau_exact(h)
            assert support.is_cover(h, cover)
            sizes.update(json.dumps([n, c, seed, len(cover)]).encode())
            covers.update(json.dumps([n, c, seed, [list(r) for r in cover]]).encode())
        assert sizes.hexdigest() == (
            "ef959aa586e8762dc5b452ce4231735554e59eae2e2fad4d280d8003faab1d6e"
        )
        assert covers.hexdigest() == (
            "8ca5f940b7089ab18abdda81f5f882a67f28b139fcf768119ec3b756dbb4d252"
        )


def _salted_refs(salt):
    class SaltedRef(tuple):
        """A component reference whose hash depends on `salt`, as tuple
        hashes differ between 32-bit and 64-bit builds."""

        def __hash__(self):
            return hash((salt, *self))

    return SaltedRef


def _canonical_instances():
    # Seeded sparse samples where the reductions have choices to make:
    # n = 60..200, p = 0.02..0.05, 8 seeds per cell, and two more samples of
    # (140, 0.02) whose covers change under some salts when `_kernel` drops
    # an edge's components in hash order, even with its queue in order.
    cells = [(n, p, seed) for n in (60, 100, 140, 200) for p in (0.02, 0.03, 0.04, 0.05)
             for seed in range(8)]
    for n, p, seed in cells + [(140, 0.02, 17), (140, 0.02, 94)]:
        g = generate_gnp(n, p, seed=1000 * n + seed)
        yield colour_random(g, seed=seed + 3)


class TestIntegerKeys:
    """`tau_exact` searches on the int keys colour * k + id and decodes its
    cover at the end; it returns the cover that `min_cover` leaves on the
    (colour, id) references, whatever k_max is."""

    @staticmethod
    def check(h):
        reference = tuple(sorted(min_cover(h.refs_of(e) for e in h.edges)))
        tau = len(reference)
        assert tau_exact(h) == reference
        assert tau_exact(h, tau) == reference
        if tau:
            assert tau_exact(h, tau - 1) is None

    @settings(max_examples=150, deadline=None)
    @given(seeded_coloured_graphs())
    def test_seeded_samples(self, cg):
        self.check(build_component_hypergraph(monochromatic_components(cg)))

    @settings(max_examples=150, deadline=None)
    @given(support.coloured_graphs(max_n=12))
    def test_coloured_graphs(self, cg):
        self.check(build_component_hypergraph(monochromatic_components(cg)))

    def test_parity_instances(self):
        for cg in support.parity_instances():
            self.check(build_component_hypergraph(monochromatic_components(cg)))


def test_cover_does_not_depend_on_hashes(monkeypatch):
    # `min_cover` returns the same cover whatever the hash of a component
    # reference is, since no work queue is drained in hash order, and
    # `tau_exact`, which searches on int keys, returns it sorted.
    refs_of = ComponentHypergraph.refs_of
    hypergraphs = [
        build_component_hypergraph(monochromatic_components(cg)) for cg in _canonical_instances()
    ]
    assert len(hypergraphs) == 130

    def covers():
        for h in hypergraphs:
            cover = tuple(sorted(min_cover(h.refs_of(e) for e in h.edges)))
            yield cover, tau_exact(h)

    expected = list(covers())
    for salt in range(4):
        ref = _salted_refs(salt)
        monkeypatch.setattr(
            ComponentHypergraph, "refs_of", lambda h, e: tuple(map(ref, refs_of(h, e)))
        )
        assert type(hypergraphs[0].refs_of(hypergraphs[0].edges[0])[0]) is ref
        assert list(covers()) == expected
    assert all(cover == tau for cover, tau in expected)


def _matching_instances():
    # Seeded samples at n = 6..60, p = 0.05..0.4, 8 seeds per cell, each
    # coloured at random and, where a non-adjacent triple exists, by three
    # stars.
    for n in (6, 12, 20, 30, 45, 60):
        for p in (0.05, 0.1, 0.2, 0.4):
            for seed in range(8):
                g = generate_gnp(n, p, seed=1009 * n + seed)
                yield n, p, seed, "random", colour_random(g, seed=seed + 5)
                triple = first_nonadjacent_triple(g.adj)
                if triple is not None:
                    cg = colour_three_stars(g, *triple, base=Colour(seed % 3))
                    yield n, p, seed, "three-star", cg


class TestNuExact:
    def test_common_vertex_forces_one(self):
        assert len(nu_exact(all_red_triangle_h())) == 1

    def test_two_disjoint_hyperedges(self):
        cg = support.from_edge_colours(2, [])
        h = build_component_hypergraph(monochromatic_components(cg))
        assert len(nu_exact(h)) == 2

    def test_empty(self):
        h = ComponentHypergraph(((), (), ()), (), {})
        assert len(nu_exact(h)) == 0

    @settings(max_examples=50, deadline=None)
    @given(support.coloured_graphs(max_n=8))
    def test_agrees_with_subset_enumeration(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        matching = nu_exact(h)
        used = set()
        for e in matching:
            refs = set(h.refs_of(e))
            assert not refs & used
            used |= refs
        assert len(matching) == support.naive_nu(h)

    def test_matchings_pinned(self):
        # SHA-256 of the matchings of 384 seeded instances but one, generated
        # with the disjoint-count bound alone, which took up to 46 s on the
        # sparsest of them and did not finish the one left out within 60 s.
        unfinished = (60, 0.05, 6, "random")
        digest = hashlib.sha256()
        count = 0
        for n, p, seed, mode, cg in _matching_instances():
            h = build_component_hypergraph(monochromatic_components(cg))
            matching = nu_exact(h)
            refs = [r for e in matching for r in h.refs_of(e)]
            assert len(refs) == len(set(refs))
            count += 1
            if (n, p, seed, mode) == unfinished:
                continue
            digest.update(json.dumps([n, p, seed, mode, [list(e) for e in matching]]).encode())
        assert count == 384
        assert digest.hexdigest() == (
            "d646b1d6cfd57b7c4094bb31a43e2c9b0ff16b5b35ffb209aec4aee6d9c44002"
        )

    @pytest.mark.parametrize(
        "n, p, seed, nu",
        [
            # 90 hyperedges, where the disjoint-count bound alone ran for
            # minutes; about 70 ms with both.
            (90, 0.03, 9, 27),
            # 1,500 hyperedges, most sharing no component, where one nested
            # call per left-out hyperedge raised RecursionError.
            (1500, 0.0002, 1, 1301),
        ],
        ids=["n90", "n1500"],
    )
    def test_sparse_matching_finishes(self, n, p, seed, nu):
        # the instance that `monotree gen --n <n> --p <p> --seed <seed>` writes
        cg = colour_random(generate_gnp(n, p, seed=seed), derive_seed(seed, 1))
        h = build_component_hypergraph(monochromatic_components(cg))
        start = time.perf_counter()
        assert len(nu_exact(h)) == nu
        assert time.perf_counter() - start < 3.0


class TestLinkUnion:
    def test_all_red_triangle(self):
        link = link_union(all_red_triangle_h())
        assert link.colours == (Colour.GREEN, Colour.BLUE)
        assert support.bipartite_edges(link) == [(0, 0), (1, 1), (2, 2)]
        assert all(link.origin[e] == (0,) for e in link.origin)

    def test_no_hyperedges(self):
        h = ComponentHypergraph(((), (), ()), (), {})
        assert support.bipartite_edges(link_union(h)) == []

    def test_shared_pair_deduplicates_with_merged_origin(self):
        h = ComponentHypergraph(
            ((0, 5), (1,), (2,)),
            ((0, 1, 2), (5, 1, 2)),
            {(0, 1, 2): 0, (5, 1, 2): 5},
        )
        link = link_union(h)
        assert support.bipartite_edges(link) == [(1, 2)]
        assert link.origin[(1, 2)] == (0, 5)

    def test_green_pivot(self):
        h = all_red_triangle_h()
        link = link_union(h, pivot=Colour.GREEN)
        # sides become (red, blue); the red component 0 meets every blue one
        assert link.colours == (Colour.RED, Colour.BLUE)
        assert support.bipartite_edges(link) == [(0, 0), (0, 1), (0, 2)]

    @settings(max_examples=100, deadline=None)
    @given(support.coloured_graphs(max_n=12))
    def test_origin_names_the_red_components_of_every_edge(self, cg):
        # strategy_alpha2 reads link.origin[e] for matching edges e, with no default
        h = build_component_hypergraph(monochromatic_components(cg))
        link = link_union(h)
        hyperedges = set(h.edges)
        assert set(link.origin) == set(support.bipartite_edges(link))
        for (a, b), reds in link.origin.items():
            assert reds and list(reds) == sorted(set(reds))
            assert all((r, a, b) in hyperedges for r in reds)


class TestBipartiteMatching:
    def test_four_cycle(self):
        bp = support.bipartite_from_edges([0, 1], [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert len(max_matching_bipartite(bp)) == 2

    def test_star(self):
        bp = support.bipartite_from_edges([0], [(0, 0), (0, 1), (0, 2)])
        assert len(max_matching_bipartite(bp)) == 1

    def test_path_of_three(self):
        bp = support.bipartite_from_edges([0, 1], [(0, 0), (1, 0)])
        assert len(max_matching_bipartite(bp)) == 1

    def test_deterministic(self):
        bp = support.bipartite_from_edges(
            range(5), [(a, b) for a in range(5) for b in range(5) if (a + b) % 2]
        )
        assert max_matching_bipartite(bp) == max_matching_bipartite(bp)


class TestKonigCover:
    def test_four_cycle(self):
        bp = support.bipartite_from_edges([0, 1], [(0, 0), (0, 1), (1, 0), (1, 1)])
        m = max_matching_bipartite(bp)
        cover = konig_cover(bp, m)
        assert len(cover) == 2

    def test_star_cover_is_centre(self):
        bp = support.bipartite_from_edges([0], [(0, 0), (0, 1), (0, 2)])
        cover = konig_cover(bp, max_matching_bipartite(bp))
        assert cover == ((1, 0),)

    def test_empty(self):
        bp = support.bipartite_from_edges([], [])
        cover = konig_cover(bp, ())
        assert len(cover) == 0

    def test_non_maximum_matching_rejected(self):
        bp = support.bipartite_from_edges([0, 1], [(0, 0), (1, 1)])
        with pytest.raises(RuntimeError):
            konig_cover(bp, ((0, 0),))

    @pytest.mark.parametrize(
        "pairs, m",
        [
            ([(0, 0), (1, 1)], ((5, 0),)),
            ([(0, 0), (1, 1)], ((0, 1),)),
            ([(0, 0), (1, 1)], ((0, 0), (1, 0))),
            ([(0, 0), (0, 1), (1, 0)], ((0, 0), (0, 1))),
        ],
        ids=["unknown-left", "non-edge", "shared-right", "shared-left"],
    )
    def test_non_matching_rejected(self, pairs, m):
        bp = support.bipartite_from_edges([0, 1], pairs)
        with pytest.raises(RuntimeError, match="not a matching"):
            konig_cover(bp, m)

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
            bp = support.bipartite_from_edges(range(nl), pairs)
            m = max_matching_bipartite(bp)
            cover = konig_cover(bp, m)
            assert len(cover) == len(m)
            chosen = set(cover)
            for a, b in support.bipartite_edges(bp):
                assert (1, a) in chosen or (2, b) in chosen


class TestMatchingToIndependentSet:
    def test_empty_matching(self):
        h = all_red_triangle_h()
        assert support.matching_to_independent_set(h, ()) == ()

    def test_single_edge(self):
        h = all_red_triangle_h()
        m = ((0, 0, 0),)
        assert support.matching_to_independent_set(h, m) == (0,)

    @settings(max_examples=50, deadline=None)
    @given(support.coloured_graphs(max_n=12))
    def test_witnesses_are_independent_in_closure(self, cg):
        lab = monochromatic_components(cg)
        h = build_component_hypergraph(lab)
        m = nu_exact(h)
        verts = support.matching_to_independent_set(h, m)
        closure = lab.closure()
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                assert not closure.has_edge(u, v)


class TestInequalities:
    @settings(max_examples=60, deadline=None)
    @given(support.coloured_graphs(max_n=9))
    def test_sandwich_and_tripartite_bounds(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        nu = len(nu_exact(h))
        cover = tau_exact(h)
        assert cover is not None
        tau = len(cover)
        assert nu <= tau <= 3 * nu or (nu == 0 and tau == 0)
        assert tau <= 2 * nu or nu == 0

    @settings(max_examples=40, deadline=None)
    @given(support.coloured_graphs(max_n=9))
    def test_cover_number_equals_component_cover_oracle(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        cover = tau_exact(h)
        assert cover is not None
        assert len(cover) == support.min_component_cover_size(cg)

    @settings(max_examples=40, deadline=None)
    @given(support.coloured_graphs(max_n=9))
    def test_hypergraph_tau_below_link_cover(self, cg):
        h = build_component_hypergraph(monochromatic_components(cg))
        tau_cover = tau_exact(h)
        assert tau_cover is not None
        link = link_union(h)
        link_cover = konig_cover(link, max_matching_bipartite(link))
        assert len(tau_cover) <= len(link_cover)

    def test_medium_random_instances(self):
        for seed in range(10):
            cg = colour_random(generate_gnp(11, 0.45, seed=seed), seed=seed + 100)
            h = build_component_hypergraph(monochromatic_components(cg))
            nu = len(nu_exact(h))
            cover = tau_exact(h)
            assert cover is not None
            assert nu <= len(cover) <= 2 * nu
