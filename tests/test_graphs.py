import math

import pytest
from hypothesis import given, settings

from monotree import (
    Colour,
    ColouredGraph,
    GraphFormatError,
    SimpleGraph,
    colour_random,
    colour_three_stars,
    dumps,
    generate_gnp,
    loads,
)
from monotree.graphs import MAX_VERTICES

import support


def k6_minus_triangle() -> SimpleGraph:
    edges = [
        (u, v)
        for u in range(6)
        for v in range(u + 1, 6)
        if not (u < 3 and v < 3)
    ]
    return SimpleGraph.from_edges(6, edges)


class TestSimpleGraph:
    def test_complete_and_empty(self):
        k5 = SimpleGraph.complete(5)
        assert k5.edge_count() == 10
        assert all(k5.degree(v) == 4 for v in range(5))
        e4 = SimpleGraph.empty(4)
        assert e4.edge_count() == 0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(0, 3)])

    def test_common_neighbourhood_excludes_members(self):
        k4 = SimpleGraph.complete(4)
        mask = k4.common_neighbourhood([0, 1])
        assert mask == (1 << 2) | (1 << 3)


class TestGenerateGnp:
    def test_p_one_gives_complete_graph(self):
        g = generate_gnp(5, 1.0, seed=3)
        assert g.edge_count() == 10

    def test_p_zero_gives_empty_graph(self):
        g = generate_gnp(5, 0.0, seed=3)
        assert g.edge_count() == 0

    def test_deterministic_for_fixed_seed(self):
        a = generate_gnp(100, 0.5, seed=42)
        b = generate_gnp(100, 0.5, seed=42)
        assert a == b
        assert a != generate_gnp(100, 0.5, seed=43)

    def test_sparse_path_deterministic_and_valid(self):
        a = generate_gnp(200, 0.05, seed=9)
        b = generate_gnp(200, 0.05, seed=9)
        assert a == b
        for v in range(200):
            assert not (a.adj[v] >> v) & 1
        for u, v in a.edges():
            assert a.has_edge(v, u)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            generate_gnp(10, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_gnp(10, -0.1, seed=0)

    def test_sparse_density_sane(self):
        g = generate_gnp(400, 0.02, seed=17)
        mean = math.comb(400, 2) * 0.02
        sd = math.sqrt(mean * 0.98)
        assert abs(g.edge_count() - mean) < 6 * sd

    def test_dense_path_matches_reference_stream(self):
        # the sampler inlines the generator arithmetic; cross-check it
        # against a plain per-pair draw from the same stream
        from monotree.rng import SplitMix64

        n, p, seed = 23, 0.37, 99
        rng = SplitMix64(seed)
        threshold = int(p * 2**64)
        expected = set()
        for u in range(n - 1):
            for v in range(u + 1, n):
                if rng.next_u64() < threshold:
                    expected.add((u, v))
        assert set(generate_gnp(n, p, seed).edges()) == expected

    def test_edge_counts_binomially_concentrated(self):
        # 100 seeds at (n=1000, p=0.5): every count within 5 standard
        # deviations; a single excursion past 4 sd is only flagged.
        n, p = 1000, 0.5
        pairs = math.comb(n, 2)
        mean = pairs * p
        sd = math.sqrt(pairs * p * (1 - p))
        beyond5 = 0
        flagged = []
        for seed in range(100):
            m = generate_gnp(n, p, seed=seed).edge_count()
            z = abs(m - mean) / sd
            if z > 5:
                beyond5 += 1
            elif z > 4:
                flagged.append((seed, z))
        if flagged:
            print(f"note: {len(flagged)} edge counts between 4 and 5 sd: {flagged}")
        assert beyond5 <= 1  # more than 1% of seeds out of band is a failure


class TestColourRandom:
    def test_empty_graph(self):
        cg = colour_random(SimpleGraph.empty(3), seed=1)
        assert cg.edge_count() == 0

    def test_preserves_edge_set(self):
        g = generate_gnp(60, 0.4, seed=2)
        cg = colour_random(g, seed=5)
        assert cg.graph == g
        assert cg.edge_count() == g.edge_count()

    def test_deterministic(self):
        g = generate_gnp(40, 0.5, seed=8)
        assert colour_random(g, seed=3) == colour_random(g, seed=3)

    def test_roughly_uniform_colours(self):
        g = SimpleGraph.complete(60)
        cg = colour_random(g, seed=11)
        m = g.edge_count()
        counts = {c: 0 for c in Colour}
        for _, _, c in cg.edges():
            counts[c] += 1
        sd = math.sqrt(m * (1 / 3) * (2 / 3))
        for c in Colour:
            assert abs(counts[c] - m / 3) < 5 * sd


class TestColourThreeStars:
    def test_complete_graph_has_no_valid_triple(self):
        with pytest.raises(ValueError):
            colour_three_stars(SimpleGraph.complete(4), 0, 1, 2, Colour.RED)

    def test_duplicate_centres_rejected(self):
        with pytest.raises(ValueError):
            colour_three_stars(SimpleGraph.empty(4), 0, 0, 2, Colour.RED)

    def test_k6_minus_triangle_colours(self):
        cg = colour_three_stars(k6_minus_triangle(), 0, 1, 2, Colour.RED)
        for v in (3, 4, 5):
            assert cg.colour_of(0, v) == Colour.RED
            assert cg.colour_of(1, v) == Colour.GREEN
            assert cg.colour_of(2, v) == Colour.BLUE
        for u, v in ((3, 4), (3, 5), (4, 5)):
            assert cg.colour_of(u, v) == Colour.RED

    def test_stars_are_monochromatic_and_distinct(self):
        g = generate_gnp(30, 0.5, seed=21)
        from monotree import first_nonadjacent_triple

        triple = first_nonadjacent_triple(g)
        assert triple is not None
        cg = colour_three_stars(g, *triple, base=Colour.BLUE)
        seen = []
        for x in triple:
            colours = {cg.colour_of(x, v) for v in range(30) if g.has_edge(x, v)}
            assert len(colours) == 1
            seen.append(colours.pop())
        assert len(set(seen)) == 3

    def test_min_cover_of_star_construction_is_three(self):
        # Frozen from the bitmask-DP oracle over all component subsets.
        cg = colour_three_stars(k6_minus_triangle(), 0, 1, 2, Colour.RED)
        assert support.min_component_cover_size(cg) == 3


class TestSerialization:
    def test_round_trip_k6_example(self):
        cg = colour_three_stars(k6_minus_triangle(), 0, 1, 2, Colour.RED)
        assert loads(dumps(cg)) == cg

    def test_store_load_files(self, tmp_path):
        from monotree import load, store

        cg = colour_random(generate_gnp(12, 0.5, seed=1), seed=2)
        path = str(tmp_path / "g.txt")
        store(path, cg)
        assert load(path) == cg

    def test_comments_and_blank_lines_ignored(self):
        cg = loads("# a comment\n\nn 3\n# another\n0 1 r\n")
        assert cg.n == 3
        assert cg.colour_of(0, 1) == Colour.RED

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            loads("n 3\n0 0 r\n")

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(GraphFormatError, match="another colour"):
            loads("n 3\n0 1 r\n0 1 g\n")

    def test_consistent_duplicate_accepted(self):
        cg = loads("n 3\n0 1 r\n0 1 r\n")
        assert cg.edge_count() == 1

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            loads("n 3\n0 3 r\n")

    def test_wrong_order_rejected(self):
        with pytest.raises(GraphFormatError, match="u < v"):
            loads("n 3\n2 1 r\n")

    def test_bad_colour_rejected(self):
        with pytest.raises(GraphFormatError, match="colour"):
            loads("n 3\n0 1 x\n")

    def test_missing_header_rejected(self):
        with pytest.raises(GraphFormatError):
            loads("0 1 r\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: missing header 'n <count>'"),
            ("# only a comment\n\n", "line 1: missing header 'n <count>'"),
            ("0 1 r\n", "line 1: expected header 'n <count>'"),
            ("m 3\n", "line 1: expected header 'n <count>'"),
            ("n 3 4\n", "line 1: expected header 'n <count>'"),
            ("n x\n", "line 1: vertex count is not an integer"),
            ("n 2.5\n", "line 1: vertex count is not an integer"),
            ("n -1\n", "line 1: vertex count must be >= 0"),
            ("n 3\n0 1\n", "line 2: expected 'u v c'"),
            ("n 3\n0 1 r g\n", "line 2: expected 'u v c'"),
            ("n 3\n0 a r\n", "line 2: endpoints are not integers"),
            ("n 3\n0 1 x\n", "line 2: colour must be one of r, g, b"),
            ("n 3\n0 0 r\n", "line 2: self-loop 0 0"),
            ("n 3\n2 1 r\n", "line 2: need 0 <= u < v, got 2 1"),
            ("n 3\n-1 2 r\n", "line 2: need 0 <= u < v, got -1 2"),
            ("n 3\n0 3 r\n", "line 2: vertex 3 out of range for n=3"),
            ("n 3\n0 1 r\n0 1 g\n", "line 3: edge 0 1 already declared with another colour"),
            (
                "# c\nn 4\n\n0 1 r\n  # x\n1 2 g\n0 1 r\n0 1 b\n2 3 r\n",
                "line 8: edge 0 1 already declared with another colour",
            ),
            ("n 4\n0 1 r\n0 1 g\n0 9 r\n", "line 3: edge 0 1 already declared with another colour"),
            ("n 4\n0 1 r\n0 1 r\n0 9 r\n", "line 4: vertex 9 out of range for n=4"),
        ],
    )
    def test_error_messages_pinned(self, text, message):
        with pytest.raises(GraphFormatError) as info:
            loads(text)
        assert str(info.value) == message

    def test_vertex_count_limit(self):
        # At the limit the graph loads; one past it the header is refused
        # before any per-vertex row is allocated.
        cg = loads(f"n {MAX_VERTICES}\n0 {MAX_VERTICES - 1} g\n")
        assert cg.n == MAX_VERTICES == 65536
        assert cg.colour_of(0, MAX_VERTICES - 1) == Colour.GREEN
        with pytest.raises(GraphFormatError) as info:
            loads(f"# big\nn {MAX_VERTICES + 1}\n0 1 r\n")
        assert str(info.value) == "line 2: vertex count 65537 exceeds the limit of 65536"

    @settings(max_examples=60)
    @given(support.coloured_graphs(max_n=10))
    def test_round_trip_identity(self, cg):
        assert loads(dumps(cg)) == cg


class TestColouredGraphValidation:
    def test_two_colours_on_one_edge_rejected(self):
        with pytest.raises(ValueError):
            ColouredGraph.from_edge_colours(
                3, [(0, 1, Colour.RED), (1, 0, Colour.GREEN)]
            )

    def test_colour_of_non_edge_raises(self):
        cg = ColouredGraph.from_edge_colours(3, [(0, 1, Colour.RED)])
        with pytest.raises(ValueError):
            cg.colour_of(0, 2)
