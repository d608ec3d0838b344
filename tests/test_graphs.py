import hashlib
import math
import tracemalloc

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
    first_nonadjacent_triple,
    generate_gnp,
    loads,
)
from monotree.graphs import MAX_VERTICES
from monotree.rng import GOLDEN, MASK64, SplitMix64

import support


def finalise64_inverse(z: int) -> int:
    """The state whose splitmix64 output is z: each xor-shift is undone by
    xoring in the repeated shifts, each multiply by the inverse mod 2^64."""

    def unshift(x: int, s: int) -> int:
        y, shifted = x, x >> s
        while shifted:
            y ^= shifted
            shifted >>= s
        return y

    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) & MASK64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK64
    return unshift(z, 30)


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
        # generate_gnp draws the pairs in lane blocks; cross-check it
        # against a plain per-pair draw from the same stream.  n = 80 has
        # 3160 pairs: twelve full 256-lane blocks and a 128-lane one.
        n, seed = 80, 99
        for p in (0.1, 0.37, 1.0):
            rng = SplitMix64(seed)
            threshold = int(p * 2**64)
            expected = set()
            for u in range(n - 1):
                for v in range(u + 1, n):
                    if rng.next_u64() < threshold:
                        expected.add((u, v))
            assert set(generate_gnp(n, p, seed).edges()) == expected, p

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

    @pytest.mark.parametrize(
        "n, p, graph_seed, index",
        [
            (40, 0.3, 111, 100),  # 256 edges: mid-block, then a one-lane block
            (40, 0.3, 111, 255),  # on the last lane of the only full block
            (30, 1.0, 0, 255),  # 435 edges: last lane of the first block
            (30, 1.0, 0, 300),  # mid-block in the second block
            (12, 0.5, 3, 30),  # 31 edges in a 32-lane block: the spare lane fills in
        ],
    )
    def test_rejected_draw_matches_reference_stream(self, n, p, graph_seed, index):
        # randrange(3) redraws only z = 2^64 - 1; pick the seed whose draw
        # number `index` is that value and compare with a per-edge loop
        g = generate_gnp(n, p, graph_seed)
        seed = (finalise64_inverse(MASK64) - (index + 1) * GOLDEN) & MASK64
        rng = SplitMix64(seed)
        draws = [rng.next_u64() for _ in range(index + 1)]
        assert draws[index] == MASK64 and MASK64 not in draws[:index]
        rng = SplitMix64(seed)
        rows = [[0] * n for _ in Colour]
        for u, v in g.edges():
            c = rng.randrange(3)
            rows[c][u] |= 1 << v
            rows[c][v] |= 1 << u
        assert colour_random(g, seed).colour_adj == tuple(tuple(r) for r in rows)

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


def rows_digest(*row_sets) -> str:
    """SHA-256 over bitset rows, one lower-case hex line per row."""
    h = hashlib.sha256()
    for rows in row_sets:
        for row in rows:
            h.update(b"%x\n" % row)
    return h.hexdigest()


class TestGoldenStreams:
    """Pinned digests of sampled graphs and colourings.

    The digests were computed with the per-pair and per-edge samplers,
    before the lane-block rewrite, so any change to what is sampled shows
    here.  Pair counts n(n-1)/2 and edge counts sit just below, on and just
    above a multiple of 256 lanes (and of 32, below one full block);
    n = 0, 1, 2, p = 1.0, the p = 0.1 boundary and the sparse path are
    covered too.
    """

    # (n, p, seed, edge count, digest of adj)
    GNP = [
        (0, 0.5, 1, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (1, 0.5, 1, 0, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        (2, 0.5, 1, 0, "52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262"),
        (2, 1.0, 1, 1, "451d660bc5f37a981539cf07c4c6a182693a7d165b4589ecb1165a72555ff90a"),
        (2, 0.05, 1, 0, "52f96c26a39ed25108a6db43d6e11c6051eba8a498a5baab1891adfa7ac7c262"),
        (40, 1.0, 3, 780, "1d651f94f74094528aca8864fcb0cd5429183b764e4cf30d87dab34d73300a29"),
        (60, 0.1, 11, 181, "a422a907731e8df373b6d059280fc5e55ecbdb6596c4a079b1bdb1fa56d406e9"),
        (91, 0.3, 5, 1237, "cc24a2a479a2fa52174ec3006d318d4f477c39f3995820c30cd7982df2920198"),
        (512, 0.5, 6, 65235, "ca0f37b0a9d863cae68f5b7bc52c3e3bc2616eb12925cde0b97ee0289cef6cf3"),
        (514, 0.5, 7, 66087, "59d5413a651d6427ea1358496f7e57be6d7f3c957ea4bb8526136b168a1f0cb9"),
        (200, 0.05, 9, 995, "0dfb554c27bca21ffbeb591e6dbec6ddaf7f49fa235e5642f9c56214837c7f29"),
        (400, 0.02, 17, 1682, "807f160ef7b5a23651580571c210dc506789e8d18f936222478031fc78ff051f"),
    ]

    # (n, p, graph seed, edge count, digest of the colour rows); the
    # colouring seed is the graph seed + 1000
    RANDOM = [
        (5, 0.0, 1, 0, "2eca9e2deb20e5610691b481ce142d2cb2fa17c2ab960663e0dd96a05a891f45"),
        (2, 1.0, 1, 1, "2b4016ec7427913d86733019248613465e36dcd7ccaf692185b0d5dac8a33f8d"),
        (12, 0.5, 3, 31, "aa573866c16832b40ba6ed29f27b9ff12414309f3161318150959f31cb2617a8"),
        (12, 0.5, 23, 32, "e2b3d475a1ac88d4801a2048cde7cc0f91296946a4cbfe03d13d072c3a81190d"),
        (12, 0.5, 24, 33, "6065b9d95f546e8299cebd2f9c3c408b2e9f4aafc744ce86febca9e0a2cb4a72"),
        (40, 0.3, 65, 255, "f38afbb654ca6ac5f45e6e8af355c999d86d75c25206f9526b6d7669ffc7f0c7"),
        (40, 0.3, 111, 256, "2101a16694756eee7e60b09ce29222874ba2912b721f33c807aff0093308ef19"),
        (40, 0.3, 122, 257, "733d8ecd872671207f47792e5c8fe13846e46e13bea9b91b4a54e4511763028c"),
        (100, 0.52, 8, 2559, "7c9ea4d041c9192cbe5b74df7163b97298156722ac1728be1c0864ba3e7da02b"),
        (100, 0.52, 152, 2560, "cdf231f360f1a3f731b9d82a12249cabec88a3795471968ca17c3ffcdeb83e0e"),
        (100, 0.52, 29, 2561, "9fca771420d2a8bcf1b3aa28987475a9c0185da4c13ff56ca2b45bfe884800e1"),
    ]

    # (n, p, graph seed, base colour, first non-adjacent triple, digest)
    THREE_STARS = [
        (30, 0.5, 21, Colour.BLUE, (0, 2, 3), "9d5acf24fbf73a1f60cb4bdaf61bc79e4de990d1568911de287ba8d8b5785698"),
        (100, 0.52, 8, Colour.RED, (0, 1, 4), "92ea964b7cb3cfbee3c3c3d8c0b0a6f759e9c7e32f7bc81ef4cb2ef84c7014c5"),
        (512, 0.5, 6, Colour.GREEN, (0, 1, 5), "47ab6080b2e2397a579589fd03c92de83c3c1ba1e116c6575fa3350c7176c06c"),
    ]

    @pytest.mark.parametrize("n, p, seed, edges, digest", GNP)
    def test_generate_gnp(self, n, p, seed, edges, digest):
        g = generate_gnp(n, p, seed)
        assert g.edge_count() == edges
        assert rows_digest(g.adj) == digest

    @pytest.mark.parametrize("n, p, seed, edges, digest", RANDOM)
    def test_colour_random(self, n, p, seed, edges, digest):
        g = generate_gnp(n, p, seed)
        assert g.edge_count() == edges
        assert rows_digest(*colour_random(g, seed + 1000).colour_adj) == digest

    @pytest.mark.parametrize("n, p, seed, base, triple, digest", THREE_STARS)
    def test_colour_three_stars(self, n, p, seed, base, triple, digest):
        g = generate_gnp(n, p, seed)
        assert first_nonadjacent_triple(g) == triple
        cg = colour_three_stars(g, *triple, base=base)
        assert rows_digest(*cg.colour_adj) == digest


def test_sampling_memory_stays_near_the_per_pair_samplers():
    # tracemalloc peaks of the per-pair and per-edge samplers that the lane
    # blocks replaced, on Python 3.11: 1.231 MB for generate_gnp(2000, 0.5,
    # seed=1), and 1.849 MB above the graph for colour_random(g, seed=2).
    # The mirror holds one band of columns at a time, so neither may grow
    # past 1.5 times that.
    tracemalloc.start()
    try:
        g = generate_gnp(2000, 0.5, seed=1)
        _, gnp_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        colour_random(g, seed=2)
        _, colour_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gnp_peak <= 1.5 * 1.231e6
    assert colour_peak - before <= 1.5 * 1.849e6


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
