import functools
import hashlib
import math
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from monotree.components import shortcut_graph
from monotree.graphs import BLOCK_CHARS, MAX_VERTICES, dump_rows
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
    return support.graph_from_edges(6, edges)


class TestSimpleGraph:
    def test_complete_and_empty(self):
        k5 = support.complete_graph(5)
        assert k5.edge_count() == 10
        assert all(k5.degree(v) == 4 for v in range(5))
        e4 = SimpleGraph.empty(4)
        assert e4.edge_count() == 0

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            support.graph_from_edges(3, [(1, 1)])
        with pytest.raises(ValueError, match="^self-loop at vertex 0$"):
            SimpleGraph(3, (0b001, 0, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            support.graph_from_edges(3, [(0, 3)])
        for row in (1 << 3, 1 << 40):
            with pytest.raises(ValueError, match="^adjacency row 0 has out-of-range bits$"):
                SimpleGraph(3, (row, 0, 0))
        for adj in ((0, 0), (0, 0, 0, 0)):
            with pytest.raises(ValueError, match="^adjacency length does not match vertex count$"):
                SimpleGraph(3, adj)

    def test_common_neighbourhood_excludes_members(self):
        k4 = support.complete_graph(4)
        mask = k4.common_neighbourhood([0, 1])
        assert mask == (1 << 2) | (1 << 3)


class TestGenerateGnp:
    def test_p_one_gives_complete_graph(self):
        g = generate_gnp(5, 1.0, seed=3)
        assert g.edge_count() == 10

    def test_p_zero_gives_empty_graph(self):
        g = generate_gnp(5, 0.0, seed=3)
        assert g.edge_count() == 0

    @pytest.mark.parametrize("p", [1e-17, 5e-324])
    def test_p_below_the_float_step_gives_empty_graph(self, p):
        # 1 - p rounds to 1, so log(1 - p) is 0 and no gap can be drawn
        assert generate_gnp(10, p, seed=1) == SimpleGraph.empty(10)

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
        for u, v in support.graph_edges(a):
            assert a.has_edge(v, u)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            generate_gnp(10, 1.5, seed=0)
        with pytest.raises(ValueError):
            generate_gnp(10, -0.1, seed=0)

    def test_rejects_vertex_count_over_the_limit(self):
        # The limit `loads` applies, checked before anything is drawn.
        message = f"^vertex count {MAX_VERTICES + 1} exceeds the limit of {MAX_VERTICES}$"
        with pytest.raises(ValueError, match=message):
            generate_gnp(MAX_VERTICES + 1, 1e-9, seed=0)

    def test_sparse_density_sane(self):
        g = generate_gnp(400, 0.02, seed=17)
        mean = math.comb(400, 2) * 0.02
        sd = math.sqrt(mean * 0.98)
        assert abs(g.edge_count() - mean) < 6 * sd

    def test_dense_path_matches_reference_stream(self):
        # generate_gnp draws the pairs in lane blocks; cross-check it
        # against a plain per-pair draw from the same stream.  n = 80 has
        # 3160 pairs: twelve 256-lane blocks and part of a thirteenth.
        n, seed = 80, 99
        for p in (0.1, 0.37, 1.0):
            rng = SplitMix64(seed)
            threshold = int(p * 2**64)
            expected = set()
            for u in range(n - 1):
                for v in range(u + 1, n):
                    if rng.next_u64() < threshold:
                        expected.add((u, v))
            assert set(support.graph_edges(generate_gnp(n, p, seed))) == expected, p

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
            (40, 0.3, 111, 100),  # 256 edges: mid-block, so the last comes from a second block
            (40, 0.3, 111, 255),  # on the last lane of the first block, and the same
            (30, 1.0, 0, 255),  # 435 edges: last lane of the first block
            (30, 1.0, 0, 300),  # mid-block in the second block
            (12, 0.5, 3, 30),  # 31 edges: the 32nd lane fills in
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
        for u, v in support.graph_edges(g):
            c = rng.randrange(3)
            rows[c][u] |= 1 << v
            rows[c][v] |= 1 << u
        assert colour_random(g, seed).colour_adj == tuple(tuple(r) for r in rows)

    def test_roughly_uniform_colours(self):
        g = support.complete_graph(60)
        cg = colour_random(g, seed=11)
        m = g.edge_count()
        counts = {c: 0 for c in Colour}
        for _, _, c in support.coloured_edges(cg):
            counts[c] += 1
        sd = math.sqrt(m * (1 / 3) * (2 / 3))
        for c in Colour:
            assert abs(counts[c] - m / 3) < 5 * sd


class TestColourThreeStars:
    def test_complete_graph_has_no_valid_triple(self):
        with pytest.raises(ValueError):
            colour_three_stars(support.complete_graph(4), 0, 1, 2, Colour.RED)

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


def test_sparse_sampling_memory_follows_the_edges():
    # 2,082 edges on 20,000 vertices: int rows take about 5.6 MB at the
    # peak on Python 3.11, where n byte rows of n/8 bytes took 57.6 MB
    tracemalloc.start()
    try:
        generate_gnp(20000, 1e-5, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


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

    def test_store_holds_one_row_at_a_time(self, tmp_path):
        # tracemalloc peaks of store on this 1.21 MB text, on Python 3.11:
        # 2,505,990 bytes when it wrote dumps(cg) whole, 84,729 bytes as it
        # streams dump_rows, whose largest chunk is 3,850 characters.  The
        # streamed peak holds the " v " name table (37.7 kB at n = 600), the
        # file's buffers, and one row built from a str per edge line.
        from monotree import store

        cg = criterion_instance(600, 1, "random", False)
        chunks = list(dump_rows(cg))
        text = dumps(cg)
        assert "".join(chunks) == text
        largest = max(map(len, chunks))
        path = tmp_path / "g.txt"
        tracemalloc.start()
        try:
            store(str(path), cg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_text(encoding="utf-8") == text
        assert 40 * largest < len(text) / 7
        assert peak <= 40 * largest

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
            support.from_edge_colours(
                3, [(0, 1, Colour.RED), (1, 0, Colour.GREEN)]
            )

    def test_colour_of_non_edge_raises(self):
        cg = support.from_edge_colours(3, [(0, 1, Colour.RED)])
        with pytest.raises(ValueError):
            cg.colour_of(0, 2)


@functools.lru_cache(maxsize=None)
def criterion_instance(n: int, seed: int, colouring: str, closure: bool) -> ColouredGraph:
    """G(n, p) at the criterion density p = 1.5 (ln n / n)^(1/6), coloured at
    random (seed + 1000) or by three green-based stars, or its closure."""
    g = generate_gnp(n, 1.5 * (math.log(n) / n) ** (1 / 6), seed)
    if colouring == "random":
        cg = colour_random(g, seed + 1000)
    else:
        cg = colour_three_stars(g, *first_nonadjacent_triple(g), base=Colour.GREEN)
    return shortcut_graph(cg) if closure else cg


def mangled(text: str) -> str:
    """The same graph in a noisier spelling: comments, blank and
    whitespace-only lines, tabs, padded lines, consistent duplicates and
    CRLF breaks."""
    lines = text.split("\n")[:-1]
    out = ["# a comment before the header", "", lines[0]]
    for i, line in enumerate(lines[1:], start=1):
        if i % 7 == 3:
            line = line.replace(" ", "\t")
        if i % 11 == 5:
            line = "  " + line + " \t"
        out.append(line)
        if i % 97 == 0:
            out.append(f"# comment {i}")
        if i % 89 == 0:
            out.append("" if i % 2 else " \t ")
        if i % 50 == 1:
            out.append(line)
    out += lines[1:400:13]
    return "\r\n".join(out) + "\r\n"


class TestGoldenText:
    """Pinned digests of `dumps` texts and of the rows `loads` reads back.

    The digests were computed with the per-edge writer and per-line reader
    (`support.reference_dumps`, `support.reference_loads`), before the
    row-wise writer and the block tokeniser replaced them.
    """

    # (n, seed, colouring, closure, edge count, digest of the text, digest
    # of the colour rows read back)
    TEXTS = [
        (300, 4, "random", False, 34607,
         "aebe158ea80e212e2bcae57fa9bdd71186f7a879c67d21883aabf4c46ece8d26",
         "50779a80671142983a3bb1708f35732017469dce6865e8a7afdf3564ca0e6724"),
        (300, 4, "random", True, 44850,
         "8a6df30143a7fd0fe28a41d480d57aed7e0d8547e3c4b231588490617e91854c",
         "822d5617dcd99c3e8bc934be130785d613a8d5ce19604b46269fefd8c8c4e4c6"),
        (300, 4, "three-star", False, 34607,
         "419403782e0a8078d29ebfe586b5be26116405ac439b5f125e7503b818f9428d",
         "6f46abebab86c3d84a7b8ea499e752183704f92008962d849e940713bf7da84b"),
        (300, 4, "three-star", True, 44704,
         "ad625ffade502e8a992c611249646f79d7efee4274f417f34a6656925293ac4b",
         "2fd0ba134412e854b877c1d689ed069765bb5ea2e535c89c4392b34321270c8c"),
        (1200, 5, "random", False, 458871,
         "e699508ab1c8080230e2602863ad0aa70351358f9cf1a5905835d7273053acff",
         "d3c4dc48a681dc079e06de45fef08c05908c4b3165569869906a028ab4d7984c"),
        (1200, 5, "random", True, 719400,
         "8eab5fecabaff84084499863f89b422a156ba34e19b6c4bce940052cf51ffaf1",
         "63277c8632c22b4b7642b39bdd6538ec6834a87f7812e3a6b20c453505cfc539"),
        (1200, 5, "three-star", False, 458871,
         "dc4cc3106f7c48bb87992403a41b8ad549ec7653ce72c4226498fb65f68063e6",
         "00f943f8e9bf4cd3c655c8f4776c252c0a7894ee164f0fd92606c7a53c5c14e7"),
        (1200, 5, "three-star", True, 718518,
         "d118f9b787666c2db1c9ed123a09570c684bcc4e4945f008f1f085f1b50b86ca",
         "069f7e9465beca70b44fc3c3de006cd1dac1729c3bb9e27097e83d8915a9dbaf"),
    ]

    @pytest.mark.parametrize("n, seed, colouring, closure, edges, text_digest, rows", TEXTS)
    def test_dumps_then_loads(self, n, seed, colouring, closure, edges, text_digest, rows):
        cg = criterion_instance(n, seed, colouring, closure)
        assert cg.edge_count() == edges
        text = dumps(cg)
        assert hashlib.sha256(text.encode()).hexdigest() == text_digest
        back = loads(text)
        assert rows_digest(*back.colour_adj) == rows
        assert back == cg

    def test_loads_of_a_mangled_text(self):
        # The random n = 300 instance, spelt by `mangled` in 1,470 more lines.
        text = mangled(dumps(criterion_instance(300, 4, "random", False)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "71ec073b446183de50d6644e568c9f7779cf86e7bb82197c678868c341ed1cf7"
        )
        assert rows_digest(*loads(text).colour_adj) == (
            "50779a80671142983a3bb1708f35732017469dce6865e8a7afdf3564ca0e6724"
        )


def _outcome(read, text: str):
    """What `read` makes of text: the graph, or the GraphFormatError text."""
    try:
        return read(text)
    except GraphFormatError as err:
        return f"error: {err}"


def _edit_tokens(edit):
    """A mutation that rewrites the tokens of an edge line and leaves
    any other line alone."""

    def mutate(lines, breaks, i, k):
        parts = lines[i].split()
        if len(parts) == 3 and parts[0] != "#":
            lines[i] = edit(parts, k)

    return mutate


def _insert(line_of):
    def mutate(lines, breaks, i, k):
        lines.insert(i, line_of(lines, k))
        breaks.insert(i, "\n")

    return mutate


def _break(lines, breaks, i, k):
    breaks[i] = ("\r\n", "\x0c", "\u2028", "\r", " ")[k % 5]


def _tabs(lines, breaks, i, k):
    lines[i] = lines[i].replace(" ", "\t")


def _arabic_indic(token):
    """token with its first decimal digit, which may follow a sign or an
    earlier mutation's prefix, spelt as the Arabic-Indic digit of the same
    value; a token with no digit is left alone."""
    for j, c in enumerate(token):
        if c.isdecimal():
            return f"{token[:j]}{chr(0x660 + int(c))}{token[j + 1:]}"
    return token


def _copy_of_earlier(lines, k, conflicting=False):
    parts = lines[1 + k % (len(lines) - 1)].split()
    if len(parts) == 3 and conflicting and parts[2] in "rgb":
        parts[2] = "rgb"[("rgb".index(parts[2]) + 1 + k % 2) % 3]
    return " ".join(parts)


# Every mutation a text may take, each at a drawn line i with a drawn k.
MUTATIONS = [
    _insert(lambda lines, k: f"# comment {k}"),
    _insert(lambda lines, k: "  #indented 0 1 r"),
    _insert(lambda lines, k: ""),
    _insert(lambda lines, k: " \t "),
    _break,
    _tabs,
    _edit_tokens(lambda t, k: f"+{t[0]} {t[1]} {t[2]}"),
    _edit_tokens(lambda t, k: f"0{t[0]} {t[1]} {t[2]}"),
    _edit_tokens(lambda t, k: f"{t[0]} {t[1][0]}_{t[1][1:]} {t[2]}" if len(t[1]) > 1 else f"{t[0]} 0_{t[1]} {t[2]}"),
    _edit_tokens(lambda t, k: f"{_arabic_indic(t[0])} {t[1]} {t[2]}"),
    _edit_tokens(lambda t, k: f"{t[0]}|{t[1]} {t[2]}"),
    _edit_tokens(lambda t, k: f"{t[0]} {t[1]}| {t[2]}"),
    _edit_tokens(lambda t, k: f"{t[0]} | {t[2]}"),
    _edit_tokens(lambda t, k: f"{t[0]} {t[1]} |"),
    _edit_tokens(lambda t, k: f"{t[0]} {t[1]}"),
    _edit_tokens(lambda t, k: f"{t[0]} {t[1]} {t[2]} r"),
    _edit_tokens(lambda t, k: f"{t[0]} {t[1]} {'rgbxR'[k % 5]}"),
    _edit_tokens(lambda t, k: f"{t[1]} {t[0]} {t[2]}"),
    _edit_tokens(lambda t, k: f"{t[0]} {t[0]} {t[2]}"),
    _edit_tokens(lambda t, k: f"{t[0]} {PARITY_N + k % 3} {t[2]}"),
    _edit_tokens(lambda t, k: f"-{t[0]} {t[1]} {t[2]}"),
    _insert(lambda lines, k: _copy_of_earlier(lines, k)),
    _insert(lambda lines, k: _copy_of_earlier(lines, k, conflicting=True)),
]

PARITY_N = 500


@functools.lru_cache(maxsize=None)
def parity_base() -> tuple[str, ...]:
    """The lines of a 12,306-edge text of 118 kB: two blocks of `loads`."""
    cg = colour_random(generate_gnp(PARITY_N, 0.1, seed=31), seed=32)
    return tuple(dumps(cg).split("\n")[:-1])


class TestReferenceParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(MUTATIONS) - 1),
                st.floats(0.0, 1.0, exclude_max=True),
                st.integers(0, 1000),
            ),
            max_size=6,
        ),
        st.none() | st.tuples(st.integers(0, 1), st.integers(0, 2)),
    )
    # a sign put before the token that the Arabic-Indic mutation rewrites
    @example(mutations=[(20, 0.5, 0), (9, 0.5, 0)], after_boundary=None)
    def test_same_graph_or_same_error(self, mutations, after_boundary):
        lines = list(parity_base())
        breaks = ["\n"] * len(lines)
        for kind, where, k in mutations:
            MUTATIONS[kind](lines, breaks, int(where * len(lines)), k)
        text = "".join(map(str.__add__, lines, breaks))
        if after_boundary is not None:
            # a faulty line first in the second block, or after the last
            boundary, fault = after_boundary
            cut = 0
            for _ in range(boundary + 1):
                cut = text.find("\n", cut + BLOCK_CHARS) + 1 or len(text)
            line = ("0 0 r", "1 2", _copy_of_earlier(lines, 0, conflicting=True))[fault]
            text = f"{text[:cut]}{line}\n{text[cut:]}"
        assert _outcome(loads, text) == _outcome(support.reference_loads, text)

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\x0c"])
    def test_header_past_the_first_block(self, brk):
        preamble = f"# padding{brk}" * (BLOCK_CHARS // 5)  # 13,107 lines
        for rest, message in [
            ("m 3\n", "line 13108: expected header 'n <count>'"),
            ("n 3\n0 1 r\n1 1 g\n", "line 13110: self-loop 1 1"),
        ]:
            text = preamble + rest
            assert _outcome(loads, text) == f"error: {message}"
            assert _outcome(support.reference_loads, text) == f"error: {message}"

    @settings(max_examples=60, deadline=None)
    @given(support.coloured_graphs(max_n=12))
    def test_same_text(self, cg):
        assert dumps(cg) == support.reference_dumps(cg)


# Comment lines that fill the header's block, so that what follows them
# is read as the second block of `loads`.
PAD_BLOCK = "# pad\n" * (BLOCK_CHARS // 6 + 1)


class TestVertexNames:
    """Each text's vertex names are read through one table that converts
    each distinct spelling once; every case is checked against the
    per-line reference reader, in the header's block and in a later one."""

    @pytest.mark.parametrize("pad", ["", PAD_BLOCK])
    def test_spellings_of_one_vertex(self, pad):
        text = f"n 12\n{pad}-0 5 r\n05 1_1 g\n+5 7 b\n0 05 r\n\u0665 6 g\n"
        cg = loads(text)
        assert cg == support.reference_loads(text)
        assert cg.edge_count() == 4
        assert cg.colour_of(0, 5) == Colour.RED
        assert cg.colour_of(5, 11) == Colour.GREEN
        assert cg.colour_of(5, 7) == Colour.BLUE
        assert cg.colour_of(5, 6) == Colour.GREEN

    @pytest.mark.parametrize("pad", ["", PAD_BLOCK])
    @pytest.mark.parametrize(
        "edges, lineno, message",
        [
            ("0 +3 r\n", 2, "vertex 3 out of range for n=3"),
            ("0 1 r\n-0 +1 g\n", 3, "edge 0 1 already declared with another colour"),
            ("1 2 g\n0 +1 r\n0_2 01 b\n", 4, "need 0 <= u < v, got 2 1"),
        ],
    )
    def test_errors_name_the_value(self, pad, edges, lineno, message):
        text = f"n 3\n{pad}{edges}"
        expected = f"error: line {lineno + pad.count('#')}: {message}"
        assert _outcome(loads, text) == _outcome(support.reference_loads, text) == expected

    @pytest.mark.parametrize("pad", ["", PAD_BLOCK])
    def test_table_is_not_shared_between_texts(self, pad):
        assert loads(f"n 10\n{pad}0 9 r\n").colour_of(0, 9) == Colour.RED
        with pytest.raises(GraphFormatError, match="vertex 9 out of range for n=5"):
            loads(f"n 5\n{pad}0 9 r\n")

    @pytest.mark.parametrize(
        "brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_breaks_past_the_first_block(self, brk):
        # A block holding a line break other than the line feed is split
        # into lines as `str.splitlines` splits it.
        for edges in (f"0 1{brk}r\n", f"0 1 r{brk}1 2 g\n", f"0 1 r\n1 2{brk}"):
            text = f"n 3\n{PAD_BLOCK}{edges}"
            assert _outcome(loads, text) == _outcome(support.reference_loads, text)

    def test_last_line_without_a_line_feed(self):
        for edges in ("0 1 r\n1 2 g", "0 1 r\n1 2", "0 1 r\n  "):
            text = f"n 3\n{PAD_BLOCK}{edges}"
            assert _outcome(loads, text) == _outcome(support.reference_loads, text)


def test_huge_sparse_inputs_stay_cheap():
    # Work per row over the full width n, or a transpose of all n columns,
    # costs n^2 steps: 4.3e9 on the first input and 4e8 on the second.
    # Each call takes at most about 0.1 s here.
    single = f"n {MAX_VERTICES}\n0 {MAX_VERTICES - 1} r\n"
    path = "n 20000\n" + "".join(f"{v} {v + 1} {'rgb'[v % 3]}\n" for v in range(19999))
    for text in (single, path):
        start = time.perf_counter()
        cg = loads(text)
        loaded = time.perf_counter()
        assert dumps(cg) == text
        dumped = time.perf_counter()
        assert loaded - start < 1.0
        assert dumped - loaded < 1.0
