import functools
import hashlib
import math
import os
import random
import tempfile
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
    load,
    loads,
)
from monotree import graphs
from monotree.components import shortcut_graph
from monotree.graphs import (
    BAND,
    BLOCK_CHARS,
    EDGE_DEGREE,
    EDGE_SLOPE,
    MAX_VERTICES,
    SPARSE_ROW,
    UPPER_LINES,
    UPPER_ROW_LINES,
    dump_rows,
)
from monotree.rng import GOLDEN, MASK64, SplitMix64

import support


def reference_colouring(g: SimpleGraph, seed: int) -> tuple[tuple[int, ...], ...]:
    """The colour rows of `colour_random(g, seed)` by its definition: one
    `randrange(3)` per edge, in (u, v) order."""
    rng = SplitMix64(seed)
    rows = [[0] * g.n for _ in Colour]
    for u, v in support.graph_edges(g):
        c = rng.randrange(3)
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    return tuple(tuple(r) for r in rows)


def assert_regimes_match_reference(g: SimpleGraph, seed: int) -> None:
    """`colour_random` and each of its two regimes give the reference's
    rows: the per-edge regime and the row regime alike, whichever of
    them the rule picks for g."""
    expected = reference_colouring(g, seed)
    assert colour_random(g, seed).colour_adj == expected
    for regime in (graphs._colour_edges, graphs._colour_rows):
        rows = regime(g, SplitMix64(seed).residues(g.edge_count()))
        assert tuple(map(tuple, rows)) == expected, regime.__name__


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
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            SimpleGraph(-1, ())

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
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            generate_gnp(-1, 0.5, seed=0)

    def test_sparse_density_sane(self):
        g = generate_gnp(400, 0.02, seed=17)
        mean = math.comb(400, 2) * 0.02
        sd = math.sqrt(mean * 0.98)
        assert abs(g.edge_count() - mean) < 6 * sd

    def test_dense_path_matches_reference_stream(self):
        # generate_gnp draws the pairs in lane blocks; cross-check it
        # against a plain per-pair draw from the same stream.  n = 80 has
        # 3160 pairs: one block of thirteen 256-lane sub-blocks.
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


def seeded_triangle(n: int, seed: int) -> list[int]:
    """A strict upper triangle of n rows, each bit v > u of row u set by a
    fair coin of `random.Random(seed)`."""
    rnd = random.Random(seed)
    return [rnd.getrandbits(n) >> (u + 1) << (u + 1) for u in range(n)]


class TestMirror:
    """`graphs._mirror`, the 8x8 block transpose, against the band
    transpose it replaced (`support.reference_mirror`)."""

    # A ragged last byte, and the edges of a lane (8 rows or columns), a
    # band (BAND columns) and a row block (_ROW_BLOCK rows)
    SIZES = [*range(41), 63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 1203, 2049]

    @pytest.mark.parametrize("n", SIZES)
    def test_matches_reference_on_seeded_triangles(self, n):
        rows = seeded_triangle(n, seed=n)
        assert graphs._mirror(list(rows)) == support.reference_mirror(rows)

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 129, 1025])
    def test_complete_triangle(self, n):
        full = (1 << n) - 1
        rows = [full >> (u + 1) << (u + 1) for u in range(n)]
        expected = [full ^ (1 << v) for v in range(n)]
        assert graphs._mirror(list(rows)) == support.reference_mirror(rows) == expected

    def test_each_single_bit(self):
        n = 20
        for u in range(n):
            for v in range(u + 1, n):
                rows = [0] * n
                rows[u] = 1 << v
                assert graphs._mirror(rows)[v] == 1 << u, (u, v)
                assert sum(map(int.bit_count, rows)) == 2

    @pytest.mark.parametrize("n", [17, 130, 1030])
    def test_single_bit_rows(self, n):
        # row u holds one bit above u, at a seeded place
        rnd = random.Random(n)
        rows = [1 << rnd.randrange(u + 1, n) for u in range(n - 1)] + [0]
        assert graphs._mirror(list(rows)) == support.reference_mirror(rows)

    def test_returns_the_list_it_was_given(self):
        rows = seeded_triangle(30, seed=1)
        assert graphs._mirror(rows) is rows
        empty: list[int] = []
        assert graphs._mirror(empty) is empty


class TestColourRandom:
    def test_empty_graph(self):
        cg = colour_random(SimpleGraph.empty(3), seed=1)
        assert cg.edge_count() == 0

    def test_preserves_edge_set(self):
        g = generate_gnp(60, 0.4, seed=2)
        cg = colour_random(g, seed=5)
        assert support.adjacency(cg) == g
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
            # 4,950 edges: a full 16-sub-block block of 4,096 draws, then
            # one of 4 sub-blocks for what is left
            (100, 1.0, 0, 4095),  # the last draw of the first block
            (100, 1.0, 0, 4096),  # the first draw of the second block
            (100, 1.0, 0, 1000),  # draw 16 * 62 + 8: lane 62 of sub-block 8
            (100, 1.0, 0, 4498),  # 4096 + 4 * 100 + 2: lane 100 of sub-block 2
        ],
    )
    def test_rejected_draw_matches_reference_stream(self, n, p, graph_seed, index):
        # randrange(3) redraws only z = 2^64 - 1; pick the seed whose draw
        # number `index` is that value and compare both regimes with a
        # per-edge loop
        g = generate_gnp(n, p, graph_seed)
        seed = (support.finalise64_inverse(MASK64) - (index + 1) * GOLDEN) & MASK64
        rng = SplitMix64(seed)
        draws = [rng.next_u64() for _ in range(index + 1)]
        assert draws[index] == MASK64 and MASK64 not in draws[:index]
        assert_regimes_match_reference(g, seed)

    @pytest.mark.parametrize(
        "g, regime",
        [
            (SimpleGraph.empty(0), "_colour_rows"),  # 2m = 0 = threshold
            (SimpleGraph.empty(1), "_colour_edges"),
            (generate_gnp(2, 1.0, seed=1), "_colour_edges"),
            (SimpleGraph.empty(50), "_colour_edges"),
            # 2m * BAND against n * (EDGE_DEGREE * BAND + EDGE_SLOPE * n)
            (support.complete_graph(33), "_colour_edges"),  # 135,168 < 137,346
            (support.complete_graph(34), "_colour_rows"),  # 143,616 >= 141,576: the first past it
            (generate_gnp(64, 0.524, seed=72), "_colour_edges"),  # 1,055 edges: threshold - 256
            (generate_gnp(64, 0.524, seed=53), "_colour_rows"),  # 1,056 edges: on the threshold
            (generate_gnp(64, 0.524, seed=67), "_colour_rows"),  # 1,057 edges: threshold + 256
            # two mid-density graphs that a mean degree of 32 sent to rows
            (generate_gnp(1200, 48 / 1199, seed=5), "_colour_edges"),
            (generate_gnp(2400, 64 / 2399, seed=5), "_colour_edges"),
            # mean degree 74.9, past the switch of 69.5 at n = 2400, which an
            # EDGE_SLOPE of 4 put at 107
            (generate_gnp(2400, 75 / 2399, seed=5), "_colour_rows"),
            # mean degree 40.66, past the break-even of about 30 to 35 at n = 100
            (generate_gnp(100, 40 / 99, seed=5), "_colour_rows"),
            # the cell sizes of perfbench's sparse-exact and dense-probe
            (generate_gnp(100, 0.03, seed=5), "_colour_edges"),
            (generate_gnp(100, 0.05, seed=5), "_colour_edges"),
            (generate_gnp(100, 0.08, seed=5), "_colour_edges"),
            (generate_gnp(60, 0.1, seed=5), "_colour_edges"),
            (generate_gnp(300, 1.5 * (math.log(300) / 300) ** (1 / 6), seed=5), "_colour_rows"),
            (generate_gnp(600, 1.5 * (math.log(600) / 600) ** (1 / 6), seed=5), "_colour_rows"),
            (generate_gnp(300, 0.8, seed=5), "_colour_rows"),
        ],
        ids=[
            "n0", "n1", "n2", "empty", "complete-below", "complete-on",
            "just-below", "on", "just-above", "mid-1200", "mid-2400", "rows-2400", "mid-100",
            "sparse", "exact-100-0.05", "exact-100-0.08", "exact-60-0.1",
            "probe-300", "probe-600", "dense",
        ],
    )
    def test_regimes_match_reference_across_the_switch(self, g, regime, monkeypatch):
        # the rule picks `regime`, and both regimes give the reference rows
        by_edges = 2 * g.edge_count() * BAND < g.n * (EDGE_DEGREE * BAND + EDGE_SLOPE * g.n)
        assert by_edges == (regime == "_colour_edges")
        for seed in (0, 7):
            assert_regimes_match_reference(g, seed)
        other = {"_colour_edges": "_colour_rows", "_colour_rows": "_colour_edges"}[regime]
        monkeypatch.setattr(graphs, other, None)
        assert colour_random(g, 7).colour_adj == reference_colouring(g, 7)

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
        with pytest.raises(ValueError, match="^star centre 4 out of range$"):
            colour_three_stars(SimpleGraph.empty(4), 0, 1, 4, Colour.RED)

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
        triple = first_nonadjacent_triple(g.adj)
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


def criterion_p(n: int) -> float:
    """The criterion density 1.5 (ln n / n)^(1/6)."""
    return 1.5 * (math.log(n) / n) ** (1 / 6)


def rows_digest(*row_sets) -> str:
    """SHA-256 over bitset rows, one lower-case hex line per row."""
    h = hashlib.sha256()
    for rows in row_sets:
        for row in rows:
            h.update(b"%x\n" % row)
    return h.hexdigest()


class TestGoldenStreams:
    """Pinned digests of sampled graphs and colourings.

    The first digests were computed with the per-pair and per-edge
    samplers, before the lane-block rewrite, and the block-edge cases
    before the 16-sub-block blocks, so any change to what is sampled shows
    here.  Pair counts n(n-1)/2 and edge counts sit just below, on and just
    above a multiple of 256 lanes (and of 32, below one full block) and of
    the 4,096 and 8,192 draws of one and two full blocks; n = 0, 1, 2,
    p = 1.0, the p = 0.1 boundary, the sparse path and the criterion
    density are covered too.
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
        # Block edges of the 16-sub-block lanes, digests from commit c94c11a.
        # Dense: row 77 of n = 92 ends on pair 4,095 (4,186 pairs); 8,128,
        # 8,256 pairs; row 33 of n = 138 ends on pair 4,097.  No row of any
        # n below 1,369 ends on pair 4,096, 8,191 or 8,192.
        (92, 0.5, 1, 2148, "d7c341bcebb97c675796cd587e1c52e44a52285095fd19dffbcd33e598826389"),
        (128, 0.5, 2, 4045, "a31ae5cadc1b1a23d05b97638c4f293f6e5c3dc2445302afdc33fd0a3601ca40"),
        (129, 0.5, 3, 4155, "7575a1b2618a6be8c9b7739115748086aa459eb43212b4dc17e7cd4dfa09549e"),
        (138, 0.3, 4, 2818, "d008c30d9c3c7fd11b63d3646c5eedc50b3ddb8dcc7c99d0db24e381f20c3a5f"),
        # Sparse: m edges take m + 1 draws, here 4,095, 4,096 and 4,097,
        # then 8,191, 8,192 and 8,193 (commit c94c11a)
        (400, 4096 / 79800, 469, 4094, "adb136bee3a2d6c6ec7eb3b27af995395c58896d844e4a832332a6df0a40e943"),
        (400, 4096 / 79800, 89, 4095, "ed5f95bc2711e850ad6a962b13f6ad7532f328d14d3f24c7aefabaeba8e5959f"),
        (400, 4096 / 79800, 66, 4096, "51b3b6853e487c6ea9d4028f6f3a8b2fe4a883ae478e785c4c758532c1340b84"),
        (600, 8192 / 179700, 23, 8190, "192e15d460874213e7c112a034349745485dd8cf4f180b730da90ca349b596e2"),
        (600, 8192 / 179700, 84, 8191, "af42e87a3dc579e1240a32b86e847d0c2a2fb89838c9030818ee4a5768ff7e97"),
        (600, 8192 / 179700, 214, 8192, "7fb69839fa5ba0cfcdb7a8abb9f9ef86f4c276f43c9fbbf77137d320cf149744"),
        # dense-probe's n = 300 and 600 and file-solve's n = 1200 at the
        # criterion density (commit c94c11a)
        (300, criterion_p(300), 4, 34607, "7a6416aad61356156d1b5986c8ce316775f024e7050cc524630a0aea5f74aa8b"),
        (600, criterion_p(600), 1, 126072, "10c874da8c5e915554e6427ff82290df783b20e3bd4b1d61574517d80c1ea4e9"),
        (1200, criterion_p(1200), 5, 458871, "5048e5c430453bad00bcbc2e9cea08608ffded55a60b0962cc5046ac34274c7a"),
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
        # Block edges of the 16-sub-block lanes, digests from commit c94c11a:
        # 4,095, 4,096 and 4,097 edges, then 8,191, 8,192 and 8,193, each
        # once coloured by rows (n = 100, 140) and once edge by edge (n =
        # 400, 600)
        (100, 4096 / 4950, 192, 4095, "ad676052a86654d8c1d81ecb04f32d8bf0432bc5bda3248a470b27c487b65b7f"),
        (100, 4096 / 4950, 26, 4096, "1f8b117b7c231c9def739425ea8070a5bfc4573bd050640742bef32b0dcfb722"),
        (100, 4096 / 4950, 39, 4097, "ec73ec9322cbe0eaf8a383c45a1fdea5cee3b0a16d95caa9162dc72fb2879159"),
        (400, 4096 / 79800, 89, 4095, "9c352a296892d17c52c8449b8fb3d338809f23f3032c4a8eebcade1aeab7f577"),
        (400, 4096 / 79800, 66, 4096, "cadc470b445a0149c6b5d929b3945d802a83b7e1d2cb2e0c639c4d6707b1a56c"),
        (400, 4096 / 79800, 237, 4097, "10c7bce01ef174d8a388e2eec26597d8c75cad837c030575aa3fb3d355a4dedc"),
        (140, 8192 / 9730, 8, 8191, "bbb0365b63909c30307eb6e1e76dd31d8fdfbf87ad88410dbf9cbc3fc5c0b6ef"),
        (140, 8192 / 9730, 351, 8192, "8f0888b33bb4687174d322e550c87215582f6c3a1dae3882df8687e48ccd60a8"),
        (140, 8192 / 9730, 33, 8193, "fbe1f64944b135160031b2de19f7169c9aa2d8a3184447324672934799fe191e"),
        (600, 8192 / 179700, 84, 8191, "2241b4acb8252a60dc757cbb11cbaea2b00937dffa22cc249f77564732b97410"),
        (600, 8192 / 179700, 214, 8192, "0537e3b1af8c8551a8c9c1f191286602591048bbba6655ca1d0c2d5c4d80f3f4"),
        (600, 8192 / 179700, 74, 8193, "7373eb493ed6cd1646fc52627dbb9cf47ab0f80e2c376c1c405a0f59d08fd5da"),
        # the criterion density at n = 300, 600 and 1200 (commit c94c11a)
        (300, criterion_p(300), 4, 34607, "50779a80671142983a3bb1708f35732017469dce6865e8a7afdf3564ca0e6724"),
        (600, criterion_p(600), 1, 126072, "c1885407fd568ded26c7bc31a060a0393baf3ce134507eeb06a0aea81337c471"),
        (1200, criterion_p(1200), 5, 458871, "d3c4dc48a681dc079e06de45fef08c05908c4b3165569869906a028ab4d7984c"),
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
        assert first_nonadjacent_triple(g.adj) == triple
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


def test_sparse_colouring_memory_follows_the_edges():
    # 2,082 edges on 20,000 vertices: colouring them edge by edge peaks
    # about 6.4 MB above the graph on Python 3.11, most of it the colour
    # rows it returns; the row regime's band transposes took 13.0 MB
    g = generate_gnp(20000, 1e-5, seed=1)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        colour_random(g, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.5 * 6.4e6


def test_sparse_loading_memory_follows_the_edges():
    # Reading the text of the same 2,082 edges on 20,000 vertices peaks
    # at 7.09 MB on Python 3.11, most of it the three colour rows it
    # returns; it peaked at 12.48 MB when the coloured graph also kept
    # their union as adjacency rows
    text = dumps(colour_random(generate_gnp(20000, 1e-5, seed=1), seed=2))
    tracemalloc.start()
    try:
        loads(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9e6


def test_mirror_memory_stays_below_the_band_transpose():
    # tracemalloc peaks of _mirror above a dense triangle at n = 4096, on
    # Python 3.11: 4.10 MB for the band transpose it replaced, 3.25 MB
    # with a byte matrix of _ROW_BLOCK rows at a time, about 4.7 MB with
    # one of all rows
    rows = seeded_triangle(4096, seed=4096)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        graphs._mirror(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 4.3e6


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
        # 2,505,990 bytes when it wrote dumps(cg) whole, and 152,269 bytes
        # as it streams dump_rows, whose largest chunk is 3,850 characters,
        # when every row with gaps selected its lines from the table of the
        # 3n lines " v c" (116.7 kB at n = 600).  dump_rows picks each row's
        # encoding by the row alone: this text's last four rows are
        # complete, so it also builds the templates of the table's red
        # lines (4.1 kB), and the peak is 152,341 bytes.  The streamed peak
        # holds the table, the file's buffers and one row's text.
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

    def test_store_of_complete_rows_holds_one_row_at_a_time(self, tmp_path):
        # tracemalloc peaks of store on this 1.73 MB closure, the complete
        # graph on 600 vertices, whose largest chunk is 5,212 characters,
        # on Python 3.11: 151,378 bytes when every row selected its lines
        # from the table, and 151,649 bytes with every row written from the
        # templates, which add 4.1 kB to the table's 116.7 kB.
        from monotree import store

        cg = criterion_instance(600, 1, "random", True)
        assert all(complete_rows(cg))
        chunks = list(dump_rows(cg))
        text = "".join(chunks)
        largest = max(map(len, chunks))
        del chunks
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

    def test_load_holds_one_block_at_a_time(self, criterion_file):
        # tracemalloc peaks of load on this 4.66 MB text, less the 0.92 MB
        # graph that it returns, on Python 3.11: 8.40 MB when it read the
        # text whole, its bytes and then its str, and 1.73 MB as it reads
        # blocks of BLOCK_CHARS bytes.  The streamed peak holds one block's
        # bytes, its str and its tokens, a str each, and the colour rows.
        cg = loads(criterion_file.read_text(encoding="utf-8"))
        tracemalloc.start()
        try:
            back = load(str(criterion_file))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back == cg
        assert peak - kept < 2.5e6

    @pytest.mark.parametrize(
        "offset, bad, fault, message",
        [
            (200_000, b"\xff", None, "byte 0xff in position 200000: invalid start byte"),
            (200_000, b"\xff", "0 0 r", "byte 0xff in position 200006: invalid start byte"),
            (None, b"\xe2\x82", "0 1", "bytes in position 4657886-4657887: unexpected end of data"),
        ],
    )
    def test_decode_error_names_its_offset_in_the_file(
        self, criterion_file, tmp_path, offset, bad, fault, message
    ):
        # bad bytes in place of those at offset, or after the last line,
        # and a faulty line first or none.  A block is decoded on its own,
        # so its error would give the offset in the block (3400 in the
        # first case).  load raises the error that a text-mode read of the
        # whole file raises, before any fault in the lines before it.
        data = criterion_file.read_bytes()
        if offset is None:
            offset = len(data)
        data = data[:offset] + bad + data[offset + len(bad) :]
        if fault is not None:
            data = data.replace(b"\n", f"\n{fault}\n".encode(), 1)
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as whole:
            path.read_text(encoding="utf-8")
        with pytest.raises(UnicodeDecodeError) as info:
            load(str(path))
        assert str(info.value) == str(whole.value) == f"'utf-8' codec can't decode {message}"

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
        assert _outcome(load_file, text) == f"error: {message}"

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
        with pytest.raises(ValueError, match="^vertex 0 has an edge with two colours$"):
            ColouredGraph(2, ((0b10, 0b01), (0b10, 0b01), (0, 0)))
        with pytest.raises(ValueError, match="^colour adjacency shape does not match graph$"):
            ColouredGraph(3, ((0, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError, match="^colour adjacency shape does not match graph$"):
            ColouredGraph(3, ((0, 0, 0), (0, 0, 0), (0, 0)))
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            ColouredGraph(3, ((0, 0, 0), (0, 0, 0), (0, 0b010, 0)))
        with pytest.raises(ValueError, match="^adjacency row 2 has out-of-range bits$"):
            ColouredGraph(3, ((0, 0, 0b1000), (0, 0, 0), (0, 0, 0)))
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            ColouredGraph(-1, ((), (), ()))

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
        cg = colour_three_stars(g, *first_nonadjacent_triple(g.adj), base=Colour.GREEN)
    return shortcut_graph(cg) if closure else cg


@pytest.fixture(scope="module")
def criterion_file(tmp_path_factory):
    """The random n = 1200 instance of `TestGoldenText`, stored: 4.66 MB."""
    path = tmp_path_factory.mktemp("criterion") / "g.txt"
    graphs.store(str(path), criterion_instance(1200, 5, "random", False))
    return path


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


def load_file(text: str) -> ColouredGraph:
    """`load` of a file that holds text in UTF-8, its line breaks as they are."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "wb") as f:
            f.write(text.encode())
        return load(path)


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


@functools.lru_cache(maxsize=None)
def many_blocks() -> tuple[str, ...]:
    """The lines of a 37,504-edge text of 358 kB: six blocks of `load`."""
    cg = colour_random(generate_gnp(PARITY_N, 0.3, seed=31), seed=32)
    return tuple(dumps(cg).split("\n")[:-1])


def _line_at(text: str, offset: int, line: str, brk: str) -> str:
    """ASCII text with a comment line and then line inserted, the comment
    as long as it takes for line to start at offset."""
    start = text.rfind(brk, 0, offset - 2 * len(brk) - 1) + len(brk)
    comment = "#" * (offset - start - len(brk))
    return f"{text[:start]}{comment}{brk}{line}{text[start:]}"


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
        expected = _outcome(support.reference_loads, text)
        assert _outcome(loads, text) == _outcome(load_file, text) == expected

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\x0c"])
    def test_header_past_the_first_block(self, brk):
        preamble = f"# padding{brk}" * (BLOCK_CHARS // 5)  # 13,107 lines
        for rest, message in [
            ("m 3\n", "line 13108: expected header 'n <count>'"),
            ("n 3\n0 1 r\n1 1 g\n", "line 13110: self-loop 1 1"),
        ]:
            text = preamble + rest
            assert _outcome(loads, text) == f"error: {message}"
            assert _outcome(load_file, text) == f"error: {message}"
            assert _outcome(support.reference_loads, text) == f"error: {message}"

    @pytest.mark.parametrize("end", [BLOCK_CHARS, BLOCK_CHARS + 1], ids=["last", "first"])
    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\r\r\n"])
    @pytest.mark.parametrize(
        "fault",
        [
            None,
            lambda u, v, c: f"{u} {v} {'rgb'['rgb'.index(c) - 1]}",
            lambda u, v, c: f"{v} {u} {c}",
            lambda u, v, c: f"{u} {v}",
        ],
        ids=["none", "two-colours", "reversed", "malformed"],
    )
    def test_file_of_many_blocks(self, brk, fault, end):
        # `load` reads BLOCK_CHARS bytes at a time.  A line break ends at
        # the last byte of the first read, an edge line starting the
        # second, or at the first byte of the second read; so a lone CR
        # is carried into the next read, or a CR LF pair is split between
        # them.  Edge line 40 is listed again, or a malformed line put,
        # across the fourth read's end, in the fifth of six blocks.
        # "\r\r\n", a CRLF break converted twice, is a lone CR and then a
        # CR LF pair: a blank line after each line.
        lines = many_blocks()
        text = _line_at(brk.join([*lines, ""]), end, "", brk)
        assert text[end] in "0123456789"
        if fault is not None:
            line, at = fault(*lines[40].split()) + brk, 4 * BLOCK_CHARS - 3
            text = _line_at(text, at, line, brk)
            assert text.find(line, at) == at
        assert len(text) > 5 * BLOCK_CHARS
        outcome = _outcome(support.reference_loads, text)
        assert _outcome(loads, text) == _outcome(load_file, text) == outcome
        assert isinstance(outcome, ColouredGraph) == (fault is None)

    def test_pipe_is_read_whole(self):
        # A source that cannot seek is copied into memory whole and then
        # read, and names its faults, as a seekable file is.
        for text in ("n 3\r\n0 1 r\r\n# c\r1 2 g\n", "n 3\r\n0 1 r\r\n# c\r1 1 g\n"):
            read, write = os.pipe()
            with os.fdopen(write, "wb") as f:
                f.write(text.encode())
            try:
                from_pipe = _outcome(load, f"/dev/fd/{read}")
            finally:
                os.close(read)
            assert from_pipe == _outcome(load_file, text) == _outcome(support.reference_loads, text)
        assert from_pipe == "error: line 4: self-loop 1 1"

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
        assert _outcome(load_file, text) == expected

    @pytest.mark.parametrize("pad", ["", PAD_BLOCK])
    def test_table_is_not_shared_between_texts(self, pad):
        assert loads(f"n 10\n{pad}0 9 r\n").colour_of(0, 9) == Colour.RED
        with pytest.raises(GraphFormatError, match="vertex 9 out of range for n=5"):
            loads(f"n 5\n{pad}0 9 r\n")

    @pytest.mark.parametrize(
        "brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_breaks_past_the_first_block(self, brk):
        # Every line break of `str.splitlines` ends a line, and a CR
        # followed by another break is two breaks.
        for edges in (
            f"0 1{brk}r\n",
            f"0 1 r{brk}1 2 g\n",
            f"0 1 r\n1 2{brk}",
            f"0 1 r\r{brk}1 2 g\n",
            f"0 1 r\r{brk}bad\n",
        ):
            text = f"n 3\n{PAD_BLOCK}{edges}"
            expected = _outcome(support.reference_loads, text)
            assert _outcome(loads, text) == _outcome(load_file, text) == expected

    def test_last_line_without_a_line_feed(self):
        for edges in ("0 1 r\n1 2 g", "0 1 r\n1 2", "0 1 r\n  "):
            text = f"n 3\n{PAD_BLOCK}{edges}"
            expected = _outcome(support.reference_loads, text)
            assert _outcome(loads, text) == _outcome(load_file, text) == expected


class TestReaderRegimes:
    """`loads` mirrors its colour rows once in a text of at least
    UPPER_LINES * n^2 / BAND + UPPER_ROW_LINES * n line breaks, and sets
    both bits of each edge in any other; either way it reads what the
    per-line reference reads, and names the same faulty line."""

    N = 64
    THRESHOLD = N * (UPPER_LINES * N + UPPER_ROW_LINES * BAND) // BAND  # 1,056 line feeds

    @staticmethod
    def mirror_calls(monkeypatch) -> list[int]:
        """The length of each rows list that `loads` hands to `_mirror`."""
        calls = []
        mirror = graphs._mirror

        def spy(rows):
            calls.append(len(rows))
            return mirror(rows)

        monkeypatch.setattr(graphs, "_mirror", spy)
        return calls

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\r", "\x0c", "\u2028"])
    def test_line_count_just_below_on_and_above(self, extra, brk, monkeypatch):
        # 302 edges, padded with comment lines to THRESHOLD + extra line breaks
        assert self.THRESHOLD * BAND == self.N * (UPPER_LINES * self.N + UPPER_ROW_LINES * BAND)
        cg = colour_random(generate_gnp(self.N, 0.15, seed=3), seed=4)
        lines = dumps(cg).split("\n")[:-1]
        pad = ["# pad"] * (self.THRESHOLD + extra - len(lines))
        text = brk.join([*lines[:100], *pad, *lines[100:], ""])
        calls = self.mirror_calls(monkeypatch)
        assert loads(text) == support.reference_loads(text) == cg
        assert calls == ([self.N] * 3 if extra >= 0 else [])
        calls.clear()
        assert load_file(text) == cg
        assert calls == ([self.N] * 3 if extra >= 0 else [])

    @pytest.mark.parametrize(
        "graph, upper",
        [
            (support.complete_graph(N), True),  # 2,016 edges
            (generate_gnp(N, 0.15, seed=3), False),  # 302 edges
            (generate_gnp(600, 0.05, seed=3), False),  # about 9,000 edges
            (generate_gnp(600, 0.3, seed=3), True),  # about 54,000 edges, 12,413 needed
        ],
        ids=["complete", "sparse", "sparse-600", "dense-600"],
    )
    def test_same_graph_either_way(self, graph, upper, monkeypatch):
        text = mangled(dumps(colour_random(graph, seed=5)))
        calls = self.mirror_calls(monkeypatch)
        assert loads(text) == support.reference_loads(text)
        assert bool(calls) == upper

    @pytest.mark.parametrize("graph", [support.complete_graph(N), generate_gnp(N, 0.15, seed=3)])
    @pytest.mark.parametrize(
        "fault, message",
        [
            (
                lambda u, v, c: f"{u} {v} {'rgb'['rgb'.index(c) - 1]}",
                "edge {u} {v} already declared with another colour",
            ),
            (lambda u, v, c: f"{v} {u} {c}", "need 0 <= u < v, got {v} {u}"),
        ],
        ids=["two-colours", "reversed"],
    )
    def test_faulty_pair_named_either_way(self, graph, fault, message):
        # edge line 40 listed again at line 201, with another colour or
        # with its ends swapped
        lines = dumps(colour_random(graph, seed=5)).split("\n")[:-1]
        u, v, c = lines[39].split()
        lines.insert(200, fault(u, v, c))
        text = "\n".join([*lines, ""])
        expected = f"error: line 201: {message.format(u=u, v=v)}"
        assert _outcome(loads, text) == _outcome(support.reference_loads, text) == expected

    @pytest.mark.parametrize(
        "case", ["self-loop", "swapped-first", "swapped-in-retried-block", "swapped-then-malformed"]
    )
    def test_order_tested_once_per_row(self, case, monkeypatch):
        # The mirroring regime tests u < v on each colour row after the
        # last block, not on each line, and still names the first faulty
        # line.  Each text is K_64's 2,016 edge lines with faulty ones.
        cg = colour_random(support.complete_graph(self.N), seed=5)
        edges = dumps(cg).split("\n")[1:-1]
        u, v, c = edges[1500].split()
        swapped = f"{v} {u} {c}"  # its forward line, in the same colour, is listed too
        pad = PAD_BLOCK.splitlines()
        if case == "self-loop":
            lines, faulty = [*edges[:1000], "7 7 r", *edges[1000:]], [1000]
        elif case == "swapped-first":
            lines, faulty = [*edges[:10], swapped, *edges[10:]], [10]
        elif case == "swapped-in-retried-block":
            # in the last block, beside a comment line
            lines = [*pad, *edges[:-3], "# a comment", swapped, *edges[-3:]]
            faulty = [len(pad) + len(edges) - 2]
        else:
            # a malformed line in a later block fails that block's pass
            lines = [*edges[:10], swapped, *edges[10:], *pad, "0 1"]
            faulty = [10, len(lines) - 1]
        text = "\n".join(["n 64", *lines, ""])
        fixed = "\n".join(["n 64", *("# fixed" if i in faulty else x for i, x in enumerate(lines)), ""])
        calls = self.mirror_calls(monkeypatch)
        assert loads(fixed) == cg
        assert calls == [self.N] * 3
        expected = _outcome(support.reference_loads, text)
        assert expected.startswith(f"error: line {faulty[0] + 2}: ")
        assert _outcome(loads, text) == _outcome(load_file, text) == expected


@pytest.mark.parametrize("brk", ["\n", "\x0c", "\u2028"])
def test_every_line_break_cuts_blocks(brk):
    # A text whose lines end in any break of `str.splitlines` is cut
    # into blocks of about BLOCK_CHARS characters, as its LF copy is.
    text = dumps(colour_random(generate_gnp(300, 0.5, seed=1), seed=2)).replace("\n", brk)
    blocks = list(graphs._text_blocks(text))
    assert len(blocks) == 4
    assert all(BLOCK_CHARS - 100 < len(block) < BLOCK_CHARS + 100 for block in blocks[:-1])
    assert "".join(blocks) == text.replace(brk, "\n")


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


def test_sparse_rows_are_written_edge_by_edge():
    # Selecting a row's lines column by column costs its width per row,
    # about n^2 / 2 steps in all: G(16384, 2e-4), 26,800 edges, took 3.5 s
    # that way on a 2-vCPU machine, and takes about 0.2 s edge by edge.
    cg = colour_random(generate_gnp(16384, 2e-4, seed=1), seed=2)
    start = time.perf_counter()
    text = dumps(cg)
    assert time.perf_counter() - start < 1.0
    assert text == support.reference_dumps(cg)


def test_rows_of_both_kinds_in_one_text():
    # In G(300, 0.02), 222 rows have under 1/SPARSE_ROW of their width in
    # edges, and 34 rows near the end, narrow ones, have more.
    cg = colour_random(generate_gnp(300, 0.02, seed=1), seed=2)
    uppers = [row >> (u + 1) for u, row in enumerate(support.adjacency(cg).adj)]
    sparse = [SPARSE_ROW * up.bit_count() < up.bit_length() for up in uppers if up]
    assert (sparse.count(True), sparse.count(False)) == (222, 34)
    assert dumps(cg) == support.reference_dumps(cg)


def without_edges(cg: ColouredGraph, pairs) -> ColouredGraph:
    """cg less the edges (u, v) of pairs."""
    colour_adj = [list(rows) for rows in cg.colour_adj]
    for u, v in pairs:
        for rows in colour_adj:
            rows[u] &= ~(1 << v)
            rows[v] &= ~(1 << u)
    return ColouredGraph(cg.n, tuple(map(tuple, colour_adj)))


def complete_rows(cg: ColouredGraph) -> list[bool]:
    """For each row with an edge above its vertex, whether it has an edge
    to every higher vertex."""
    uppers = [row >> (u + 1) for u, row in enumerate(support.adjacency(cg).adj)]
    return [up == (1 << (cg.n - u - 1)) - 1 for u, up in enumerate(uppers) if up]


class TestCompleteRows:
    """A complete row is written from templates of the table's lines, a row
    with gaps by selecting them; the chunks are those of the selector
    writer that complete rows took before (`support.selector_rows`)."""

    @staticmethod
    def assert_written_as_selected(cg: ColouredGraph) -> None:
        assert list(dump_rows(cg)) == list(support.selector_rows(cg))
        assert dumps(cg) == support.reference_dumps(cg)

    # every digit-width edge, and rows 9, 99 and 999, whose lines start at
    # v = 10, 100 and 1000
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 10, 11, 12, 99, 100, 101, 999, 1000, 1001])
    def test_random_colourings_of_complete_graphs(self, n):
        self.assert_written_as_selected(colour_random(support.complete_graph(n), seed=n))

    # The closure of a random colouring is the complete graph; that of three
    # stars keeps a few rows with gaps among its complete rows.
    @pytest.mark.parametrize(
        "n, colouring, complete",
        [(300, "random", 299), (600, "random", 599), (300, "stars", 293), (600, "stars", 590)],
    )
    def test_closures_of_criterion_instances(self, n, colouring, complete):
        cg = criterion_instance(n, 1, colouring, True)
        rows = complete_rows(cg)
        assert (len(rows), rows.count(True)) == (n - 1, complete)
        self.assert_written_as_selected(cg)

    @pytest.mark.parametrize("n", [12, 120, 1001])
    def test_complete_rows_beside_rows_missing_one_column(self, n):
        # Row u keeps every column when u % 4 == 0, and otherwise loses its
        # first column, its last, or the first power of ten above u, where
        # the names gain a digit (rows past the last power stay complete).
        powers = [10**k for k in range(1, 4) if 10**k < n]
        gaps = []
        for u in range(n - 2):
            above = [p for p in powers if p > u]
            missing = {0: None, 1: u + 1, 2: n - 1, 3: above[0] if above else None}[u % 4]
            if missing is not None:
                gaps.append((u, missing))
        cg = without_edges(colour_random(support.complete_graph(n), seed=n), gaps)
        rows = complete_rows(cg)
        assert rows.count(False) == len(gaps) and rows.count(True) >= n // 4
        self.assert_written_as_selected(cg)

    def test_closure_rows_take_templates_and_sample_rows_do_not(self, monkeypatch):
        # Each row written from templates iterates their list once.
        built = []

        class Runs(list):
            rows = 0

            def __iter__(self):
                self.rows += 1
                return super().__iter__()

        def spy(table, n, templates=graphs._templates):
            built.append(Runs(templates(table, n)))
            return built[-1]

        monkeypatch.setattr(graphs, "_templates", spy)
        closure = criterion_instance(300, 1, "random", True)
        assert dumps(closure) == support.reference_dumps(closure)
        assert [runs.rows for runs in built] == [299]
        # Of the sample's 299 rows, only the last, one edge wide, is complete.
        sample = colour_random(generate_gnp(300, 0.7, seed=3), seed=4)
        assert complete_rows(sample) == [False] * 298 + [True]
        assert dumps(sample) == support.reference_dumps(sample)
        assert [runs.rows for runs in built] == [299, 1]


def test_colouring_at_the_vertex_limit_stays_cheap():
    # One edge on MAX_VERTICES vertices.  Mirroring two triangles of n^2/2
    # pairs in bands of columns took 35.3 s on a 2-vCPU machine; the
    # per-edge regime takes about 0.06 s there.
    g = generate_gnp(MAX_VERTICES, 1e-9, seed=1)
    assert g.edge_count() == 1
    start = time.perf_counter()
    cg = colour_random(g, seed=2)
    assert time.perf_counter() - start < 1.0
    assert cg.colour_adj == reference_colouring(g, 2)
