"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Universal statements over all colourings are
exhaustively checked where feasible (criteria 3 and 4) and covered by
seeded sampling plus adversarial constructions elsewhere, as stated in
each criterion.
"""

import math
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

from monotree import (
    Colour,
    PseudorandomConfig,
    alpha_class,
    build_component_hypergraph,
    check_common_neighbourhoods,
    check_degrees,
    check_edge_density,
    colour_random,
    colour_three_stars,
    egp_partition_search,
    first_nonadjacent_triple,
    generate_gnp,
    konig_cover,
    max_matching_bipartite,
    monochromatic_components,
    nu_exact,
    solve_cover,
    tau_exact,
    verify_cover,
)
from monotree.cli import main
from monotree.rng import SplitMix64, derive_seed

import support

MASTER_SEED = 20260808
ROOT = Path(__file__).resolve().parent.parent


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail})")


def test_criterion_1_desk_scale_probe():
    """n in {300, 600} at p = 1.5 (ln n / n)^(1/6): 200 random and 50
    three-star colourings per n give at most 3 trees, every cover
    verifies, and the exact oracle never exceeds 3 when it runs."""
    start = time.perf_counter()
    failures = []
    oracle_runs = 0
    branch_counts: dict[str, int] = {}
    for n in (300, 600):
        p = 1.5 * (math.log(n) / n) ** (1 / 6)
        for trial in range(200):
            seed = derive_seed(MASTER_SEED, n * 1000 + trial)
            g = generate_gnp(n, p, seed)
            cg = colour_random(g, derive_seed(seed, 1))
            cover, trace = solve_cover(cg)
            branch_counts[trace.branch] = branch_counts.get(trace.branch, 0) + 1
            if cover.size > 3:
                failures.append((n, "random", trial, cover.size))
            if verify_cover(cg, cover):
                failures.append((n, "random", trial, "verify"))
            if trace.exact_size is not None:
                oracle_runs += 1
                if trace.exact_size > 3:
                    failures.append((n, "random", trial, "oracle"))
        for trial in range(50):
            seed = derive_seed(MASTER_SEED, n * 1000 + 500 + trial)
            g = generate_gnp(n, p, seed)
            triple = first_nonadjacent_triple(g.adj)
            if triple is None:
                failures.append((n, "three-star", trial, "no triple"))
                continue
            cg = colour_three_stars(g, *triple, base=Colour.RED)
            cover, trace = solve_cover(cg)
            branch_counts[trace.branch] = branch_counts.get(trace.branch, 0) + 1
            if cover.size > 3:
                failures.append((n, "three-star", trial, cover.size))
            if verify_cover(cg, cover):
                failures.append((n, "three-star", trial, "verify"))
            if trace.exact_size is not None:
                oracle_runs += 1
                if trace.exact_size > 3:
                    failures.append((n, "three-star", trial, "oracle"))
    elapsed = time.perf_counter() - start
    ok = not failures
    report(
        1,
        "desk-scale probe",
        ok,
        f"500 trials, oracle ran {oracle_runs}x, branches {branch_counts}, "
        f"{elapsed:.1f}s",
    )
    assert ok, failures[:10]


def test_criterion_2_three_star_lower_bound():
    """50 three-star instances at n=300, p=0.5: the exact oracle minimum
    and the returned cover size are both exactly 3."""
    start = time.perf_counter()
    failures = []
    for trial in range(50):
        seed = derive_seed(MASTER_SEED, 10_000 + trial)
        g = generate_gnp(300, 0.5, seed)
        triple = first_nonadjacent_triple(g.adj)
        if triple is None:
            failures.append((trial, "no triple"))
            continue
        cg = colour_three_stars(g, *triple, base=Colour.RED)
        cover, trace = solve_cover(cg)
        h = build_component_hypergraph(monochromatic_components(cg))
        tau_cover = tau_exact(h)
        if tau_cover is None or len(tau_cover) != 3:
            failures.append((trial, "oracle", None if tau_cover is None else len(tau_cover)))
        if cover.size != 3:
            failures.append((trial, "cover", cover.size))
    elapsed = time.perf_counter() - start
    ok = not failures
    report(2, "three-star lower bound", ok, f"50 instances, {elapsed:.1f}s")
    assert ok, failures[:10]


def test_criterion_3_exhaustive_k5_pair_search():
    """Every one of the 3^10 colourings of K5 admits at most 2 covering
    components, found by the exact pair search.  Runtime under a minute."""
    start = time.perf_counter()
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    failures = 0
    count = 0
    for assignment in product((Colour.RED, Colour.GREEN, Colour.BLUE), repeat=10):
        cg = support.from_edge_colours(
            5, [(u, v, c) for (u, v), c in zip(pairs, assignment)]
        )
        refs = egp_partition_search(monochromatic_components(cg))
        if not 1 <= len(refs) <= 2:
            failures += 1
        count += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and count == 3**10 and elapsed < 60.0
    report(
        3,
        "exhaustive K5 pair search",
        ok,
        f"{count} colourings, {failures} failures, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_exhaustive_two_coloured_k6():
    """Every one of the 2^15 two-colourings of K6 is covered by a single
    monochromatic component."""
    start = time.perf_counter()
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    full = (1 << 6) - 1
    failures = 0
    for bits in range(1 << 15):
        cg = support.from_edge_colours(
            6,
            [
                (u, v, Colour.RED if (bits >> i) & 1 else Colour.GREEN)
                for i, (u, v) in enumerate(pairs)
            ],
        )
        lab = monochromatic_components(cg)
        if not any(
            mask == full
            for c in (Colour.RED, Colour.GREEN)
            for mask in lab.members[c].values()
        ):
            failures += 1
        elif bits % 101 == 0:
            # spot-check the full pipeline and the independent oracle
            cover, _ = solve_cover(cg)
            if cover.size != 1 or support.min_component_cover_size(cg) != 1:
                failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    report(
        4,
        "two-coloured K6 single tree",
        ok,
        f"32768 colourings, {failures} failures, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_oracle_equivalence():
    """200 random coloured graphs with n <= 9: the solver size, the exact
    hypergraph cover size and the brute-force component-subset minimum
    coincide."""
    start = time.perf_counter()
    failures = []
    ps = (0.3, 0.6, 0.9)
    for trial in range(200):
        n = 2 + trial % 8
        p = ps[trial % 3]
        seed = derive_seed(MASTER_SEED, 20_000 + trial)
        cg = colour_random(generate_gnp(n, p, seed), derive_seed(seed, 1))
        cover, _ = solve_cover(cg)
        tau_cover = tau_exact(build_component_hypergraph(monochromatic_components(cg)))
        brute = support.min_component_cover_size(cg)
        tau = None if tau_cover is None else len(tau_cover)
        if not cover.size == tau == brute:
            failures.append((trial, n, p, cover.size, tau, brute))
    elapsed = time.perf_counter() - start
    ok = not failures
    report(5, "oracle equivalence", ok, f"200 instances, {elapsed:.1f}s")
    assert ok, failures[:10]


def test_criterion_6_konig_suite():
    """1000 random bipartite graphs with up to 40+40 vertices: the
    alternating-reachability cover always matches the maximum matching
    size and covers every edge."""
    start = time.perf_counter()
    rng = SplitMix64(derive_seed(MASTER_SEED, 30_000))
    failures = 0
    for _ in range(1000):
        nl = 1 + rng.randrange(40)
        nr = 1 + rng.randrange(40)
        density = (5, 15, 30, 60)[rng.randrange(4)]
        edges = [
            (a, b)
            for a in range(nl)
            for b in range(nr)
            if rng.randrange(100) < density
        ]
        bp = support.bipartite_from_edges(range(nl), edges)
        m = max_matching_bipartite(bp)
        cover = konig_cover(bp, m)
        chosen = set(cover)
        if len(cover) != len(m) or not all(
            (1, a) in chosen or (2, b) in chosen for a, b in edges
        ):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0
    report(6, "bipartite cover suite", ok, f"1000 graphs, {failures} failures, {elapsed:.1f}s")
    assert ok


def test_criterion_7_hypergraph_inequalities():
    """500 random instances with n <= 12: nu <= tau <= 3 nu and
    tau <= 2 nu always; nu <= 2 whenever the closure graph has no
    independent triple; matching witnesses are independent in the
    closure."""
    start = time.perf_counter()
    failures = []
    ps = (0.15, 0.3, 0.5, 0.7, 0.9)
    alpha_two_seen = 0
    for trial in range(500):
        n = 2 + trial % 11
        p = ps[trial % 5]
        seed = derive_seed(MASTER_SEED, 40_000 + trial)
        cg = colour_random(generate_gnp(n, p, seed), derive_seed(seed, 1))
        lab = monochromatic_components(cg)
        h = build_component_hypergraph(lab)
        matching = nu_exact(h)
        nu = len(matching)
        tau_cover = tau_exact(h)
        assert tau_cover is not None
        tau = len(tau_cover)
        if not nu <= tau <= 3 * nu and not (nu == 0 and tau == 0):
            failures.append((trial, "sandwich", nu, tau))
        if tau > 2 * nu and nu > 0:
            failures.append((trial, "tripartite bound", nu, tau))
        if alpha_class(lab).kind == "two":
            alpha_two_seen += 1
            if nu > 2:
                failures.append((trial, "nu above independence", nu))
        verts = support.matching_to_independent_set(h, matching)
        closure = lab.closure()
        for i, u in enumerate(verts):
            for v in verts[i + 1 :]:
                if closure.has_edge(u, v):
                    failures.append((trial, "witness adjacency", u, v))
    elapsed = time.perf_counter() - start
    ok = not failures
    report(
        7,
        "hypergraph inequalities",
        ok,
        f"500 instances, {alpha_two_seen} with alpha=2, {elapsed:.1f}s",
    )
    assert ok, failures[:10]


def test_criterion_8_regularity_statistics():
    """G(3000, 0.5), fixed seed: all degrees within 10%, at least 99% of
    200 sampled 100x100 density pairs within 10%, and at least 99% of the
    common-neighbourhood samples within 25% for tuples up to size 4.
    Runtime under two minutes."""
    start = time.perf_counter()
    g = generate_gnp(3000, 0.5, derive_seed(MASTER_SEED, 50_000))
    deg = support.outcome(check_degrees(g, 0.5, PseudorandomConfig(epsilon=0.1)), "degrees")
    density_cfg = PseudorandomConfig(epsilon=0.1, pair_size=100, density_samples=200)
    dens = support.outcome(
        check_edge_density(g, 0.5, density_cfg, derive_seed(MASTER_SEED, 50_001)),
        "edge-density",
    )
    nbhd_cfg = PseudorandomConfig(
        epsilon=0.25, max_tuple=4, neighbourhood_samples=100
    )
    nbhd = check_common_neighbourhoods(
        g, 0.5, nbhd_cfg, derive_seed(MASTER_SEED, 50_002)
    )
    problems = []
    if deg.fails != 0 or deg.status != "ok":
        problems.append(("degrees", deg.fails))
    if dens.status != "ok" or support.pass_fraction(dens) < 0.99:
        problems.append(("density", support.pass_fraction(dens)))
    for i in range(1, 5):
        out = support.outcome(nbhd, f"common-neighbourhood i={i}")
        if out.status != "ok" or support.pass_fraction(out) < 0.99:
            problems.append((f"neighbourhood i={i}", out.status, support.pass_fraction(out)))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 120.0
    report(
        8,
        "regularity statistics",
        ok,
        f"degrees 3000/3000, density {support.pass_fraction(dens):.3f}, {elapsed:.1f}s",
    )
    assert ok, problems


def test_criterion_9_probe_determinism(tmp_path):
    """A fixed probe config gives byte-identical CSV output in this process
    and from `python -m monotree probe` in two subprocesses with different
    string-hash seeds."""
    start = time.perf_counter()
    grid = ["probe", "--n", "24,36", "--p", "0.5,0.9", "--mode", "both", "--trials", "6",
            "--seed", "11"]
    in_process = tmp_path / "in-process.csv"
    assert main([*grid, "--out", str(in_process)]) == 0
    outputs = [in_process.read_bytes()]
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hashseed-{hash_seed}.csv"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "monotree", *grid, "--out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    elapsed = time.perf_counter() - start
    a = outputs[0]
    ok = all(b == a for b in outputs) and len(a) > 0
    report(9, "probe determinism", ok, f"{len(a)} bytes each, {elapsed:.1f}s")
    assert ok
