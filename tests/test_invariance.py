"""Invariance relations on sampled instances.

Relabelling the vertices, or permuting the three colours, changes
neither τ, nor each colour's multiset of component sizes (carried along
with its colour), nor the independence trichotomy of the closure, nor
the size of `solve_cover`'s cover, nor, on the instances with n <= 120,
the matching number ν.  The closure `shortcut_graph` keeps the component
labelling itself, and with it τ and the cover size.  The instances are
seeded draws of G(n, p) at two sparse densities and at the criterion
density p = 1.5 (ln n / n)^(1/6), each with the random colouring and
with the three-star colouring of its first independent triple, and a few
criterion-density draws at n = 600 and 1200.
"""

import functools
import math
import random
from operator import itemgetter

import pytest

from monotree import (
    COLOURS,
    ColouredGraph,
    alpha_class,
    build_component_hypergraph,
    colour_random,
    colour_three_stars,
    first_nonadjacent_triple,
    generate_gnp,
    monochromatic_components,
    nu_exact,
    shortcut_graph,
    solve_cover,
    tau_exact,
)


SEEDS = range(3)
# the criterion-density draws at n = 600 and 1200 take the first two
LARGE_SEEDS = range(2)
# a transposition and a 3-cycle of (RED, GREEN, BLUE)
COLOUR_PERMUTATIONS = [(1, 0, 2), (1, 2, 0)]


def criterion_p(n: int) -> float:
    return min(1.0, 1.5 * (math.log(n) / n) ** (1 / 6))


@functools.lru_cache(maxsize=None)
def instances(n: int, p: float, colouring: str, seeds: range = SEEDS) -> list[ColouredGraph]:
    """The instances of one cell, one per seed that admits the colouring."""
    out = []
    for seed in seeds:
        g = generate_gnp(n, p, seed=1000 * n + seed)
        if colouring == "random":
            out.append(colour_random(g, seed=seed))
        elif (triple := first_nonadjacent_triple(g.adj)) is not None:
            out.append(colour_three_stars(g, *triple, base=COLOURS[seed % 3]))
    return out


def profile(cg: ColouredGraph) -> tuple:
    """τ, each colour's sorted component sizes, the trichotomy's kind and
    the cover size of cg."""
    lab = monochromatic_components(cg)
    tau = tau_exact(build_component_hypergraph(lab))
    sizes = tuple(sorted(m.bit_count() for m in lab.members[c].values()) for c in COLOURS)
    return len(tau), sizes, alpha_class(lab).kind, solve_cover(cg)[0].size


def relabelled(cg: ColouredGraph, perm: list[int]) -> ColouredGraph:
    """cg with vertex v renamed perm[v]: row v of each colour moves to
    perm[v], and its bit u to bit perm[u], read through its digits."""
    n = cg.n
    inverse = [0] * n
    for v, w in enumerate(perm):
        inverse[w] = v
    # digit w of a new row, highest first, is digit inverse[w] of the old
    pick = itemgetter(*reversed(inverse))
    rows = []
    for old in cg.colour_adj:
        new = [0] * n
        for v, row in enumerate(old):
            new[perm[v]] = int("".join(pick(format(row, f"0{n}b")[::-1])), 2)
        rows.append(tuple(new))
    return ColouredGraph(n, tuple(rows))


CELLS = [
    pytest.param(n, p, colouring, id=f"{colouring}-n{n}-{name}")
    for colouring in ("random", "three-star")
    for n in (20, 60, 120, 200)
    for name, p in (("p0.03", 0.03), ("p0.08", 0.08), ("criterion", criterion_p(n)))
]


LARGE_CELLS = [
    pytest.param(n, criterion_p(n), colouring, id=f"{colouring}-n{n}-criterion")
    for colouring in ("random", "three-star")
    for n in (600, 1200)
]


def recoloured(cg: ColouredGraph, sigma: tuple[int, int, int]) -> ColouredGraph:
    return ColouredGraph(cg.n, tuple(cg.colour_adj[s] for s in sigma))


def assert_profiles_invariant(cgs: list[ColouredGraph]) -> None:
    for k, cg in enumerate(cgs):
        tau, sizes, kind, size = profile(cg)
        perm = list(range(cg.n))
        random.Random(k).shuffle(perm)
        assert profile(relabelled(cg, perm)) == (tau, sizes, kind, size)
        for sigma in COLOUR_PERMUTATIONS:
            expected = (tau, tuple(sizes[s] for s in sigma), kind, size)
            assert profile(recoloured(cg, sigma)) == expected


@pytest.mark.parametrize("n, p, colouring", CELLS)
def test_relabelling_and_recolouring(n, p, colouring):
    assert_profiles_invariant(instances(n, p, colouring))


@pytest.mark.parametrize("n, p, colouring", LARGE_CELLS)
def test_relabelling_and_recolouring_at_scale(n, p, colouring):
    cgs = instances(n, p, colouring, LARGE_SEEDS)
    assert len(cgs) == len(LARGE_SEEDS)
    assert_profiles_invariant(cgs)


def nu(cg: ColouredGraph) -> int:
    return len(nu_exact(build_component_hypergraph(monochromatic_components(cg))))


@pytest.mark.parametrize("n, p, colouring", [c for c in CELLS if c.values[0] <= 120])
def test_matching_number_under_relabelling_and_recolouring(n, p, colouring):
    for k, cg in enumerate(instances(n, p, colouring)):
        size = nu(cg)
        perm = list(range(n))
        random.Random(k).shuffle(perm)
        assert nu(relabelled(cg, perm)) == size
        for sigma in COLOUR_PERMUTATIONS:
            assert nu(recoloured(cg, sigma)) == size


@pytest.mark.parametrize("n, p, colouring", CELLS)
def test_closure_keeps_the_labelling(n, p, colouring):
    for cg in instances(n, p, colouring):
        lab = monochromatic_components(cg)
        closure = shortcut_graph(cg)
        lab_f = monochromatic_components(closure)
        assert lab_f.comp_id == lab.comp_id
        assert lab_f.members == lab.members
        tau, _, _, size = profile(cg)
        tau_f, _, _, size_f = profile(closure)
        assert (tau_f, size_f) == (tau, size)
