#!/usr/bin/env python3
"""Check the three-star lower-bound construction against the exact oracle.

For each seeded sample of G(n, p): plant the three star centres, solve,
and compare the returned cover size with the exact minimum component
cover.  The construction needs three trees whenever the base colour
spans the rest of the graph, so both numbers should print as 3.
"""

import argparse

from monotree import (
    Colour,
    build_component_hypergraph,
    colour_three_stars,
    first_nonadjacent_triple,
    generate_gnp,
    monochromatic_components,
    solve_cover,
    tau_exact,
)
from monotree.rng import derive_seed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", default=300, type=int)
    ap.add_argument("--p", default=0.5, type=float)
    ap.add_argument("--trials", default=20, type=int)
    ap.add_argument("--seed", default=7, type=int)
    args = ap.parse_args()

    sizes = {}
    for trial in range(args.trials):
        g = generate_gnp(args.n, args.p, derive_seed(args.seed, trial))
        triple = first_nonadjacent_triple(g)
        if triple is None:
            print(f"trial {trial:3d}: skipped (no non-adjacent triple)")
            continue
        cg = colour_three_stars(g, *triple, base=Colour.RED)
        cover, trace = solve_cover(cg)
        tau_cover = tau_exact(build_component_hypergraph(monochromatic_components(cg)))
        exact = len(tau_cover) if tau_cover is not None else None
        sizes[trial] = (cover.size, exact)
        print(
            f"trial {trial:3d}: stars={triple} cover={cover.size} "
            f"exact={exact} branch={trace.branch}"
        )
    if sizes:
        solved = [s for s, _ in sizes.values()]
        print(f"\n{len(sizes)} instances, cover sizes: min={min(solved)} max={max(solved)}")


if __name__ == "__main__":
    main()
