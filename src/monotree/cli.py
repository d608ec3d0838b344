"""Command-line interface.

Subcommands operate on the text interchange format (header "n <count>",
then "u v c" edge lines):

    gen           sample a coloured instance and write it out
    components    per-colour component vertex sets as JSON
    shortcut      the single-colour-connectivity closure, text format
    hyper         the component hypergraph with tau, nu and the link-graph
                  matching/cover numbers, as JSON
    solve         tree cover plus proof trace as JSON; exit 0 iff valid
    oracle        exact minimum component cover only
    check-pseudo  regularity check report for a sampled graph, as JSON
    probe         threshold sweep over an (n, p) grid, CSV or JSON
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .components import monochromatic_components, shortcut_graph
from .experiment import CSV_HEADER, ExperimentConfig, probe_threshold
from .graphs import (
    COLOURS,
    LETTER_TO_COLOUR,
    GraphFormatError,
    colour_random,
    colour_three_stars,
    dumps,
    first_nonadjacent_triple,
    generate_gnp,
    iter_bits,
    load,
)
from .hypergraph import (
    build_component_hypergraph,
    konig_cover,
    link_union,
    max_matching_bipartite,
    nu_exact,
    refs_json,
    tau_exact,
)
from .pseudorandom import (
    PseudorandomConfig,
    check_common_neighbourhoods,
    check_degrees,
    check_edge_density,
)
from .rng import derive_seed
from .solver import solve_cover, verify_cover

_COLOUR_NAMES = {c: c.name.lower() for c in COLOURS}


def _print_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _cmd_gen(args) -> int:
    g = generate_gnp(args.n, args.p, args.seed)
    if args.colouring == "three-star":
        triple = first_nonadjacent_triple(g)
        if triple is None:
            print("error: no pairwise non-adjacent triple in the sample", file=sys.stderr)
            return 2
        cg = colour_three_stars(g, *triple, base=LETTER_TO_COLOUR[args.base])
    else:
        cg = colour_random(g, derive_seed(args.seed, 1))
    _write_text(args.out, dumps(cg))
    return 0


def _cmd_components(args) -> int:
    cg = load(args.file)
    lab = monochromatic_components(cg)
    out = {}
    for c in COLOURS:
        out[_COLOUR_NAMES[c]] = [
            list(iter_bits(lab.members[c][cid])) for cid in lab.component_ids(c)
        ]
    _print_json(out)
    return 0


def _cmd_shortcut(args) -> int:
    cg = load(args.file)
    _write_text(args.out, dumps(shortcut_graph(cg)))
    return 0


def _cmd_hyper(args) -> int:
    cg = load(args.file)
    lab = monochromatic_components(cg)
    h = build_component_hypergraph(lab)
    pivot = LETTER_TO_COLOUR[args.pivot]
    link = link_union(h, pivot)
    matching = max_matching_bipartite(link)
    cover = konig_cover(link, matching)
    tau = tau_exact(h)
    nu = nu_exact(h)
    assert tau is not None
    sides = [c for c in COLOURS if c != pivot]
    out = {
        "parts": {
            _COLOUR_NAMES[c]: list(h.parts[c]) for c in COLOURS
        },
        "hyperedges": [
            {
                "red": e[0],
                "green": e[1],
                "blue": e[2],
                "witness": h.witness[e],
            }
            for e in h.edges
        ],
        "tau": tau.size,
        "tau_cover": refs_json(tau.cover),
        "nu": nu.size,
        "nu_matching": [list(e) for e in nu.edges],
        "link_pivot": _COLOUR_NAMES[pivot],
        "nu_link": matching.size,
        "konig_cover": [
            [_COLOUR_NAMES[sides[side]], cid] for side, cid in cover.cover
        ],
    }
    _print_json(out)
    return 0


def _tree_json(tree) -> dict:
    return {
        "colour": tree.colour.name.lower(),
        "root": tree.root,
        "vertices": list(tree.vertices),
        "edges": [list(e) for e in tree.edge_list],
    }


def _cmd_solve(args) -> int:
    cg = load(args.file)
    cover, trace = solve_cover(cg)
    violations = verify_cover(cg, cover)
    _print_json(
        {
            "size": cover.size,
            "cover": [_tree_json(t) for t in cover.trees],
            "trace": trace.to_json(),
            "valid": not violations,
            "violations": violations,
        }
    )
    return 0 if not violations else 1


def _cmd_oracle(args) -> int:
    cg = load(args.file)
    lab = monochromatic_components(cg)
    cert = tau_exact(build_component_hypergraph(lab), args.k_max)
    if cert is None:
        _print_json({"tau": None, "note": f"minimum exceeds k_max={args.k_max}"})
        return 1
    _print_json(
        {
            "tau": cert.size,
            "cover": refs_json(cert.cover),
            "method": "exact",
        }
    )
    return 0


def _cmd_check_pseudo(args) -> int:
    if args.file is not None:
        cg = load(args.file)
        g = cg.graph
    else:
        g = generate_gnp(args.n, args.p, args.seed)
    cfg = PseudorandomConfig(
        epsilon=args.epsilon,
        size_constant=args.size_constant,
        max_tuple=args.max_tuple,
        density_samples=args.density_samples,
        neighbourhood_samples=args.neighbourhood_samples,
        pair_size=args.pair_size,
    )
    report = {
        "degrees": check_degrees(g, args.p, cfg).to_json(),
        "edge_density": check_edge_density(
            g, args.p, cfg, derive_seed(args.seed, 101)
        ).to_json(),
        "common_neighbourhoods": check_common_neighbourhoods(
            g, args.p, cfg, derive_seed(args.seed, 102)
        ).to_json(),
    }
    _print_json(report)
    return 0


def _cmd_probe(args) -> int:
    if args.p is not None:
        if args.p_exp is not None or args.p_scale is not None:
            print("error: --p cannot be combined with --p-exp or --p-scale", file=sys.stderr)
            return 2
        p_values: tuple[float, ...] = _csv_floats(args.p)
        p_exponent = None
        p_scales: tuple[float, ...] = ()
    else:
        if args.p_exp is None:
            print("error: provide --p or --p-exp with --p-scale", file=sys.stderr)
            return 2
        p_values = ()
        try:
            p_exponent = float(Fraction(args.p_exp))
        except ZeroDivisionError:
            raise ValueError(f"--p-exp {args.p_exp} has a zero denominator") from None
        p_scales = _csv_floats(args.p_scale) if args.p_scale is not None else (1.0,)
    cfg = ExperimentConfig(
        n_values=_csv_ints(args.n),
        trials=args.trials,
        seed=args.seed,
        p_values=p_values,
        p_exponent=p_exponent,
        p_scales=p_scales,
        modes=("random", "three-star") if args.mode == "both" else (args.mode,),
        out_path=args.out,
    )
    rows = probe_threshold(cfg)
    if args.out is None:
        print(CSV_HEADER)
        for row in rows:
            print(row.csv_row())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monotree",
        description="Monochromatic tree covers of 3-edge-coloured graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a coloured instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--colouring", choices=["random", "three-star"], default="random")
    p.add_argument("--base", choices=["r", "g", "b"], default="r", type=str)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("components", help="per-colour components as JSON")
    p.add_argument("file")
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("shortcut", help="emit the connectivity closure")
    p.add_argument("file")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_shortcut)

    p = sub.add_parser("hyper", help="component hypergraph numbers as JSON")
    p.add_argument("file")
    p.add_argument("--pivot", choices=["r", "g", "b"], default="r")
    p.set_defaults(func=_cmd_hyper)

    p = sub.add_parser("solve", help="tree cover plus trace as JSON")
    p.add_argument("file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exact minimum component cover")
    p.add_argument("file")
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-pseudo", help="regularity checks as JSON")
    p.add_argument("--file", default=None, help="check this instance instead of sampling")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--size-constant", type=float, default=10.0)
    p.add_argument("--max-tuple", type=int, default=4)
    p.add_argument("--density-samples", type=int, default=200)
    p.add_argument("--neighbourhood-samples", type=int, default=100)
    p.add_argument("--pair-size", type=int, default=None)
    p.set_defaults(func=_cmd_check_pseudo)

    p = sub.add_parser("probe", help="threshold sweep over an (n, p) grid")
    p.add_argument("--n", required=True, help="comma-separated n values")
    p.add_argument("--p", default=None, help="comma-separated explicit p values")
    p.add_argument("--p-exp", default=None, help="exponent fraction, e.g. 1/6")
    p.add_argument("--p-scale", default=None, help="comma-separated scales (default 1.0)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--mode", choices=["random", "three-star", "both"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
