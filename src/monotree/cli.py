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
import os
import sys
from fractions import Fraction
from typing import Iterable, Iterator

from .components import monochromatic_components, shortcut_graph
from .experiment import CSV_HEADER, ExperimentConfig, probe_threshold
from .graphs import (
    COLOURS,
    LETTER_TO_COLOUR,
    GraphFormatError,
    SimpleGraph,
    colour_random,
    colour_three_stars,
    dump_rows,
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
from .solver import solve_cover

# perfbench's tracer wraps `dumps` and `verify_cover` by their names in
# this module.  Neither is called here any more: `gen` and `shortcut`
# stream `dump_rows`, and `solve_cover` verifies its own cover.  Both stay
# bound until the tracer's target list is brought up to date.
from .graphs import dumps  # noqa: F401
from .solver import verify_cover  # noqa: F401

_COLOUR_NAMES = {c: c.name.lower() for c in COLOURS}


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write each text chunk to stdout in full, in order.

    An unbuffered stdout (PYTHONUNBUFFERED) has a raw file as its binary
    layer, whose write to a pipe may take only part of the bytes, and its
    text layer drops the rest without a word.  So each chunk's bytes go
    to `sys.stdout.buffer` until all of them are written, and a reader
    that has gone raises BrokenPipeError at the next write.  Text already
    in the text layer goes first, and the binary layer is flushed once,
    after the last chunk.  A stdout with no binary layer, such as the
    io.StringIO of `contextlib.redirect_stdout`, takes the text as it is.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.writelines(chunks)
        return
    sys.stdout.flush()
    encoding = sys.stdout.encoding
    for chunk in chunks:
        data = memoryview(chunk.encode(encoding))
        while data:
            data = data[out.write(data) :]
    out.flush()


def _print_json(data) -> None:
    _write_stdout([json.dumps(data, indent=2, sort_keys=True) + "\n"])


def _write_text(path: str | None, chunks: Iterable[str]) -> None:
    """Stream text chunks to the file at `path`, or to stdout for None or
    "-"; only one chunk's text and bytes are held at a time."""
    if path is None or path == "-":
        _write_stdout(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.writelines(chunks)


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _cmd_gen(args) -> int:
    g = generate_gnp(args.n, args.p, args.seed)
    if args.colouring == "three-star":
        triple = first_nonadjacent_triple(g.adj)
        if triple is None:
            raise ValueError("no pairwise non-adjacent triple in the sample")
        cg = colour_three_stars(g, *triple, base=LETTER_TO_COLOUR[args.base])
    else:
        cg = colour_random(g, derive_seed(args.seed, 1))
    _write_text(args.out, dump_rows(cg))
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
    _write_text(args.out, dump_rows(shortcut_graph(cg)))
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
        "tau": len(tau),
        "tau_cover": refs_json(tau),
        "nu": len(nu),
        "nu_matching": [list(e) for e in nu],
        "link_pivot": _COLOUR_NAMES[pivot],
        "nu_link": len(matching),
        "konig_cover": refs_json(cover),
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
    # solve_cover raises AssertionError on a cover that fails verify_cover,
    # so a cover that reaches this point is valid.
    cover, trace = solve_cover(cg)
    _print_json(
        {
            "size": cover.size,
            "cover": [_tree_json(t) for t in cover.trees],
            "trace": trace.to_json(),
            "valid": True,
            "violations": [],
        }
    )
    return 0


def _cmd_oracle(args) -> int:
    cg = load(args.file)
    lab = monochromatic_components(cg)
    cover = tau_exact(build_component_hypergraph(lab), args.k_max)
    if cover is None:
        _print_json({"tau": None, "note": f"minimum exceeds k_max={args.k_max}"})
        return 1
    _print_json(
        {
            "tau": len(cover),
            "cover": refs_json(cover),
            "method": "exact",
        }
    )
    return 0


def _cmd_check_pseudo(args) -> int:
    if args.file is not None:
        cg = load(args.file)
        g = SimpleGraph(cg.n, tuple(r | gr | b for r, gr, b in zip(*cg.colour_adj)))
    else:
        g = generate_gnp(args.n, args.p, args.seed)
    cfg = PseudorandomConfig(
        epsilon=args.epsilon,
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


def _probe_chunks(cfg: ExperimentConfig, as_json: bool) -> Iterator[str]:
    """The probe's rows as CSV lines or one JSON array.  The grid runs at
    the first chunk, after `_write_text` has opened its file."""
    rows = probe_threshold(cfg)
    if as_json:
        yield json.dumps([r.to_json() for r in rows], indent=2, sort_keys=True) + "\n"
    else:
        yield CSV_HEADER + "\n"
        for row in rows:
            yield row.csv_row() + "\n"


def _cmd_probe(args) -> int:
    if args.p is not None:
        if args.p_exp is not None or args.p_scale is not None:
            raise ValueError("--p cannot be combined with --p-exp or --p-scale")
        p_values: tuple[float, ...] = _csv_floats(args.p)
        p_exponent = None
        p_scales: tuple[float, ...] = ()
    else:
        if args.p_exp is None:
            raise ValueError("provide --p or --p-exp with --p-scale")
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
    )
    _write_text(args.out, _probe_chunks(cfg, as_json=(args.out or "").endswith(".json")))
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
    except BrokenPipeError:
        # The reader closed stdout early.  Stop quietly, and point stdout at
        # devnull so that the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
