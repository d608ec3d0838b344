#!/usr/bin/env python3
"""Sweep cover-size fractions over an (n, p) grid around the
p ~ (ln n / n)^(1/6) regime and write one CSV row per cell.

Example:
    python scripts/probe_grid.py --n 200,400 --scales 0.8,1.0,1.25,1.5 \
        --trials 100 --seed 42 --out results.csv
"""

import argparse

from monotree import ExperimentConfig, probe_threshold


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", default="200,400", help="comma-separated n values")
    ap.add_argument("--exponent", default=1 / 6, type=float)
    ap.add_argument("--scales", default="0.8,1.0,1.25,1.5")
    ap.add_argument("--trials", default=100, type=int)
    ap.add_argument("--mode", default="both", choices=["random", "three-star", "both"])
    ap.add_argument("--seed", default=42, type=int)
    ap.add_argument("--out", default="results.csv")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        n_values=tuple(int(x) for x in args.n.split(",")),
        trials=args.trials,
        seed=args.seed,
        p_exponent=args.exponent,
        p_scales=tuple(float(x) for x in args.scales.split(",")),
        modes=("random", "three-star") if args.mode == "both" else (args.mode,),
        out_path=args.out,
    )
    rows = probe_threshold(cfg)
    for row in rows:
        print(
            f"n={row.n:5d} p={row.p:.4f} {row.mode:10s} "
            f"frac(<=3)={row.frac_le3:.3f} mean={row.mean_size:.2f}"
        )
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
