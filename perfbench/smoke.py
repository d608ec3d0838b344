#!/usr/bin/env python3
"""Seconds-long smoke run of the benchmark at toy sizes.

    python3 perfbench/smoke.py

Pins a toy universe in memory, runs every workload untraced and traced,
and checks that each run is correct, that every metric BENCHMARK.json
names is emitted with its unit, and that the per-workload end-to-end views
and every per-layer metric are printed with a unit.  It also checks the
deadline path on a toy trial and that file-solve writes exactly what
`monotree gen` writes.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json

import run
from pin import make_pins
from run import ROOT
from tracing import Abandoned
from workloads import FileSolve, SparseExact, criterion_p, deadline

from monotree import cli, experiment

TOY = {
    "dense-probe": {"n": [50, 60], "p_scale": 1.5, "trials": 2, "universe": 3, "calls": 2,
                    "warmup_n": [50], "setup_repeats": 2, "gauge_exponent": 1.0},
    "sparse-exact": {"cells": [[30, 0.1], [40, 0.05]], "exp_seed": 42, "universe": [6, 6],
                     "draw": [0.5, 0.5], "defects": 1, "deadline_s": 1.0, "pin_cap_s": 10.0,
                     "warmup_cells": [[20, 0.1]], "setup_repeats": 2, "gauge_exponent": 0.8},
    "file-solve": {"n": 80, "p_scale": 1.0, "universe": 2, "setup_repeats": 2, "gauge_exponent": 0.5},
}

VIEWS = {
    "dense-probe": ("trials_per_s", "probe_p50_ms", "failed_share"),
    "sparse-exact": ("trials_per_s", "trial_p50_ms", "trial_p90_ms", "failed_share"),
    "file-solve": ("solve_p50_ms", "shortcut_p50_ms", "failed_share"),
}


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    pins = make_pins(TOY, list(TOY), log=lambda line: None)
    for name in TOY:
        for trace in (0, 1):
            result = run.run(name, seed=3, seconds=0.2, trace=bool(trace), cfg=TOY, pins=pins, quiet=True)
            label = f"{name} trace {trace}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: {result['attempted']} attempted, {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared[trace], f"{label}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(got) ^ set(declared[trace]))}")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{label}: a metric is not a number")
            text = "\n".join(result["lines"])
            names = VIEWS[name] + tuple(declared[0]) if trace == 0 else tuple(declared[1])
            for metric in names:
                check(any(line.split()[:1] == [metric] and len(line.split()) >= 3
                          for line in result["lines"]), f"{label}: {metric} not printed with a unit")
            if trace:
                check("cli.main" in text, f"{label}: no per-layer table")
            print(f"smoke: {label}: ok ({result['attempted']} ops)")

    # Deadline path: a trial abandoned mid-search names the open monotree frame.
    exp = experiment.ExperimentConfig(n_values=(60,), trials=1, seed=42, p_values=(0.05,))
    try:
        with deadline(1e-4):
            experiment.run_trial(exp, 60, 0.05, "random", 0)
        check(False, "a 0.1 ms deadline did not abandon the trial")
    except Abandoned as exc:
        check(str(exc).startswith("monotree."), f"abandoned frame {exc!r} is not in monotree")
    # The same path through the runner: an abandoned trial is a failed op,
    # not a wrong output.
    cfg = dict(TOY["sparse-exact"], deadline_s=1e-4)
    wl = SparseExact(cfg, pins["sparse-exact"], [(60, 0.05, 0)], ROOT / ".perfbench_tmp" / "smoke-deadline")
    wl.exp[(60, 0.05)] = exp
    wl.capture.install()
    try:
        samples = run.run_pass(wl, wl.ops(), "untraced", run.SpeedGauge(1.0))
        # An isolated op, run in a forked child, reports the same way.
        isolated = wl.ops()
        isolated[0].isolate = True
        samples += run.run_pass(wl, isolated, "untraced", run.SpeedGauge(1.0))
    finally:
        wl.capture.uninstall()
    check([bool(s.outcome.abandoned) and not s.outcome.problems for s in samples] == [True, True],
          f"abandoned trial reported as {[(s.outcome.abandoned, s.outcome.problems) for s in samples]}")
    # A trial that finishes gives the same checked outcome in a child.
    wl = SparseExact(TOY["sparse-exact"], pins["sparse-exact"], [(30, 0.1, 0)], ROOT / ".perfbench_tmp" / "smoke")
    wl.capture.install()
    try:
        (op,) = wl.ops()
        _, inline = run.execute(op)
        _, child = run.execute_in_child(op)
    finally:
        wl.capture.uninstall()
    check(inline == child and inline.digest is not None and not inline.failed,
          f"isolated trial gave {child}, in-process {inline}")
    print("smoke: deadline: ok")
    check(SparseExact.select(TOY["sparse-exact"], pins["sparse-exact"], 3)
          == SparseExact.select(TOY["sparse-exact"], pins["sparse-exact"], 3), "selection not seeded")

    # file-solve set-up writes exactly what `monotree gen` writes.
    cfg = TOY["file-solve"]
    tmp = ROOT / ".perfbench_tmp" / "smoke-gen"
    try:
        fs = FileSolve(cfg, pins["file-solve"], [1], tmp)
        fs.setup()
        for colouring in FileSolve.COLOURINGS:
            out = tmp / f"gen-{colouring}.txt"
            p = repr(criterion_p(cfg["n"], cfg["p_scale"]))
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["gen", "--n", str(cfg["n"]), "--p", p, "--seed", "1",
                          "--colouring", colouring, "--out", str(out)])
            check(out.read_bytes() == fs.path(1, colouring).read_bytes(), f"{colouring} file differs from gen")
    finally:
        run.remove_tmp(tmp)
    print("smoke: gen equivalence: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
