#!/usr/bin/env python3
"""Outside-in benchmark of monotree.

    python3 perfbench/run.py --workload dense-probe --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: monotree is imported from ./src.
`--trace 0` measures the end-to-end metrics with nothing wrapped but the
capture of returned covers; `--trace 1` alternates untraced and traced
passes over the same ops and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A result file with every failure record goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def import_monotree():
    src = ROOT / "src"
    if not (src / "monotree" / "__init__.py").is_file():
        raise SystemExit(f"error: no monotree sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import monotree

    if Path(monotree.__file__).resolve().parent != (src / "monotree").resolve():
        raise SystemExit(f"error: imported monotree from {monotree.__file__}, not {src}")


import_monotree()

from tracing import Tracer  # noqa: E402
from workloads import CONFIG, WORKLOADS, Outcome, pinned_config  # noqa: E402

PINS_PATH = HERE / "pins.json"
# Read by monotree.experiment.probe_threshold; set only for the
# parallel-speedup pass of a traced run.
THREADS_ENV = "MONOTREE_THREADS"

# name -> unit.  End-to-end metrics go in the JSON line of an untraced run;
# the per-workload views below are printed for the workloads that have them.
END_TO_END = {
    "instances_per_s": "1/s",
    "op_p50_ms": "ms",
    "mean_cover_size": "trees",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LATENCY_VIEWS = {
    "dense-probe": (("probe_p50_ms", "probe", 0.5),),
    "sparse-exact": (("trial_p50_ms", "trial", 0.5), ("trial_p90_ms", "trial", 0.9)),
    "file-solve": (("solve_p50_ms", "solve", 0.5), ("shortcut_p50_ms", "shortcut", 0.5)),
}
# Per-layer units by the last part of the metric name; the rest are counts.
PER_LAYER_UNITS = {"ms": "ms", "max_ms": "ms", "p50_ms": "ms", "p90_ms": "ms", "self_ms": "ms",
                   "mb_per_s": "MB/s", "output_bytes": "bytes", "parallel_speedup": "ratio",
                   "overhead_share": "ratio", "strategy_hit_ratio": "ratio", "exact_ran_ratio": "ratio"}


def per_layer_unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    return PER_LAYER_UNITS.get(tail, "count")


# Untraced passes a run makes at least; each op's time is its median pass.
MIN_PASSES = 3


class SpeedGauge:
    """How fast the machine runs at each moment of a run.

    The machines this runs on are shared: the same op can take 40% longer
    for minutes at a time because of other tenants.  The gauge times a
    fixed pure-Python task that shares no code with monotree (best of
    three, about 7 ms) at least every half second between ops.  Every time
    metric is multiplied by (NOMINAL_MS / g) ** exponent, where g is the
    mean of the readings just before and just after the timed interval and
    the exponent is the workload's sensitivity to the gauge: the slope of
    log op time on log g measured across passes (`gauge_exponent` in the
    workload config).  Times are therefore milliseconds on a machine where
    the gauge task takes NOMINAL_MS; the raw times and the readings go to
    the result file.
    """

    NOMINAL_MS = 7.0
    EVERY_S = 0.5

    def __init__(self, exponent: float):
        self.exponent = exponent
        self.readings: list[tuple[float, float]] = []  # (perf_counter, ms)

    def read(self) -> int:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            state, acc = 12345, 0
            for _ in range(20000):
                state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
                acc |= 1 << (z % 600)
            best = min(best, time.perf_counter() - start)
        self.readings.append((time.perf_counter(), 1000.0 * best))
        return len(self.readings) - 1

    def read_if_due(self) -> int:
        if not self.readings or time.perf_counter() - self.readings[-1][0] >= self.EVERY_S:
            return self.read()
        return len(self.readings) - 1

    def slowdown(self, i: int) -> float:
        """How much slower than nominal the machine ran at reading i."""
        return (self.readings[i][1] / self.NOMINAL_MS) ** self.exponent

    def scale(self, i: int) -> float:
        """Factor for an interval between reading i and reading i + 1."""
        g = (self.readings[i][1] + self.readings[i + 1][1]) / 2
        return (self.NOMINAL_MS / g) ** self.exponent


@dataclass
class Sample:
    index: int  # position of the op in its pass
    op: object
    seconds: float  # raw wall time
    reading: int  # the gauge reading taken just before the op
    outcome: object
    phase: str  # untraced | traced | parallel


def execute(op, tracer=None) -> tuple[float, Outcome]:
    """Time op.run(), then check what it returned."""
    start = time.perf_counter()
    raised = None
    try:
        raw = op.run()
    except Exception as exc:  # an op that raises fails; the run goes on
        raised = exc
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.close_open()
        tracer.trial = None
    try:
        if raised is not None:
            raise raised
        outcome = op.check(raw)
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        outcome = Outcome(problems=[f"raised {type(exc).__name__}: {exc} "
                                    f"at {where.filename}:{where.lineno}"])
    return seconds, outcome


def execute_in_child(op) -> tuple[float, Outcome]:
    """execute(op) in a forked child, which sends the result back through
    a pipe; the child's memory does not count towards this process's peak
    RSS.  The child has always ended when this returns."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            result = execute(op)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    reaped = False
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status != 0 or not data:
        return 0.0, Outcome(problems=[f"isolated op ended with wait status {status} and no result"])
    return pickle.loads(data)


def run_pass(workload, ops, phase: str, gauge: SpeedGauge, tracer=None) -> list[Sample]:
    samples = []
    for index, op in enumerate(ops):
        reading = gauge.read_if_due()
        workload.slowdown = gauge.slowdown(reading)
        # Start every op from the same heap: garbage a previous op left in
        # reference cycles is collected here, outside the timed region.
        gc.collect()
        if tracer is not None:
            tracer.trial = " ".join(f"{k}={v}" for k, v in op.coords.items() if k != "workload")
            seconds, outcome = execute(op, tracer)
        elif op.isolate:
            seconds, outcome = execute_in_child(op)
        else:
            seconds, outcome = execute(op)
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += outcome.output_bytes
        if outcome.digest is not None:
            key, digest = outcome.digest
            pinned = workload.pinned(key)
            if pinned is not None and pinned != digest:
                outcome.problems.append(f"output digest {digest[:16]} differs from pinned {pinned[:16]}")
        samples.append(Sample(index, op, seconds, reading, outcome, phase))
    gauge.read()
    return samples


def remove_tmp(tmp: Path) -> None:
    """Delete a run's scratch directory, and its parent once it is empty."""
    shutil.rmtree(tmp, ignore_errors=True)
    if tmp.parent.is_dir() and not any(tmp.parent.iterdir()):
        tmp.parent.rmdir()


def run(name: str, seed: int, seconds: float, trace: bool, cfg=None, pins=None, quiet=False) -> dict:
    """One benchmark run; returns the result record (also printed)."""
    cfg = (cfg or CONFIG)[name]
    if pins is None:
        pins = json.loads(PINS_PATH.read_text())
    pins = pins[name]
    if pins["config"] != pinned_config(name, cfg):
        raise SystemExit(f"error: pins.json was made for another {name} config; rerun perfbench/pin.py")
    cls = WORKLOADS[name]
    tmp = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    os.environ.pop(THREADS_ENV, None)
    started = time.perf_counter()
    gauge = SpeedGauge(cfg["gauge_exponent"])
    setup_times: list[float] = []  # scaled by the gauge

    def set_up():
        reading = gauge.read()
        t0 = time.perf_counter()
        workload = cls(cfg, pins, cls.select(cfg, pins, seed), tmp)
        workload.setup()
        seconds = time.perf_counter() - t0
        gauge.read()
        setup_times.append(seconds * gauge.scale(reading))
        return workload

    def set_up_again():
        # Repeated set-ups are spread between passes, not run back to back,
        # so that their median does not hang on one moment of the machine.
        if len(setup_times) < cfg["setup_repeats"]:
            set_up()

    try:
        workload = set_up()
        ops = workload.ops()
        if workload.capture is not None:
            workload.capture.install()
        try:
            samples, layer = measure(workload, ops, seconds, trace, gauge, set_up_again)
        finally:
            if workload.capture is not None:
                workload.capture.uninstall()
        while len(setup_times) < cfg["setup_repeats"]:
            set_up()
    finally:
        remove_tmp(tmp)
    if layer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        layer[0].write_jsonl(OUT_DIR / f"{name}-seed{seed}.spans.jsonl", started)
    return report(name, seed, seconds, trace, workload, samples, gauge, setup_times, layer, quiet)


def measure(workload, ops, seconds, trace, gauge, between_passes):
    """Whole passes over the ops until `seconds` have gone by.  A traced
    run alternates untraced and traced passes, then makes one untraced
    pass with MONOTREE_THREADS set."""
    t0 = time.perf_counter()
    samples: list[Sample] = []
    passes = 0
    if not trace:
        while passes < MIN_PASSES or time.perf_counter() - t0 < seconds:
            if passes:
                between_passes()
            samples += run_pass(workload, ops, "untraced", gauge)
            passes += 1
        return samples, None
    tracer = Tracer()
    while not passes or time.perf_counter() - t0 < seconds:
        if passes:
            between_passes()
        samples += run_pass(workload, ops, "untraced", gauge)
        tracer.install()
        workload.tracer = tracer
        try:
            samples += run_pass(workload, ops, "traced", gauge, tracer)
        finally:
            workload.tracer = None
            tracer.uninstall()
        passes += 1
    os.environ[THREADS_ENV] = str(min(2, len(os.sched_getaffinity(0))))
    try:
        samples += run_pass(workload, ops, "parallel", gauge)
    finally:
        os.environ.pop(THREADS_ENV, None)

    def op_time(phase):
        return sum(s.seconds * gauge.scale(s.reading) for s in samples if s.phase == phase)

    speedup = op_time("untraced") / passes / op_time("parallel")
    overhead = op_time("traced") / op_time("untraced") - 1.0
    return samples, (tracer, speedup, overhead)


def per_op_median(samples, gauge) -> list[tuple]:
    """(op, seconds, latency ms, failed) for each op of a pass: its median
    scaled time over the passes; a failed op misses every latency limit."""
    by_index: dict[int, list[Sample]] = {}
    for s in samples:
        by_index.setdefault(s.index, []).append(s)
    out = []
    for group in by_index.values():
        failed = any(s.outcome.failed for s in group)
        secs = statistics.median(s.seconds * gauge.scale(s.reading) for s in group)
        out.append((group[0], secs, float("inf") if failed else 1000.0 * secs, failed))
    return out


def interpolated(sorted_values: list[float], q: float) -> float:
    """Percentile by linear interpolation between the two nearest ranks
    (numpy's default), so that the p50 of two ops is their mean rather than
    the faster one; an infinity (a failed op) at either rank gives one."""
    pos = q * (len(sorted_values) - 1)
    lo, hi = sorted_values[math.floor(pos)], sorted_values[math.ceil(pos)]
    if hi == float("inf"):
        return hi
    return lo + (hi - lo) * (pos - math.floor(pos))


def percentile_ms(per_op, kind, q):
    xs = sorted(ms for s, _, ms, _ in per_op if s.op.kind == kind)
    if not xs:
        return None, 0
    value = interpolated(xs, q)
    return (value if value != float("inf") else None), len(xs)


def report(name, seed, seconds, trace, workload, samples, gauge, setup_times, layer, quiet) -> dict:
    attempted = len(samples)
    failed = sum(s.outcome.failed for s in samples)
    correct = not any(s.outcome.problems for s in samples)
    untraced = [s for s in samples if s.phase == "untraced"]
    passes = len(untraced) // len({s.index for s in untraced})
    per_op = per_op_median(untraced, gauge)
    instances = sum(s.outcome.instances for s, _, _, _ in per_op)
    sizes = [z for s, _, _, _ in per_op for z in s.outcome.sizes]
    head_p50, _ = percentile_ms(per_op, workload.headline, 0.5)
    e2e = {
        "instances_per_s": instances / sum(secs for _, secs, _, _ in per_op),
        "op_p50_ms": head_p50,
        "mean_cover_size": statistics.fmean(sizes) if sizes else None,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Per-workload names for the same figures, each with the number of
    # distinct ops or instances it rests on.
    views = {"failed_share": (failed / attempted, "ratio", attempted)}
    if name != "file-solve":
        views["trials_per_s"] = (e2e["instances_per_s"], "1/s", instances)
    for view, kind, q in LATENCY_VIEWS[name]:
        value, count = percentile_ms(per_op, kind, q)
        views[view] = (value, "ms", count)

    failures = [{**s.op.coords, "phase": s.phase, "seconds": s.seconds,
                 "abandoned_in": s.outcome.abandoned, "problems": s.outcome.problems}
                for s in samples if s.outcome.failed]
    digests = [s.outcome.digest for s in samples if s.outcome.digest is not None]
    unpinned = sorted({key for key, _ in digests if workload.pinned(key) is None})

    values = None
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}: "
             f"{attempted} ops in {passes} untraced passes, {failed} failed, correct={correct}"]
    if layer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        for k, v in e2e.items():
            lines.append(f"  {k:<20} {fmt(v):>14} {END_TO_END[k]}")
        for k, (v, unit, count) in views.items():
            lines.append(f"  {k:<20} {fmt(v):>14} {unit:<6} (n={count})")
    else:
        tracer, speedup, overhead = layer
        values = tracer.layer_metrics(speedup, overhead)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        lines += tracer.layer_table()
        for k, v in values.items():
            lines.append(f"  {k:<44} {fmt(v):>14} {per_layer_unit(k)}")
    gauge_ms = [ms for _, ms in gauge.readings]
    lines.append(f"  times scaled to a {SpeedGauge.NOMINAL_MS} ms gauge; {len(gauge_ms)} readings here, "
                 f"median {statistics.median(gauge_ms):.2f} ms, range {min(gauge_ms):.2f}-{max(gauge_ms):.2f}")
    for f in failures:
        lines.append(f"  FAILED {json.dumps(f)}")
    if unpinned:
        lines.append(f"  note: {len(unpinned)} outputs have no pinned digest")

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "gauge_ms": [ms for _, ms in gauge.readings],
              "selection": workload.selection, "setup_times_s": setup_times,
              "end_to_end": e2e, "views": {k: v[0] for k, v in views.items()}, "per_layer": values,
              "failures": failures, "unpinned": unpinned,
              "ops": [{**s.op.coords, "phase": s.phase, "raw_ms": 1000 * s.seconds, "reading": s.reading,
                       "scale": gauge.scale(s.reading), "failed": s.outcome.failed} for s in samples]}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if not quiet:
        print("\n".join(lines))
        print(json.dumps(result))
    return result | {"lines": lines}


def fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.4f}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
