"""The three benchmark workloads: what each one runs and how it checks it.

Every workload draws its inputs from a pinned universe (see pins.json and
pin.py) with the master seed, so every output it produces can be compared
with a pinned SHA-256 digest, on top of an independent re-check of every
cover with `monotree.verify_cover`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import signal
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import monotree
from monotree import cli, experiment, graphs

from tracing import Abandoned

# gauge_exponent: how strongly a workload's op times follow the machine
# speed gauge (run.SpeedGauge), as the slope of log op time on log gauge
# reading across passes on the 2-core machine this was built on: 0.99 for
# dense-probe, 0.79 for sparse-exact; for the memory-heavy file-solve 0.51
# in one batch of ten runs and 0.70 and 0.60 in two later ones (0.66 pooled).
CONFIG = {
    "dense-probe": {
        "n": [300, 600], "p_scale": 1.5, "trials": 1, "universe": 48, "calls": 4,
        "warmup_n": [100], "setup_repeats": 5, "gauge_exponent": 1.0,
    },
    "sparse-exact": {
        "cells": [[100, 0.03], [100, 0.05], [100, 0.08], [60, 0.1]], "exp_seed": 42,
        "universe": [160, 100, 100, 100], "draw": [0.9, 0.5, 0.5, 0.5], "defects": 1,
        "deadline_s": 1.0, "pin_cap_s": 10.0, "warmup_cells": [[100, 0.05], [100, 0.08], [60, 0.1]],
        "setup_repeats": 5, "gauge_exponent": 0.8,
    },
    "file-solve": {"n": 1200, "p_scale": 1.5, "universe": 6, "setup_repeats": 3, "gauge_exponent": 0.7},
}


# The config keys a workload's pinned universe depends on; changing any of
# them needs a re-pin.
PINNED_KEYS = {
    "dense-probe": ("n", "p_scale", "trials", "universe"),
    "sparse-exact": ("cells", "exp_seed", "universe", "deadline_s", "pin_cap_s"),
    "file-solve": ("n", "p_scale", "universe"),
}


def pinned_config(name: str, cfg: dict) -> dict:
    return {k: cfg[k] for k in PINNED_KEYS[name]}


def criterion_p(n: int, scale: float) -> float:
    """p = scale * (ln n / n)^(1/6), as `monotree probe --p-exp 1/6` computes it."""
    return scale * (math.log(n) / n) ** (1 / 6)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Outcome:
    instances: int = 0
    sizes: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # wrong output: the op failed
    abandoned: str | None = None  # where the deadline found it
    digest: tuple[str, str] | None = None  # (pin key, sha256 of the deterministic output)
    output_bytes: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems) or self.abandoned is not None


@dataclass
class Op:
    kind: str
    coords: dict  # workload, n, p, mode, trial or file, seed: enough to rerun it
    run: Callable[[], object]  # the timed call into monotree
    check: Callable[[object], Outcome]  # untimed: verify what run returned
    # Run in a forked child when untraced, so that the memory the op holds
    # does not count towards the runner's peak RSS.
    isolate: bool = False


class CoverCapture:
    """Keeps what `monotree.experiment.solve_cover` returns, so that every
    cover a probe or trial produced can be re-verified after the op."""

    def __init__(self):
        self.items: list[tuple] = []
        self._orig = None

    def install(self) -> None:
        self._orig = orig = experiment.solve_cover

        def capture(cg, *args, **kwargs):
            cover, trace = orig(cg, *args, **kwargs)
            self.items.append((cg, cover, trace))
            return cover, trace

        experiment.solve_cover = capture

    def uninstall(self) -> None:
        experiment.solve_cover = self._orig

    def take(self) -> list[tuple]:
        items, self.items = self.items, []
        return items


def cover_problems(cg, cover, exact_size) -> list[str]:
    """Independent re-check: the tree cover is valid, and optimal whenever
    the exact search ran."""
    problems = list(monotree.verify_cover(cg, cover))
    if exact_size is not None and cover.size != exact_size:
        problems.append(f"cover size {cover.size} but exact optimum {exact_size}")
    return problems


def _monotree_call_chain(frame) -> str:
    """The monotree functions on the stack, outermost first, with
    recursive repeats collapsed."""
    chain: list[str] = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        name = f"{module}.{frame.f_code.co_qualname}"
        if module.startswith("monotree") and (not chain or chain[-1] != name):
            chain.append(name)
        frame = frame.f_back
    return " > ".join(reversed(chain)) or "outside monotree"


@contextlib.contextmanager
def deadline(seconds: float, tracer=None):
    """Abandon the body after `seconds` of wall time by raising Abandoned
    into whatever Python code is running (SIGALRM, main thread only)."""

    def fire(signum, frame):
        where = _monotree_call_chain(frame)
        if tracer is not None and tracer.stack:
            where += " [open spans: " + " > ".join(tracer.spans[i][1] for i in tracer.stack) + "]"
        raise Abandoned(where)

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _capture_stdout(fn, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = fn(*args)
    return rc, out.getvalue()


class Workload:
    name = ""
    headline = ""  # op kind whose latency is op_p50_ms
    capture: CoverCapture | None = None

    def __init__(self, cfg: dict, pins: dict, selection, tmp: Path):
        self.cfg, self.items, self.selection, self.tmp = cfg, pins["items"], selection, tmp
        self.tracer = None
        # Wall time per nominal second, from the runner's speed gauge.
        self.slowdown = 1.0

    def pinned(self, key: str) -> str | None:
        return self.items.get(key, {}).get("sha256")


class DenseProbe(Workload):
    """In-process `monotree probe --mode both` at the paper's density."""

    name, headline = "dense-probe", "probe"

    def __init__(self, cfg, pins, selection, tmp):
        super().__init__(cfg, pins, selection, tmp)
        self.capture = CoverCapture()
        self.csv = tmp / "probe.csv"

    @staticmethod
    def select(cfg: dict, pins: dict, seed: int) -> list[int]:
        return random.Random(seed).sample(range(cfg["universe"]), cfg["calls"])

    def _argv(self, exp_seed: int, n_values) -> list[str]:
        return ["probe", "--n", ",".join(map(str, n_values)), "--p-exp", "1/6",
                "--p-scale", repr(self.cfg["p_scale"]), "--trials", str(self.cfg["trials"]),
                "--mode", "both", "--seed", str(exp_seed), "--out", str(self.csv)]

    def setup(self) -> None:
        self.tmp.mkdir(parents=True, exist_ok=True)
        rc, _ = _capture_stdout(cli.main, self._argv(0, self.cfg["warmup_n"]))
        if rc != 0:
            raise RuntimeError(f"warm-up probe exited with {rc}")

    def ops(self) -> list[Op]:
        return [Op("probe", {"workload": self.name, "n": self.cfg["n"], "p_scale": self.cfg["p_scale"],
                             "mode": "both", "trials": self.cfg["trials"], "seed": s},
                   partial(self._run, s), partial(self._check, s))
                for s in self.selection]

    def _run(self, exp_seed):
        self.capture.take()
        rc, stdout = _capture_stdout(cli.main, self._argv(exp_seed, self.cfg["n"]))
        return rc, stdout, self.capture.take()

    def _check(self, exp_seed, raw) -> Outcome:
        rc, stdout, solved = raw
        data = self.csv.read_bytes()
        o = Outcome(instances=len(solved), digest=(str(exp_seed), sha256(data)),
                    output_bytes=len(stdout) + len(data))
        if rc != 0:
            o.problems.append(f"probe exited with {rc}")
        rows = data.decode().splitlines()[1:]
        solved_in_csv = sum(int(row.split(",")[3]) for row in rows)
        if solved_in_csv != len(solved):
            o.problems.append(f"CSV counts {solved_in_csv} trials, {len(solved)} were solved")
        for cg, cover, trace in solved:
            o.problems += cover_problems(cg, cover, trace.exact_size)
            o.sizes.append(cover.size)
        return o


class SparseExact(Workload):
    """`run_trial` on sparse cells, where the exact search dominates; each
    trial runs under a wall-clock deadline enforced from outside.  The
    deadline is `deadline_s` on a machine running at the gauge's nominal
    speed, stretched by the measured slowdown, so that an abandoned trial
    has done about the same work however busy the machine is.

    The trials pinned as defects are isolated (see Op): their search memo
    grows by about 10 MB per second until the deadline cuts it, so the
    memory they reach measures the deadline and the machine's speed at
    that moment, not the program."""

    name, headline = "sparse-exact", "trial"

    def __init__(self, cfg, pins, selection, tmp):
        super().__init__(cfg, pins, selection, tmp)
        self.capture = CoverCapture()
        self.exp = {(n, p): experiment.ExperimentConfig(n_values=(n,), trials=1, seed=cfg["exp_seed"],
                                                       p_values=(p,))
                    for n, p in cfg["cells"]}

    @staticmethod
    def key(n: int, p: float, trial: int) -> str:
        return f"n={n} p={p!r} trial={trial}"

    @staticmethod
    def select(cfg: dict, pins: dict, seed: int) -> list[tuple[int, float, int]]:
        """Stratified draw.  Each cell's pinned trials that finish well
        inside the deadline are sorted by reference time and cut into
        strata, one trial drawn from each; the cell's `draw` share sets the
        number of strata.  The (100, 0.03) cell draws nearly all of its
        trials because their times spread over two orders of magnitude,
        and a smaller draw would make the run's total depend on the seed.
        Then `defects` trials are drawn from those pinned as running far
        past the deadline."""
        items, rng = pins["items"], random.Random(seed)
        plan, defects = [], []
        for (n, p), size, share in zip(cfg["cells"], cfg["universe"], cfg["draw"]):
            runs = []
            for t in range(size):
                item = items[SparseExact.key(n, p, t)]
                if item["class"] == "run":
                    runs.append((item["ref_s"], t))
                elif item["class"] == "defect":
                    defects.append((n, p, t))
            runs.sort()
            k = max(1, round(share * len(runs)))
            plan += [(n, p, rng.choice(runs[i * len(runs) // k:(i + 1) * len(runs) // k])[1])
                     for i in range(k)]
        plan += rng.sample(defects, min(cfg["defects"], len(defects)))
        return sorted(plan)

    def setup(self) -> None:
        for n, p in self.cfg["warmup_cells"]:
            warm = experiment.ExperimentConfig(n_values=(n,), trials=1, seed=0, p_values=(p,))
            experiment.run_trial(warm, n, p, "random", 0)

    def ops(self) -> list[Op]:
        return [Op("trial", {"workload": self.name, "n": n, "p": p, "mode": "random", "trial": t,
                             "seed": self.cfg["exp_seed"]},
                   partial(self._run, n, p, t), partial(self._check, n, p, t),
                   isolate=self.items.get(self.key(n, p, t), {}).get("class") == "defect")
                for n, p, t in self.selection]

    def _run(self, n, p, t):
        self.capture.take()
        try:
            with deadline(self.cfg["deadline_s"] * self.slowdown, self.tracer):
                record = experiment.run_trial(self.exp[(n, p)], n, p, "random", t)
        except Abandoned as exc:
            return Abandoned(*exc.args)  # drop the traceback and the frames it holds
        return record, self.capture.take()

    def _check(self, n, p, t, raw) -> Outcome:
        if isinstance(raw, Abandoned):
            return Outcome(abandoned=str(raw))
        record, solved = raw
        core = [record.size, record.branch, record.exact_size]
        o = Outcome(instances=1, sizes=[record.size],
                    digest=(self.key(n, p, t), sha256(json.dumps(core).encode())))
        if len(solved) != 1:
            o.problems.append(f"{len(solved)} covers solved for one trial")
            return o
        cg, cover, trace = solved[0]
        o.problems += cover_problems(cg, cover, trace.exact_size)
        if (cover.size, trace.branch) != (record.size, record.branch):
            o.problems.append("trial record disagrees with the cover it reports")
        return o


def first_independent_triple(g) -> tuple[int, int, int] | None:
    """Lexicographically smallest pairwise non-adjacent triple: the star
    centres `monotree gen --colouring three-star` uses."""
    full = (1 << g.n) - 1
    for u in range(g.n - 2):
        non_u = full & ~g.adj[u] & ~((1 << (u + 1)) - 1)
        for v in range(u + 1, g.n):
            if (non_u >> v) & 1:
                third = non_u & ~g.adj[v] & ~((1 << (v + 1)) - 1)
                if third:
                    return u, v, (third & -third).bit_length() - 1
    return None


class FileSolve(Workload):
    """In-process `monotree solve FILE` and `monotree shortcut FILE --out`
    on dense instance files; no sampling in the measured ops."""

    name, headline = "file-solve", "solve"
    COLOURINGS = ("random", "three-star")

    def __init__(self, cfg, pins, selection, tmp):
        super().__init__(cfg, pins, selection, tmp)
        self.instances: dict[tuple[int, str], object] = {}

    @staticmethod
    def select(cfg: dict, pins: dict, seed: int) -> list[int]:
        return [random.Random(seed).randrange(cfg["universe"])]

    def path(self, s: int, colouring: str) -> Path:
        return self.tmp / f"g{s}-{colouring}.txt"

    def setup(self) -> None:
        """Write what `monotree gen --n N --p P --seed S --colouring C` writes."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        n = self.cfg["n"]
        for s in self.selection:
            g = graphs.generate_gnp(n, criterion_p(n, self.cfg["p_scale"]), s)
            triple = first_independent_triple(g)
            if triple is None:
                raise RuntimeError(f"instance seed {s} has no independent triple")
            self.instances[(s, "random")] = graphs.colour_random(g, monotree.derive_seed(s, 1))
            self.instances[(s, "three-star")] = graphs.colour_three_stars(g, *triple, base=graphs.Colour.RED)
            for colouring in self.COLOURINGS:
                graphs.store(str(self.path(s, colouring)), self.instances[(s, colouring)])

    def ops(self) -> list[Op]:
        ops = []
        for s in self.selection:
            for colouring in self.COLOURINGS:
                coords = {"workload": self.name, "n": self.cfg["n"], "p_scale": self.cfg["p_scale"],
                          "mode": colouring, "seed": s}
                ops.append(Op("solve", {**coords, "command": "solve"},
                              partial(self._solve, s, colouring), partial(self._check_solve, s, colouring)))
                ops.append(Op("shortcut", {**coords, "command": "shortcut"},
                              partial(self._shortcut, s, colouring),
                              partial(self._check_shortcut, s, colouring)))
        return ops

    def _solve(self, s, colouring):
        return _capture_stdout(cli.main, ["solve", str(self.path(s, colouring))])

    def _shortcut(self, s, colouring):
        out = self.tmp / "shortcut.txt"
        return _capture_stdout(cli.main, ["shortcut", str(self.path(s, colouring)), "--out", str(out)])

    def _check_solve(self, s, colouring, raw) -> Outcome:
        rc, text = raw
        o = Outcome(instances=1, digest=(f"seed={s} {colouring} solve", sha256(text.encode())),
                    output_bytes=len(text))
        data = json.loads(text)
        if rc != 0 or not data["valid"]:
            o.problems.append(f"solve exited with {rc}, valid={data['valid']}")
        trees = []
        for t in data["cover"]:
            parent = {t["root"]: None}
            parent.update({child: par for par, child in t["edges"]})
            if sorted(parent) != t["vertices"]:
                o.problems.append(f"tree rooted at {t['root']}: edges do not span its vertices")
            trees.append(monotree.Tree(graphs.Colour[t["colour"].upper()], t["root"], parent))
        cover = monotree.TreeCover(tuple(trees))
        if cover.size != data["size"]:
            o.problems.append(f"size {data['size']} but {cover.size} trees")
        o.problems += cover_problems(self.instances[(s, colouring)], cover, data["trace"].get("exact_size"))
        o.sizes.append(cover.size)
        return o

    def _check_shortcut(self, s, colouring, raw) -> Outcome:
        rc, stdout = raw
        data = (self.tmp / "shortcut.txt").read_bytes()
        o = Outcome(instances=1, digest=(f"seed={s} {colouring} shortcut", sha256(data)),
                    output_bytes=len(stdout) + len(data))
        if rc != 0:
            o.problems.append(f"shortcut exited with {rc}")
        return o


WORKLOADS = {w.name: w for w in (DenseProbe, SparseExact, FileSolve)}
