"""Deterministic experiment driver for threshold probing.

Sweeps a grid of (n, p, colouring-mode) cells, solves `trials` sampled
instances per cell, and aggregates per-cell summaries.  The work unit is
(n, p, trial): it samples one G(n, p) and colours that graph in every
mode of the config, one trial record per mode, so the random and
three-star trials of a unit see the same graph.  A unit's seeds are
derived from (master seed, n, p, trial index) alone, so its records do
not depend on which units ran before it, and the summaries depend only
on the config.  This module does no I/O: the caller writes the
summaries out.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

from .graphs import (
    MAX_VERTICES,
    Colour,
    ColouredGraph,
    colour_random,
    colour_three_stars,
    first_nonadjacent_triple,
    generate_gnp,
    random_coloured_gnp,
)
from .rng import MASK64, finalise64
from .solver import BRANCH_ALPHA3, BRANCHES, solve_cover

MODE_RANDOM = "random"
MODE_THREE_STAR = "three-star"
MODES = (MODE_RANDOM, MODE_THREE_STAR)

# A trial record reports the exact cover size only up to this many
# components, so `exact_available` means every completed trial of the cell
# had at most this many.  It stays because pinned probe outputs and trial
# digests depend on it.
REPORTED_EXACT_MAX_COMPONENTS = 60

# One count column per solver branch, in BRANCHES order; the column for
# alpha-ge3 is named a3.
_BRANCH_KEYS = tuple(
    "branch_" + ("a3" if name == BRANCH_ALPHA3 else name) for name in BRANCHES
)

CSV_HEADER = ",".join(
    ("n", "p", "mode", "trials", "frac_le3", "mean_size", *_BRANCH_KEYS, "exact_available")
)

@dataclass(frozen=True)
class ExperimentConfig:
    """Grid definition: n values, p given either explicitly or as
    scale * (ln n / n) ** exponent per n, trials per cell, colouring
    modes and master seed.  Which trials report an exact cover size is
    fixed by `REPORTED_EXACT_MAX_COMPONENTS`."""

    n_values: tuple[int, ...]
    trials: int
    seed: int
    p_values: tuple[float, ...] = ()
    p_exponent: float | None = None
    p_scales: tuple[float, ...] = ()
    modes: tuple[str, ...] = (MODE_RANDOM,)

    def __post_init__(self):
        if not self.n_values:
            raise ValueError("need at least one n value")
        for n in self.n_values:
            if n < 0:
                raise ValueError(f"n values must be non-negative, got n={n}")
            if n > MAX_VERTICES:
                raise ValueError(f"n values must be at most {MAX_VERTICES}, got n={n}")
            if self.p_exponent is not None and n < 2:
                raise ValueError(f"p_exponent needs every n >= 2, got n={n}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if bool(self.p_values) == (self.p_exponent is not None):
            raise ValueError("specify exactly one of p_values or p_exponent")
        if self.p_exponent is not None and not self.p_scales:
            raise ValueError("p_exponent requires p_scales")
        if self.p_values and self.p_scales:
            raise ValueError("p_scales requires p_exponent, not p_values")
        if not self.modes:
            raise ValueError("need at least one colouring mode")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown colouring mode {mode!r}")
        if MODE_THREE_STAR in self.modes and min(self.n_values) < 4:
            raise ValueError("three-star mode needs n >= 4")
        cells = self.cells()
        for n, p, _ in cells:
            if not 0.0 < p <= 1.0:
                raise ValueError(f"cell (n={n}) has p={p} outside (0, 1]")
        for cell, following in zip(cells, cells[1:]):
            if cell == following:
                n, p, mode = cell
                raise ValueError(f"cell (n={n}, p={p}, mode={mode}) is listed more than once")

    def p_for(self, n: int) -> tuple[float, ...]:
        if self.p_values:
            return self.p_values
        base = (math.log(n) / n) ** self.p_exponent
        return tuple(scale * base for scale in self.p_scales)

    def cells(self) -> list[tuple[int, float, str]]:
        out = [
            (n, p, mode)
            for n in self.n_values
            for p in self.p_for(n)
            for mode in self.modes
        ]
        return sorted(out)


@dataclass(frozen=True)
class TrialRecord:
    size: int | None  # None for a skipped trial
    branch: str | None
    exact_size: int | None

    @property
    def skipped(self) -> bool:
        return self.size is None


def _float_bits(p: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", p))[0]


def _mix(seed: int, value: int) -> int:
    return finalise64((seed ^ (value & MASK64)) * 0x9E3779B97F4A7C15 & MASK64)


def trial_seed(master: int, n: int, p: float, mode: str, trial: int) -> int:
    """Per-trial seed: a mix chain over the cell coordinates and trial
    index, independent of cell enumeration order.  A unit (n, p, trial)
    samples its graph from the random mode's seed, whatever its modes, and
    the random mode takes its colours from that seed too; the three-star
    colouring draws nothing, so the three-star seed is not used."""
    s = _mix(master, n)
    s = _mix(s, _float_bits(p))
    s = _mix(s, MODES.index(mode))
    return _mix(s, trial)


def _solved(cg: ColouredGraph) -> TrialRecord:
    cover, trace = solve_cover(cg)
    small = trace.component_count <= REPORTED_EXACT_MAX_COMPONENTS
    return TrialRecord(cover.size, trace.branch, trace.exact_size if small else None)


def _run_unit(
    cfg: ExperimentConfig, n: int, p: float, trial: int, modes: tuple[str, ...]
) -> list[TrialRecord]:
    """One sampled G(n, p), coloured and solved in each of `modes`: one
    record per mode, in the order given.  The graph comes from
    `_mix(seed, 0)` and the random colours from `_mix(seed, 1)`, seed the
    random mode's trial seed.  A random-only unit samples and colours in
    `random_coloured_gnp`'s one pass, which gives the same coloured graph;
    a three-star-only unit draws no colours.  A three-star trial with no
    non-adjacent triple is recorded as skipped, never raised."""
    seed = trial_seed(cfg.seed, n, p, MODE_RANDOM, trial)
    if modes == (MODE_RANDOM,):
        return [_solved(random_coloured_gnp(n, p, _mix(seed, 0), _mix(seed, 1)))]
    g = generate_gnp(n, p, _mix(seed, 0))
    records = []
    for mode in modes:
        if mode == MODE_RANDOM:
            cg = colour_random(g, _mix(seed, 1))
        else:
            triple = first_nonadjacent_triple(g.adj)
            if triple is None:
                records.append(TrialRecord(None, None, None))
                continue
            cg = colour_three_stars(g, *triple, base=Colour.RED)
        records.append(_solved(cg))
    return records


def run_trial(cfg: ExperimentConfig, n: int, p: float, mode: str, trial: int) -> TrialRecord:
    """One mode's trial of the unit (n, p, trial), fully determined by
    (seed, n, p, trial index): the record that `probe_threshold` keeps for
    that mode, whichever other modes the config has."""
    (record,) = _run_unit(cfg, n, p, trial, (mode,))
    return record


@dataclass(frozen=True)
class CellSummary:
    n: int
    p: float
    mode: str
    trials: int  # completed (non-skipped) trials
    frac_le3: float
    mean_size: float
    branch_counts: tuple[int, ...]  # aligned with solver.BRANCHES
    exact_available: bool

    def csv_row(self) -> str:
        cols = [
            str(self.n),
            repr(self.p),
            self.mode,
            str(self.trials),
            f"{self.frac_le3:.6f}",
            f"{self.mean_size:.6f}",
            *[str(c) for c in self.branch_counts],
            "true" if self.exact_available else "false",
        ]
        return ",".join(cols)

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "p": self.p,
            "mode": self.mode,
            "trials": self.trials,
            "frac_le3": round(self.frac_le3, 6),
            "mean_size": round(self.mean_size, 6),
            "exact_available": self.exact_available,
        }
        out.update(zip(_BRANCH_KEYS, self.branch_counts))
        return out


def _summarise(n: int, p: float, mode: str, records: list[TrialRecord]) -> CellSummary:
    done = [r for r in records if not r.skipped]
    counts = dict.fromkeys(BRANCHES, 0)
    le3 = 0
    total = 0
    for r in done:
        assert r.size is not None and r.branch is not None
        counts[r.branch] += 1
        total += r.size
        if r.size <= 3:
            le3 += 1
    trials = len(done)
    return CellSummary(
        n,
        p,
        mode,
        trials,
        le3 / trials if trials else 0.0,
        total / trials if trials else 0.0,
        tuple(counts[name] for name in BRANCHES),
        bool(done) and all(r.exact_size is not None for r in done),
    )


def probe_threshold(cfg: ExperimentConfig) -> list[CellSummary]:
    """Run the grid one (n, p) at a time, units in trial order, and return
    per-cell summaries sorted by (n, p, mode).  They depend only on the
    config."""
    modes = tuple(sorted(cfg.modes))
    rows = []
    for n, p in sorted({(n, p) for n, p, _ in cfg.cells()}):
        units = [_run_unit(cfg, n, p, t, modes) for t in range(cfg.trials)]
        rows += [_summarise(n, p, mode, [u[i] for u in units]) for i, mode in enumerate(modes)]
    return rows
