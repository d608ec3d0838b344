"""Statistical regularity checks for sampled graphs.

Three checks used as diagnostics and acceptance gates: pairwise edge
density between disjoint vertex sets, degree concentration, and
common-neighbourhood sizes of small tuples.  Each compares an observed
count against the band (1 +- epsilon) times its expectation under edge
probability p.  A check is marked "vacuous", counting no pass, when it
has nothing to sample: too few vertices, or for edge density no
qualifying set size at p = 0.  Only the common-neighbourhood check also
marks a tuple size "regime-invalid", counting no pass, when its
expectation is below 1/epsilon; the degree and edge-density checks tally
counts against any expectation, 0 included.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .graphs import SimpleGraph, check_probability
from .rng import SplitMix64, derive_seed


@dataclass(frozen=True)
class PseudorandomConfig:
    """Tolerances and sample counts for the regularity checks.

    `pair_size` overrides the qualifying set size with an explicit
    |X| = |Y|.
    """

    epsilon: float = 0.1
    max_tuple: int = 4
    density_samples: int = 200
    neighbourhood_samples: int = 100
    pair_size: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not 1 <= self.max_tuple <= 6:
            raise ValueError("max_tuple must lie in 1..6")
        if self.density_samples < 1 or self.neighbourhood_samples < 1:
            raise ValueError("sample counts must be positive")
        if self.pair_size is not None and self.pair_size < 1:
            raise ValueError("pair_size must be positive")


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one check: counts, worst deviation, failing witnesses."""

    label: str
    status: str  # "ok" | "vacuous" | "regime-invalid"
    passes: int = 0
    fails: int = 0
    worst_deviation: float = 0.0
    witnesses: tuple = ()
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "status": self.status,
            "passes": self.passes,
            "fails": self.fails,
            "worst_deviation": self.worst_deviation,
            "witnesses": [list(w) for w in self.witnesses],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class CheckReport:
    outcomes: tuple[CheckOutcome, ...]

    def to_json(self) -> dict:
        return {"outcomes": [o.to_json() for o in self.outcomes]}


_MAX_WITNESSES = 8


def _tally(
    label: str,
    observed: Iterable[tuple],
    mean: float,
    epsilon: float,
    min_count: float = 0.0,
    notes: tuple[str, ...] = (),
) -> CheckOutcome:
    """Fold (witness key, count) pairs into an "ok" outcome: a count passes
    inside max((1 - epsilon) * mean, min_count) .. (1 + epsilon) * mean."""
    lo, hi = max((1 - epsilon) * mean, min_count), (1 + epsilon) * mean
    passes = fails = 0
    worst = 0.0
    witnesses: list[tuple] = []
    for key, count in observed:
        deviation = abs(count - mean) / mean if mean else float(count)
        worst = max(worst, deviation)
        if lo <= count <= hi:
            passes += 1
        else:
            fails += 1
            if len(witnesses) < _MAX_WITNESSES:
                witnesses.append((key, count))
    return CheckOutcome(label, "ok", passes, fails, worst, tuple(witnesses), notes)


# Makes "much larger than ln(n)/p" concrete as 10 ln(n)/p.
_QUALIFYING_SIZE_FACTOR = 10.0


def check_edge_density(
    g: SimpleGraph, p: float, cfg: PseudorandomConfig, seed: int
) -> CheckReport:
    """Sampled check that disjoint vertex sets X, Y of qualifying size span
    (1 +- epsilon) * p * |X| * |Y| edges, and at least one edge.

    Set sizes default to the minimum qualifying size, 10 ln(n)/p rounded
    up, and can be pinned with `pair_size`.  Marked vacuous, with a note
    naming the reason, when there is no qualifying size (fewer than two
    vertices, or p = 0) or the graph is too small to host two disjoint
    sets of it.
    """
    check_probability(p)
    n = g.n
    size = cfg.pair_size
    if size is None and n >= 2 and p > 0:
        size = max(1, math.ceil(_QUALIFYING_SIZE_FACTOR * math.log(n) / p))
    if size is None or 2 * size > n:
        if size is not None:
            note = f"no two disjoint sets of size {size} fit in {n} vertices"
        elif n < 2:
            note = f"no qualifying set size: fewer than 2 vertices ({n})"
        else:
            note = "no qualifying set size: 10 ln(n)/p is unbounded at p = 0"
        return CheckReport((CheckOutcome("edge-density", "vacuous", notes=(note,)),))
    mean = p * size * size

    def span(s: int) -> int:
        picked = SplitMix64(derive_seed(seed, s)).sample(n, 2 * size)
        y_mask = 0
        for v in picked[size:]:
            y_mask |= 1 << v
        return sum((g.adj[u] & y_mask).bit_count() for u in picked[:size])

    observed = ((s, span(s)) for s in range(cfg.density_samples))
    outcome = _tally("edge-density", observed, mean, cfg.epsilon, min_count=1)
    return CheckReport((outcome,))


def check_degrees(g: SimpleGraph, p: float, cfg: PseudorandomConfig) -> CheckReport:
    """Exact check that every vertex degree lies in (1 +- epsilon) * p * n."""
    check_probability(p)
    n = g.n
    if n == 0:
        return CheckReport(
            (CheckOutcome("degrees", "vacuous", notes=("empty graph",)),)
        )
    mean = p * n
    notes: tuple[str, ...] = ()
    if p >= 1.0 and cfg.epsilon < 1.0 / n:
        notes = (f"complete-graph degree n-1 needs epsilon >= 1/n = {1.0 / n:.3g}",)
    observed = ((v, g.degree(v)) for v in range(n))
    return CheckReport((_tally("degrees", observed, mean, cfg.epsilon, notes=notes),))


def check_common_neighbourhoods(
    g: SimpleGraph, p: float, cfg: PseudorandomConfig, seed: int
) -> CheckReport:
    """Sampled check that every i-set of vertices, i up to `max_tuple`, has
    (1 +- epsilon) * p^i * n common neighbours (tuple members excluded from
    the count).

    A tuple size whose expected count p^i * n falls below 1/epsilon is
    marked regime-invalid instead of being tested.
    """
    check_probability(p)
    n = g.n
    outcomes: list[CheckOutcome] = []
    for i in range(1, cfg.max_tuple + 1):
        label = f"common-neighbourhood i={i}"
        if n < i + 1:
            outcomes.append(
                CheckOutcome(label, "vacuous", notes=(f"need more than {i} vertices",))
            )
            continue
        mean = (p**i) * n
        if mean < 1.0 / cfg.epsilon:
            outcomes.append(
                CheckOutcome(
                    label,
                    "regime-invalid",
                    notes=(f"expected count {mean:.3g} below 1/epsilon",),
                )
            )
            continue
        first = i * cfg.neighbourhood_samples
        tuples = (
            SplitMix64(derive_seed(seed, first + s)).sample(n, i)
            for s in range(cfg.neighbourhood_samples)
        )
        observed = (
            (tuple(sorted(tup)), g.common_neighbourhood(tup).bit_count())
            for tup in tuples
        )
        outcomes.append(_tally(label, observed, mean, cfg.epsilon))
    return CheckReport(tuple(outcomes))
