"""Spans and counts recorded around the calls into each monotree layer.

The tracer replaces public functions in the module namespace where they
are called (for example `monotree.solver.shortcut_graph`, the name that
`solve_cover` looks up), so nothing inside `src/monotree` changes.  Each
call becomes a span: name, start, end, parent span, the trial it belongs
to, and whether it finished, raised, or was abandoned at a deadline.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  A function imported into several
# modules is wrapped in each one that calls it.
TARGETS = (
    ("monotree.cli", "main", "cli.main"),
    ("monotree.cli", "probe_threshold", "experiment.probe_threshold"),
    ("monotree.cli", "load", "graphs.load"),
    ("monotree.graphs", "loads", "graphs.loads"),
    ("monotree.cli", "dumps", "graphs.dumps"),
    ("monotree.cli", "shortcut_graph", "components.shortcut_graph"),
    ("monotree.cli", "solve_cover", "solver.solve_cover"),
    ("monotree.cli", "verify_cover", "solver.verify_cover"),
    ("monotree.experiment", "run_trial", "experiment.run_trial"),
    ("monotree.experiment", "generate_gnp", "graphs.generate_gnp"),
    ("monotree.experiment", "colour_random", "graphs.colour_random"),
    ("monotree.experiment", "colour_three_stars", "graphs.colour_three_stars"),
    ("monotree.experiment", "solve_cover", "solver.solve_cover"),
    ("monotree.experiment", "monochromatic_components", "components.monochromatic_components"),
    ("monotree.experiment", "build_component_hypergraph", "hypergraph.build_component_hypergraph"),
    ("monotree.experiment", "tau_exact", "hypergraph.tau_exact"),
    ("monotree.solver", "shortcut_graph", "components.shortcut_graph"),
    ("monotree.solver", "alpha_class", "components.alpha_class"),
    ("monotree.solver", "egp_partition_search", "solver.strategy.egp"),
    ("monotree.solver", "strategy_alpha_ge3", "solver.strategy.alpha_ge3"),
    ("monotree.solver", "strategy_alpha2", "solver.strategy.alpha2"),
    ("monotree.solver", "build_component_hypergraph", "hypergraph.build_component_hypergraph"),
    ("monotree.solver", "tau_exact", "hypergraph.tau_exact"),
    ("monotree.solver", "link_union", "hypergraph.link_union"),
    ("monotree.solver", "max_matching_bipartite", "hypergraph.max_matching_bipartite"),
    ("monotree.solver", "konig_cover", "hypergraph.konig_cover"),
    ("monotree.solver", "components_to_trees", "solver.components_to_trees"),
    ("monotree.solver", "verify_cover", "solver.verify_cover"),
    ("monotree.components", "monochromatic_components", "components.monochromatic_components"),
)

STRATEGIES = ("solver.strategy.egp", "solver.strategy.alpha_ge3", "solver.strategy.alpha2")
LINK_ROUTE = ("hypergraph.link_union", "hypergraph.max_matching_bipartite", "hypergraph.konig_cover")

LAYERS = (
    ("sampling", ("graphs.generate_gnp", "graphs.colour_random", "graphs.colour_three_stars")),
    ("text I/O", ("graphs.load", "graphs.loads", "graphs.dumps")),
    ("labelling", ("components.monochromatic_components", "components.shortcut_graph",
                   "components.alpha_class")),
    ("hypergraph", ("hypergraph.build_component_hypergraph", "hypergraph.tau_exact") + LINK_ROUTE),
    ("solver", STRATEGIES + ("solver.components_to_trees", "solver.verify_cover",
                             "solver.solve_cover")),
    ("driver", ("experiment.probe_threshold", "experiment.run_trial")),
    ("cli", ("cli.main",)),
)


class Abandoned(Exception):
    """Raised into a trial that ran past its deadline."""


def _record_counts(name: str, c: defaultdict, args: tuple, result) -> None:
    # What each span adds to the work counters, read from its arguments
    # and result through public attributes only.
    if name == "graphs.generate_gnp":
        c["generate_gnp.pairs"] += args[0] * (args[0] - 1) // 2
    elif name == "graphs.colour_random":
        c["colour_random.edges"] += result.edge_count()
    elif name == "graphs.loads":
        c["loads.bytes"] += len(args[0])
    elif name == "graphs.dumps":
        c["dumps.bytes"] += len(result)
    elif name == "components.monochromatic_components":
        c["component_count"] += result.component_count()
    elif name == "hypergraph.build_component_hypergraph":
        c["hyperedges"] += len(result.edges)
    elif name == "solver.strategy.egp":
        c["strategy.hits"] += result is not None
    elif name in STRATEGIES:
        c["strategy.hits"] += result[0] is not None
    elif name == "solver.solve_cover":
        c["branch." + result[1].branch] += 1
        c["exact_ran"] += result[1].exact_size is not None


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, trial, status]
        self.stack: list[int] = []
        self.trial: str | None = None
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: set[str] = set()  # span names with no wrapped binding left
        self.broken_hooks: set[str] = set()
        self._saved: list[tuple] = []

    def install(self) -> None:
        found: dict[str, bool] = {}
        for module, attr, name in TARGETS:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr, None)
            found.setdefault(name, False)
            if orig is None:
                print(f"warning: {module}.{attr} no longer exists; {name} reads n/a",
                      file=sys.stderr)
                continue
            found[name] = True
            setattr(mod, attr, self._wrap(orig, name))
            self._saved.append((mod, attr, orig))
        self.missing = {name for name, ok in found.items() if not ok}

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def close_open(self) -> None:
        """Close spans left open by a call abandoned mid-way (a deadline
        that fired inside the wrapper's own bookkeeping)."""
        now = time.perf_counter()
        for sid in self.stack:
            self.spans[sid][3], self.spans[sid][6] = now, "abandoned"
        self.stack.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self.trial, "ok"]
            spans.append(span)
            stack.append(span[0])
            outer_trial = self.trial
            if name == "experiment.run_trial":
                n, p, mode, trial = args[1:5]
                self.trial = f"n={n} p={p!r} mode={mode} trial={trial}"
                span[5] = self.trial
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = "abandoned" if isinstance(exc, Abandoned) else "error"
                raise
            finally:
                span[3] = time.perf_counter()
                if stack and stack[-1] == span[0]:
                    stack.pop()
                self.trial = outer_trial
            if name not in self.broken_hooks:
                try:
                    _record_counts(name, self.counts, args, result)
                except (AttributeError, TypeError, IndexError) as exc:
                    print(f"warning: counter for {name} failed ({exc}); its counts read n/a",
                          file=sys.stderr)
                    self.broken_hooks.add(name)
            return result

        return wrapper

    # ---- results -----------------------------------------------------

    def per_name(self) -> dict[str, dict]:
        """calls, self seconds, inclusive durations and abandoned count per span name."""
        child = [0.0] * len(self.spans)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, start, end, _, _, status in self.spans:
            row = out.setdefault(name, {"calls": 0, "self": 0.0, "durations": [], "abandoned": 0})
            row["calls"] += 1
            row["self"] += end - start - child[sid]
            row["durations"].append(end - start)
            row["abandoned"] += status == "abandoned"
        return out

    def write_jsonl(self, path, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, name, start, end, parent, trial, status in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": round(start - t0, 7),
                                    "end": round(end - t0, 7), "parent": parent,
                                    "trial": trial, "status": status}) + "\n")

    def layer_metrics(self, speedup: float, overhead: float) -> dict[str, float | None]:
        """Every per-layer metric; None marks n/a (a wrapped name is gone)."""
        rows = self.per_name()
        counts = self.counts

        def known(*names):
            return not any(n in self.missing for n in names)

        def self_ms(*names):
            if not known(*names):
                return None
            return 1000.0 * sum(rows.get(n, {}).get("self", 0.0) for n in names)

        def calls(*names):
            if not known(*names):
                return None
            return sum(rows.get(n, {}).get("calls", 0) for n in names)

        def counted(key, *names):
            if not known(*names) or any(n in self.broken_hooks for n in names):
                return None
            return counts[key]

        def ratio(num, den):
            if num is None or den is None:
                return None
            return num / den if den else 0.0

        def pct(name, q):
            if not known(name):
                return None
            xs = sorted(rows.get(name, {}).get("durations", []))
            return 1000.0 * nearest_rank(xs, q) if xs else 0.0

        def mb_per_s(key, *names):
            ms = self_ms(*names)
            nbytes = counted(key, names[-1])
            if ms is None or nbytes is None:
                return None
            return nbytes / 1e6 / (ms / 1000.0) if ms else 0.0

        tau = rows.get("hypergraph.tau_exact", {})
        m = {
            "graphs.generate_gnp.ms": self_ms("graphs.generate_gnp"),
            "graphs.generate_gnp.calls": calls("graphs.generate_gnp"),
            "graphs.generate_gnp.pairs": counted("generate_gnp.pairs", "graphs.generate_gnp"),
            "graphs.colour_random.ms": self_ms("graphs.colour_random"),
            "graphs.colour_random.calls": calls("graphs.colour_random"),
            "graphs.colour_random.edges": counted("colour_random.edges", "graphs.colour_random"),
            "graphs.colour_three_stars.ms": self_ms("graphs.colour_three_stars"),
            "graphs.colour_three_stars.calls": calls("graphs.colour_three_stars"),
            "graphs.loads.ms": self_ms("graphs.load", "graphs.loads"),
            "graphs.loads.calls": calls("graphs.loads"),
            "graphs.loads.mb_per_s": mb_per_s("loads.bytes", "graphs.load", "graphs.loads"),
            "graphs.dumps.ms": self_ms("graphs.dumps"),
            "graphs.dumps.calls": calls("graphs.dumps"),
            "graphs.dumps.mb_per_s": mb_per_s("dumps.bytes", "graphs.dumps"),
            "components.monochromatic_components.ms": self_ms("components.monochromatic_components"),
            "components.monochromatic_components.calls": calls("components.monochromatic_components"),
            "components.shortcut_graph.ms": self_ms("components.shortcut_graph"),
            "components.shortcut_graph.calls": calls("components.shortcut_graph"),
            "components.alpha_class.ms": self_ms("components.alpha_class"),
            "components.alpha_class.calls": calls("components.alpha_class"),
            "components.component_count": counted("component_count", "components.monochromatic_components"),
            "hypergraph.build_component_hypergraph.ms": self_ms("hypergraph.build_component_hypergraph"),
            "hypergraph.build_component_hypergraph.calls": calls("hypergraph.build_component_hypergraph"),
            "hypergraph.edges": counted("hyperedges", "hypergraph.build_component_hypergraph"),
            "hypergraph.tau_exact.ms": self_ms("hypergraph.tau_exact"),
            "hypergraph.tau_exact.max_ms": (1000.0 * max(tau["durations"]) if tau else 0.0)
            if known("hypergraph.tau_exact") else None,
            "hypergraph.tau_exact.calls": calls("hypergraph.tau_exact"),
            "hypergraph.tau_exact.abandoned": tau.get("abandoned", 0)
            if known("hypergraph.tau_exact") else None,
            "hypergraph.link_route.ms": self_ms(*LINK_ROUTE),
            "hypergraph.link_route.calls": calls("hypergraph.link_union"),
            "solver.strategy.ms": self_ms(*STRATEGIES),
            "solver.strategy.calls": calls(*STRATEGIES),
            "solver.strategy_hit_ratio": ratio(counted("strategy.hits", *STRATEGIES), calls(*STRATEGIES)),
            "solver.components_to_trees.ms": self_ms("solver.components_to_trees"),
            "solver.components_to_trees.calls": calls("solver.components_to_trees"),
            "solver.verify_cover.ms": self_ms("solver.verify_cover"),
            "solver.verify_cover.calls": calls("solver.verify_cover"),
            "solver.solve_cover.self_ms": self_ms("solver.solve_cover"),
            "solver.solve_cover.calls": calls("solver.solve_cover"),
            "solver.exact_ran_ratio": ratio(counted("exact_ran", "solver.solve_cover"),
                                            calls("solver.solve_cover")),
        }
        for branch in BRANCH_NAMES:
            m[f"solver.branch.{branch}"] = counted("branch." + branch, "solver.solve_cover")
        m.update({
            "experiment.run_trial.p50_ms": pct("experiment.run_trial", 0.5),
            "experiment.run_trial.p90_ms": pct("experiment.run_trial", 0.9),
            "experiment.run_trial.calls": calls("experiment.run_trial"),
            "experiment.driver.self_ms": self_ms("experiment.probe_threshold", "experiment.run_trial"),
            "experiment.parallel_speedup": speedup,
            "cli.self_ms": self_ms("cli.main"),
            "cli.calls": calls("cli.main"),
            "cli.output_bytes": counts["cli.output_bytes"] if known("cli.main") else None,
            "trace.overhead_share": overhead,
        })
        return m

    def layer_table(self) -> list[str]:
        rows = self.per_name()
        total = sum(r["self"] for r in rows.values()) or 1.0
        lines = [f"  {'layer':<11} {'span':<40} {'calls':>7} {'self ms':>11} {'share':>7}"]
        for layer, names in LAYERS:
            for name in names:
                if name in self.missing:
                    lines.append(f"  {layer:<11} {name:<40} {'n/a':>7} {'n/a':>11} {'n/a':>7}")
                    continue
                r = rows.get(name, {"calls": 0, "self": 0.0})
                lines.append(f"  {layer:<11} {name:<40} {r['calls']:>7} "
                             f"{1000 * r['self']:>11.1f} {100 * r['self'] / total:>6.1f}%")
        return lines


# The seven solver branches, as monotree.solver.BRANCHES names them at the
# commit that defined this benchmark.  Pinned here so that a renamed branch
# shows up as a changed metric list rather than silently.
BRANCH_NAMES = ("egp", "alpha-ge3", "konig", "case1", "case2", "case3", "fallback")


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; works with infinities for failed samples."""
    k = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[k - 1]
