#!/usr/bin/env python3
"""Regenerate perfbench/pins.json: the universe each workload draws from.

    python3 perfbench/pin.py      # every workload, about 5 minutes

Runs every input of every workload's universe once at this commit and
records the SHA-256 of its deterministic output.  For sparse-exact it also
records each trial's reference time, run with a cap of `pin_cap_s`, and
classes it against the benchmark's deadline D: "run" if it finished within
D/4, "defect" if it ran past 4*D or hit the cap, "near-deadline" otherwise
(never drawn, so that whether a trial fails does not depend on the speed
of the machine).  Re-pin only in a change that deliberately alters
outputs, such as a bump of the sampling stream version, and say so.
"""

from __future__ import annotations

import argparse
import json
import time

from run import HERE, PINS_PATH, ROOT, remove_tmp
from workloads import CONFIG, WORKLOADS, SparseExact, pinned_config


def universe(name: str, cfg: dict) -> list:
    if name == "sparse-exact":
        return [(n, p, t) for (n, p), size in zip(cfg["cells"], cfg["universe"]) for t in range(size)]
    return list(range(cfg["universe"]))


def make_pins(config: dict, names, log=print) -> dict:
    pins = {}
    for name in names:
        cfg = config[name]
        run_cfg = dict(cfg, deadline_s=cfg["pin_cap_s"]) if name == "sparse-exact" else cfg
        tmp = ROOT / ".perfbench_tmp" / f"pin-{name}"
        workload = WORKLOADS[name](run_cfg, {"items": {}}, universe(name, cfg), tmp)
        items = {}
        try:
            workload.setup()
            if workload.capture is not None:
                workload.capture.install()
            for op in workload.ops():
                start = time.perf_counter()
                raw = op.run()
                seconds = time.perf_counter() - start
                outcome = op.check(raw)
                if outcome.problems:
                    raise RuntimeError(f"{op.coords}: {outcome.problems}")
                item = {}
                if outcome.digest is not None:
                    key, item["sha256"] = outcome.digest
                if name == "sparse-exact":
                    d = cfg["deadline_s"]
                    key = SparseExact.key(op.coords["n"], op.coords["p"], op.coords["trial"])
                    item["ref_s"] = round(seconds, 4)
                    if outcome.abandoned is not None or seconds >= 4 * d:
                        item["class"] = "defect"
                    else:
                        item["class"] = "run" if seconds <= d / 4 else "near-deadline"
                items[key] = item
                log(f"{name} {key} {seconds:.3f}s {item.get('class', '')}")
        finally:
            if workload.capture is not None:
                workload.capture.uninstall()
            remove_tmp(tmp)
        pins[name] = {"config": pinned_config(name, cfg), "items": items}
    return pins


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    pins = make_pins(CONFIG, list(WORKLOADS))
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
