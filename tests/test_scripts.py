"""Smoke runs of the experiment scripts on tiny grids."""

import os
import subprocess
import sys
from pathlib import Path

from monotree import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_probe_grid(tmp_path):
    out = tmp_path / "grid.csv"
    proc = run_script(
        "probe_grid.py", "--n", "30", "--scales", "1.0", "--trials", "2",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.split(",")[2] for line in lines[1:]] == ["random", "three-star"]
    assert proc.stdout.endswith(f"wrote {out}\n")


def test_threestar_oracle(tmp_path):
    proc = run_script("threestar_oracle.py", "--n", "30", "--trials", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    trials = [line for line in proc.stdout.splitlines() if line.startswith("trial")]
    assert len(trials) == 2
    assert all("cover=3 exact=3" in line for line in trials)
