"""Smoke runs of the experiment scripts on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_threestar_oracle(tmp_path):
    proc = run_script("threestar_oracle.py", "--n", "30", "--trials", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    trials = [line for line in proc.stdout.splitlines() if line.startswith("trial")]
    assert len(trials) == 2
    assert all("cover=3 exact=3" in line for line in trials)
