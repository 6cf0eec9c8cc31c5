"""Smoke runs of the experiment scripts as subprocesses, on small inputs."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_isolation_convergence():
    out = run_script("isolation_convergence.py", "--exponents", "3,4")
    assert out.startswith("integer ring sizes solved for target beta = 0")
    assert "idealized family" in out
    # one row per n in each of the two tables
    first = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert first.count("1000") == first.count("10000") == 2


def test_run_zero_one_sweep(tmp_path):
    out_csv = tmp_path / "zero_one.csv"
    out = run_script(
        "run_zero_one_sweep.py", "--n", "60", "--trials", "20", "--points=-1,1", "--out", str(out_csv),
    )
    assert out.startswith(f"wrote {out_csv}")
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["axis_value"] for r in rows] == ["-1", "1"]
    assert all(r["axis"] == "beta-target" and r["n"] == "60" for r in rows)
