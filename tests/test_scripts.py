"""Smoke runs of the experiment scripts as subprocesses, and of the shipped
zero-one sweep config through ``rig sweep``, on small inputs."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rigraph.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_isolation_convergence():
    done = run_script("isolation_convergence.py", "--exponents", "3,4")
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert out.startswith("integer ring sizes solved for target beta = 0")
    assert "idealized family" in out
    # one row per n in each of the two tables
    first = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert first.count("1000") == first.count("10000") == 2


@pytest.mark.parametrize("args", [("--a", "0.5,-1"), ("--a", "0.5,x"), ("--exponents", "0")])
def test_isolation_convergence_bad_input_exit_2(args):
    done = run_script("isolation_convergence.py", *args)
    assert done.returncode == 2
    assert [line for line in done.stderr.splitlines() if "error:" in line] == done.stderr.splitlines()[-1:]
    assert "Traceback" not in done.stderr


def test_zero_one_config_runs_through_rig_sweep(tmp_path, capsys):
    # the shipped experiment, scaled down to n = P/2 = 60, 20 trials and two points
    doc = json.loads((ROOT / "scripts" / "zero_one.json").read_text())
    out_csv = tmp_path / "zero_one.csv"
    doc.update(base={**doc["base"], "n": 60, "P": 120}, points=[-1, 1], trials=20, output_path=str(out_csv))
    cfg = tmp_path / "zero_one.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == 2
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["axis_value"] for r in rows] == ["-1", "1"]
    assert all(r["axis"] == "beta-target" and r["n"] == "60" for r in rows)
