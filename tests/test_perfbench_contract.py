"""The benchmark under ``perfbench/`` imports names from ``rigraph`` and swaps
``rigraph.sweeps`` globals to time the layers.  Its own tests cannot run in
the same pytest run as these, so this checks, by reading its source,
that every name it relies on still exists, checks that the solves it times
still go through the global it swaps, and runs its trial-by-trial
replay (what ``perfbench/run.py --trace 1`` compares with ``run_trials``) in
a separate process."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import rigraph.sweeps as sweeps

from conftest import missing_rigraph_names, rigraph_aliases

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))

REPLAY = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracing, workloads
from rigraph import ModelParams, run_trials
params = ModelParams(**workloads.TINY_PARAMS)
agg = run_trials(params, 20, {seed}, workers=1)
counts = workloads.replay(tracing.Tracer(), workloads.Unit(params, 20, {seed}, agg), 0)
print(workloads.replay_mismatch(agg, counts))
"""


def test_benchmark_sources_found():
    assert PERFBENCH / "workloads.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_names_used_from_rigraph_exist(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    missing = missing_rigraph_names(tree)
    aliases = rigraph_aliases(tree)
    for node in ast.walk(tree):
        # _patched(module, "name", wrapper) swaps a module global
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_patched":
            target, name = node.args[0], node.args[1]
            module = aliases.get(getattr(target, "id", None))
            assert module is not None, f"{path.name}: _patched on {ast.unparse(target)}"
            if name.value not in vars(module):
                missing.append(f"{module.__name__}.{name.value} (swapped global)")
    assert missing == []


def test_trace_replay_matches_run_trials():
    src = str(PERFBENCH.parent / "src")
    code = REPLAY.format(perfbench=str(PERFBENCH), src=src, seed=2024)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "None\n"


def test_nearest_solves_through_the_swappable_global(monkeypatch):
    # ``perfbench --trace 1`` times solves by swapping ``sweeps.solve_k1``
    # (``workloads.traced_sweeps``) and stops if no solve span is recorded
    calls = []
    solve = sweeps.solve_k1

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(sweeps, "solve_k1", counted)
    args = (1000, 10**4, (0.5, 0.5), (1.0, 2.0), 0.0)
    K = sweeps.solve_k1_nearest(*args)
    assert calls == [args]
    spec = sweeps.SweepSpec(base_n=1000, base_P=10**4, a=(0.5, 0.5), base_K=None, ratios=(1.0, 2.0),
                            axis="beta-target", points=(0.0,), trials=1, master_seed=1, output_path="unused.csv")
    assert sweeps.resolve_point(spec, 0.0).K == K
    assert calls == [args, args]
