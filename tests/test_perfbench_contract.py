"""The benchmark under ``perfbench/`` imports names from ``rigraph`` and swaps
``rigraph.sweeps`` globals to time the layers.  Its own tests cannot run in
the same pytest run as these, so this checks, by reading its source,
that every name it relies on still exists, with every attribute it reads
off one (``b_vector.cache_info``) and every keyword it passes to one
(``sample_graph(..., scratch=...)``), checks that the solves and the
per-point trial runs it times still go through the globals it swaps, and runs its trial-by-trial
replay (what ``perfbench/run.py --trace 1`` compares with ``run_trials``) in
a separate process."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import rigraph.montecarlo as montecarlo
import rigraph.sweeps as sweeps

from conftest import missing_rigraph_names, rigraph_bindings

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
    bound = rigraph_bindings(tree)
    for node in ast.walk(tree):
        # _patched(module, "name", wrapper) swaps a module global
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_patched":
            target, name = node.args[0], node.args[1]
            module = bound.get(getattr(target, "id", None))
            assert module is not None, f"{path.name}: _patched on {ast.unparse(target)}"
            if name.value not in vars(module):
                missing.append(f"{module.__name__}.{name.value} (swapped global)")
    assert missing == []


def test_walk_reports_missing_attributes_and_keywords():
    tree = ast.parse(
        "import rigraph.sweeps as sweeps\n"
        "from rigraph import ModelParams, b_vector, sample_graph\n"
        "b_vector.cache_info(); b_vector.cache_infos()\n"
        "sample_graph(p, s, scratch=g); sample_graph(p, s, scratsh=g)\n"
        "sweeps.run_sweep(spec, workers=2); sweeps.run_sweep(spec, worker=2)\n"
        "sweeps.SweepSpec(base_n=1, bse_P=2); ModelParams(n=2, a=a, K=K, P=4, m=1, **extra)\n"
    )
    assert sorted(missing_rigraph_names(tree)) == [
        "ModelParams(m=)", "b_vector.cache_infos", "sample_graph(scratsh=)",
        "sweeps.SweepSpec(bse_P=)", "sweeps.run_sweep(worker=)",
    ]


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


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_runs_each_point_through_the_swappable_global(monkeypatch, workers):
    # ``perfbench --trace 1`` times a sweep's trials by swapping
    # ``sweeps.run_trials`` (``workloads.traced_trials``), and its layer
    # metrics need one such call per point; 8 trials per batch at n=40, so
    # the 2-worker sweep runs its points through a pool
    monkeypatch.setattr(montecarlo, "_BATCH_FLOATS", 8 * 40 * (1 + 3))
    calls = []
    run = sweeps.run_trials

    def counted(*args):
        calls.append(args)
        return run(*args)

    monkeypatch.setattr(sweeps, "run_trials", counted)
    spec = sweeps.SweepSpec(base_n=40, base_P=60, a=(0.5, 0.5), base_K=(2, 3), ratios=None, axis="n",
                            points=(20.0, 30.0, 40.0), trials=64, master_seed=7, output_path="unused.csv")
    sweeps.run_sweep(spec, workers=workers)
    assert calls == [(sweeps.resolve_point(spec, v), 64, sweeps.point_seed(7, i), workers)
                     for i, v in enumerate(spec.points)]
