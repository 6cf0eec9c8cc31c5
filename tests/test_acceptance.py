"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; seeds are frozen so each criterion is a deterministic, reproducible
check.  The heavy zero-one sweep is computed once and shared by criteria
4, 5 and 8.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import pytest

from rigraph import (
    EstimateRow,
    ModelParams,
    cross_moment_ratio,
    exact_quantities,
    expected_isolated,
    expected_isolated_from_b,
    enumerate_event_probs,
    enumerate_pair_prob,
    no_overlap_ratio,
    run_trials,
    solve_k1,
)
import rigraph.montecarlo as montecarlo
from rigraph.sweeps import load_sweep_spec, run_sweep, write_sweep_csv

from conftest import tiny_instances

C2_TRIALS = 100_000
C2_SEED_BASE = 2_000_000
C3_SEED = 42
ZERO_ONE_CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "zero_one.json"

_ACCOUNTING = {"trials": 0, "runs": 0}


def _record(trials: int) -> None:
    _ACCOUNTING["trials"] += trials
    _ACCOUNTING["runs"] += 1


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _pool_size() -> int:
    return max(1, min(4, os.cpu_count() or 1))


TINY = tiny_instances()


def _c2_mc(idx: int) -> tuple[int, int, int]:
    agg = run_trials(TINY[idx], C2_TRIALS, master_seed=C2_SEED_BASE + idx, workers=1)
    return idx, agg.connected.successes, agg.connected.trials


@pytest.fixture(scope="module")
def c3_run():
    K = solve_k1(500, 1000, (0.5, 0.5), (1.0, 2.0), 0.0)
    params = ModelParams(n=500, a=(0.5, 0.5), K=K, P=1000)
    start = time.perf_counter()
    agg = run_trials(params, 2000, master_seed=C3_SEED, workers=_pool_size())
    elapsed = time.perf_counter() - start
    _record(2000)
    return params, agg, elapsed


@pytest.fixture(scope="module")
def c4_sweep(tmp_path_factory):
    # the experiment users run, written to a temporary CSV in place of its output_path
    spec = dataclasses.replace(
        load_sweep_spec(str(ZERO_ONE_CONFIG)),
        output_path=str(tmp_path_factory.mktemp("sweep") / "zero_one.csv"),
    )
    start = time.perf_counter()
    rows = run_sweep(spec, workers=1)  # criterion 4 runtime is single-threaded
    elapsed = time.perf_counter() - start
    write_sweep_csv(rows, spec.output_path)
    _record(spec.trials * len(spec.points))
    return spec, rows, elapsed


def test_criterion_1_pairwise_edge_prob_matches_enumeration():
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for P in range(1, 9):
        for Ki in range(0, min(4, P) + 1):
            for Kj in range(0, min(4, P) + 1):
                want = 1 - no_overlap_ratio(P, Ki, Kj)
                got = float(enumerate_pair_prob(P, Ki, Kj))
                if Ki >= 1 and Kj >= 1:
                    params = ModelParams(
                        n=2, a=(0.5, 0.5), K=(min(Ki, Kj), max(Ki, Kj)), P=P
                    )
                    i, j = (0, 1) if Ki <= Kj else (1, 0)
                    p = exact_quantities(params).p
                    want = p[i][j]
                    assert p[j][i] == want
                if got == 0.0:
                    assert want == 0.0
                else:
                    worst = max(worst, abs(want - got) / got)
                    assert abs(want - got) <= 1e-12 * got
                checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(
        1,
        ok,
        f"{checked} (P<=8, Ki<=4, Kj<=4) pairs match enumeration to 1e-12 rel "
        f"(worst {worst:.2e}); {elapsed:.1f}s < 10s",
    )


def test_criterion_2_event_oracle_equivalence_and_mc_bands():
    start = time.perf_counter()
    oracles = []
    worst_moment = 0.0
    for params in TINY:
        probs = enumerate_event_probs(params)
        e_j, _ = expected_isolated(params)
        gap = abs(e_j - float(probs.expected_isolated))
        worst_moment = max(worst_moment, gap)
        assert gap <= 1e-10, (params, gap)
        oracles.append(float(probs.p_connected))

    outside = []
    with ProcessPoolExecutor(max_workers=_pool_size()) as pool:
        for idx, successes, trials in pool.map(_c2_mc, range(len(TINY))):
            _record(trials)
            with mock.patch.object(montecarlo, "_WILSON_Z", 3.0):
                row = EstimateRow(trials, successes)
            if not (row.ci_low <= oracles[idx] <= row.ci_high):
                outside.append(idx)
    elapsed = time.perf_counter() - start
    ok = not outside and elapsed < 120.0
    _report(
        2,
        ok,
        f"{len(TINY)} tiny instances: E[J] matches enumeration exactly "
        f"(worst {worst_moment:.1e} <= 1e-10) and every P-hat[connected] at "
        f"{C2_TRIALS} trials sits in the oracle's 3-sigma Wilson band "
        f"(outside={outside}); {elapsed:.1f}s < 120s",
    )


def test_criterion_3_closed_form_moment(c3_run):
    params, agg, elapsed = c3_run
    e_j, _ = expected_isolated(params)
    gap = abs(agg.mean_isolated - e_j)
    ok = gap <= 3.0 * agg.stderr_isolated and elapsed < 60.0
    _report(
        3,
        ok,
        f"n=500 K={params.K}: |mean_isolated {agg.mean_isolated:.4f} - E[J] "
        f"{e_j:.4f}| = {gap:.4f} <= 3*stderr ({3 * agg.stderr_isolated:.4f}); "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_4_zero_one_transition(c4_sweep):
    _, rows, elapsed = c4_sweep
    non_monotone = [
        (i, j)
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
        if rows[i].p_connected_low > rows[j].p_connected_high
    ]
    low_end = rows[0].p_connected
    high_end = rows[-1].p_connected
    ok = not non_monotone and low_end <= 0.25 and high_end >= 0.85 and elapsed < 600.0
    _report(
        4,
        ok,
        f"P-hat[connected] nondecreasing in beta up to CI overlap "
        f"(violations={non_monotone}), {low_end:.4f} <= 0.25 at beta=-4, "
        f"{high_end:.4f} >= 0.85 at beta=+4; single-threaded {elapsed:.1f}s < 600s",
    )


def test_criterion_5_disconnected_without_isolated_vanishes(c4_sweep, c3_run):
    spec, rows, _ = c4_sweep
    _, agg500, _ = c3_run
    max_pf = max(r.p_f for r in rows)
    pf2000 = rows[spec.points.index(0.0)].p_f  # the beta target 0 point of the sweep
    pf500 = agg500.no_isolated_but_disconnected.point
    sigma = math.sqrt(
        pf500 * (1 - pf500) / agg500.trials + pf2000 * (1 - pf2000) / spec.trials
    )
    ok = max_pf <= 0.05 and pf2000 <= pf500 + 2 * sigma
    _report(
        5,
        ok,
        f"max P-hat[no-isolated-but-disconnected] = {max_pf:.4f} <= 0.05 across the "
        f"sweep, and {pf2000:.4f} (n=2000) <= {pf500:.4f} (n=500) + 2*{sigma:.4f}",
    )


def test_criterion_6_asymptotic_convergence_closed_form():
    start = time.perf_counter()
    a1 = 0.5
    diffs = []
    for n in (10**3, 10**4, 10**5, 10**6):
        b1 = math.log(n) / n  # deviation held at exactly zero
        _, e_i = expected_isolated_from_b(n, (a1, a1), (b1, b1))
        diffs.append(abs(e_i - a1))
    monotone = all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))

    n = 10**6
    K = solve_k1(n, 2 * n, (0.5, 0.5), (1.0, 2.0), 0.0)
    ratio = cross_moment_ratio(ModelParams(n=n, a=(0.5, 0.5), K=K, P=2 * n))
    elapsed = time.perf_counter() - start
    ok = monotone and ratio <= 1.01 and elapsed < 1.0
    _report(
        6,
        ok,
        f"|n*a1*(1-b1)^(n-1) - a1| decreasing along n=1e3..1e6 at beta=0 "
        f"({', '.join(f'{d:.2e}' for d in diffs)}); cross-moment ratio at n=1e6 "
        f"= {ratio:.6f} <= 1.01; {elapsed:.2f}s < 1s",
    )


def test_criterion_7_reduction_invariant_never_violated(c4_sweep, c3_run):
    # analyze() raises InvariantViolation the moment a connected sample
    # reports an isolated vertex, so completing every simulation above is the
    # assertion; re-run a slice of each config to exercise the guard directly
    from rigraph import SeedSpec, analyze, sample_graph

    spec, _, _ = c4_sweep
    params500, _, _ = c3_run
    checked = 0
    for params in (TINY[17], TINY[51], params500):
        for t in range(300):
            stats = analyze(sample_graph(params, SeedSpec(C2_SEED_BASE, t)))
            assert not (stats.connected and stats.isolated_count > 0)
            checked += 1
    ok = _ACCOUNTING["trials"] >= 6_400_000 + 12_000 and checked == 900
    _report(
        7,
        ok,
        f"connected => no-isolated held on every one of {_ACCOUNTING['trials']} "
        f"trials across criteria 2-5 (guard raises on violation) and on "
        f"{checked} directly re-checked samples",
    )


def test_criterion_8_sweep_determinism_across_thread_counts(c4_sweep, tmp_path):
    spec, rows, _ = c4_sweep
    baseline = open(spec.output_path, "rb").read()

    rerun_1 = tmp_path / "rerun_1thread.csv"
    write_sweep_csv(run_sweep(spec, workers=1), str(rerun_1))
    rerun_8 = tmp_path / "rerun_8threads.csv"
    write_sweep_csv(run_sweep(spec, workers=8), str(rerun_8))

    same_1 = rerun_1.read_bytes() == baseline
    same_8 = rerun_8.read_bytes() == baseline
    ok = same_1 and same_8 and len(baseline) > 0
    _report(
        8,
        ok,
        f"criterion-4 sweep rerun is byte-identical at 1 thread ({same_1}) "
        f"and 8 threads ({same_8}); {len(baseline)} bytes",
    )
