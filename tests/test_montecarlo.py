import dataclasses
import hashlib
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from rigraph import (
    EstimateRow,
    InvalidParamsError,
    InvariantViolation,
    ModelParams,
    RigraphError,
    SeedSpec,
    SweepSpec,
    analyze,
    expected_isolated,
    run_sweep,
    run_trials,
    sample_graph,
    solve_k1,
    wilson_interval,
)
import rigraph.model_core as model_core
import rigraph.montecarlo as montecarlo
from rigraph.errors import WorkerCrashError
from rigraph.graph_analysis import analyze_batch
from rigraph.montecarlo import _BATCH_FLOATS, _batch_trials, _moments, _plan, _run_range, resolve_workers

from conftest import exit_in_worker, small_params
from reference_trials import reference_counts


class TestWilsonInterval:
    def test_zero_successes(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0
        assert high == pytest.approx(0.03700, abs=5e-5)

    def test_all_successes_mirrors_zero(self):
        low, high = wilson_interval(100, 100)
        zl, zh = wilson_interval(0, 100)
        assert high == 1.0
        assert low == pytest.approx(1.0 - zh, abs=1e-12)

    def test_symmetric_at_half(self):
        low, high = wilson_interval(50, 100)
        assert low + high == pytest.approx(1.0, abs=1e-12)
        assert low < 0.5 < high

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            wilson_interval(5, 4)
        with pytest.raises(InvalidParamsError):
            wilson_interval(-1, 4)
        with pytest.raises(InvalidParamsError):
            wilson_interval(0, 0)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_reference(self, trials, data):
        # scipy uses the exact 97.5% quantile; swap it in for the rounded 1.96
        from scipy.stats import norm

        successes = data.draw(st.integers(0, trials))
        with mock.patch.object(montecarlo, "_WILSON_Z", float(norm.ppf(0.975))):
            low, high = wilson_interval(successes, trials)
        ref = binomtest(successes, trials).proportion_ci(confidence_level=0.95, method="wilson")
        assert low == pytest.approx(ref.low, abs=1e-9)
        assert high == pytest.approx(ref.high, abs=1e-9)


SMALL = ModelParams(n=30, a=(0.5, 0.5), K=(2, 3), P=40)


class TestEstimateRow:
    @pytest.mark.parametrize("successes", [-1, 11])
    def test_successes_outside_trials_raise(self, successes):
        with pytest.raises(InvariantViolation, match=r"^successes outside 0\.\.trials$"):
            EstimateRow(trials=10, successes=successes, point=0.5, ci_low=0.4, ci_high=0.6)

    @pytest.mark.parametrize("low, point, high", [
        (0.6, 0.5, 0.7), (0.4, 0.5, 0.45), (0.7, 0.5, 0.3), (-0.1, 0.5, 0.6), (0.4, 0.5, 1.1),
    ], ids=["low-above-point", "high-below-point", "reversed", "low-below-0", "high-above-1"])
    def test_interval_out_of_order_raises(self, low, point, high):
        with pytest.raises(InvariantViolation, match=r"^interval must satisfy 0 <= low <= point <= high <= 1$"):
            EstimateRow(trials=10, successes=5, point=point, ci_low=low, ci_high=high)


class TestRunTrials:
    def test_matches_manual_loop(self):
        agg = run_trials(SMALL, 200, master_seed=77)
        conn = noiso = f = iso = 0
        for t in range(200):
            stats = analyze(sample_graph(SMALL, SeedSpec(77, t)))
            conn += stats.connected
            noiso += stats.isolated_count == 0
            f += stats.no_isolated_but_disconnected
            iso += stats.isolated_count
        assert agg.connected.successes == conn
        assert agg.no_isolated.successes == noiso
        assert agg.no_isolated_but_disconnected.successes == f
        assert agg.mean_isolated == pytest.approx(iso / 200, abs=1e-15)

    def test_worker_count_invisible(self, recorded_pools, monkeypatch):
        # 8 trials per batch, so the 300 trials span 38 batches and every
        # worker count splits them into ranges that run in a real pool
        monkeypatch.setattr(montecarlo, "_BATCH_FLOATS", 8 * 30 * (1 + 3))
        one = run_trials(SMALL, 300, master_seed=123, workers=1)
        two = run_trials(SMALL, 300, master_seed=123, workers=2)
        four = run_trials(SMALL, 300, master_seed=123, workers=4)
        assert one == two == four
        assert recorded_pools == [("open", 2), ("map", 11), ("close",), ("open", 4), ("map", 17), ("close",)]

    def test_pool_never_larger_than_its_work(self, serial_pools):
        # at one trial per batch, 1000 workers split 64 trials into 64
        # one-batch ranges; the fork start method forks every worker up
        # front, so the pool must hold 64.  A stub records the pool and maps
        # serially, so no real pool is started
        with mock.patch.object(montecarlo, "_BATCH_FLOATS", 30 * (1 + 3)):
            agg = run_trials(SMALL, 64, master_seed=31, workers=1000)
        assert serial_pools == [("open", 64), ("map", 64), ("close",)]
        assert agg == run_trials(SMALL, 64, master_seed=31, workers=1)
        # at the default 546 trials per batch the run is one range: no pool
        serial_pools.clear()
        assert run_trials(SMALL, 64, master_seed=31, workers=1000) == agg
        assert serial_pools == []

    def test_sweep_forks_one_pool(self, serial_pools, tmp_path):
        spec = SweepSpec(base_n=40, base_P=60, a=(0.5, 0.5), base_K=(2, 3), ratios=None,
                         axis="n", points=(20.0, 30.0, 40.0, 50.0, 60.0), trials=64,
                         master_seed=7, output_path=str(tmp_path / "rows.csv"))
        # 1920 floats: 24 trials per batch at n=20 down to 8 at n=60
        with mock.patch.object(montecarlo, "_BATCH_FLOATS", 8 * 60 * (1 + 3)):
            rows = run_sweep(spec, workers=2)
            assert serial_pools == [("open", 2), ("map", 3), ("map", 4), ("map", 5), ("map", 6), ("map", 6), ("close",)]
            assert rows == run_sweep(spec, workers=1)
            # the pool is sized for the largest plan: 3 one-batch ranges at n=20, 8 at n=60
            serial_pools.clear()
            assert run_sweep(spec, workers=1000) == rows
            assert serial_pools == [("open", 8), ("map", 3), ("map", 4), ("map", 6), ("map", 8), ("map", 8), ("close",)]
            # below 64 trials every point runs in this process: no pool at all
            serial_pools.clear()
            run_sweep(dataclasses.replace(spec, trials=63), workers=2)
            assert serial_pools == []
        # nor when every point's run fits in one batch
        assert run_sweep(spec, workers=2) == rows
        assert serial_pools == []

    @given(small_params(max_n=8), st.integers(1, 400), st.integers(1, 6), st.integers(1, 512),
           st.integers(0, 2**64 - 1))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_plan_splits_whole_batches_that_shrink(self, serial_pools, params, trials, workers, budget, seed):
        # a small float budget makes a run span many batches
        ran = []

        def counted(params, master_seed, start, stop):
            ran.append((start, stop))
            return _run_range(params, master_seed, start, stop)

        serial_pools.clear()
        with mock.patch.object(montecarlo, "_BATCH_FLOATS", budget), \
             mock.patch.object(montecarlo, "_run_range", counted):
            batch = _batch_trials(params)
            bounds, size = _plan(params, trials, workers)
            agg = run_trials(params, trials, seed, workers)
            events = list(serial_pools)
            assert agg == run_trials(params, trials, seed, 1)
        ranges = list(zip(bounds, bounds[1:]))
        assert bounds[0] == 0 and bounds[-1] == trials
        assert all(start < stop for start, stop in ranges)
        assert all((stop - start) % batch == 0 for start, stop in ranges[:-1])
        sizes = [stop - start for start, stop in ranges]
        assert sizes == sorted(sizes, reverse=True)
        assert ran[:len(ranges)] == ranges
        if workers == 1 or trials < 64:
            assert ranges == [(0, trials)]
        if len(ranges) == 1:
            assert size == 0 and events == []
        else:
            assert size == min(workers, len(ranges))
            assert events == [("open", size), ("map", len(ranges)), ("close",)]

    def test_one_worker_opens_no_pool(self, serial_pools, monkeypatch, tmp_path):
        # one worker runs every trial of a run, however many, as one range
        # in this process
        ranges = []

        def counted(params, master_seed, start, stop):
            ranges.append((start, stop))
            return _run_range(params, master_seed, start, stop)

        monkeypatch.setattr(montecarlo, "_run_range", counted)
        tiny = ModelParams(n=2, a=(1.0,), K=(1,), P=2)
        run_trials(tiny, 65_537, master_seed=5, workers=1)
        assert ranges == [(0, 65_537)]
        spec = SweepSpec(base_n=2, base_P=2, a=(1.0,), base_K=(1,), ratios=None, axis="P",
                         points=(2.0, 3.0), trials=65_537, master_seed=7,
                         output_path=str(tmp_path / "rows.csv"))
        run_sweep(spec, workers=1)
        assert len(ranges) == 3
        assert serial_pools == []

    def test_broken_event_identity_raises(self, monkeypatch):
        # F = no-isolated - connected holds per sample; a run whose counts
        # break it must raise, naming the three counts, not be averaged away
        def broken(params, master_seed, start, stop):
            conn, noiso, fno, *rest = _run_range(params, master_seed, start, stop)
            return (conn, noiso, fno + 1, *rest)

        monkeypatch.setattr(montecarlo, "_run_range", broken)
        conn, noiso, fno = _run_range(SMALL, 3, 0, 50)[:3]
        with pytest.raises(InvariantViolation) as exc:
            run_trials(SMALL, 50, master_seed=3, workers=1)
        assert str(exc.value) == f"event identity broken: F={fno + 1}, no-isolated={noiso}, connected={conn}"

    def test_worker_crash_is_a_rigraph_error(self, recorded_pools, monkeypatch):
        # 8 trials per batch, so the run is 6 ranges in a real pool
        monkeypatch.setattr(montecarlo, "_BATCH_FLOATS", 8 * 30 * (1 + 3))
        monkeypatch.setattr(montecarlo, "_run_range", exit_in_worker)
        with pytest.raises(WorkerCrashError) as exc:
            run_trials(SMALL, 64, master_seed=3, workers=2)
        assert isinstance(exc.value, RigraphError)
        assert "\n" not in str(exc.value)
        assert recorded_pools == [("open", 2), ("map", 6), ("close",)]

    def test_one_fingerprint_per_run(self, monkeypatch):
        # the digest is hashed on first use and kept on the instance: making
        # the params and solving for rings hash nothing, and a 50-batch run
        # hashes once, while every batch still carries the digest
        hashed = []

        def sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        seen = []

        def spy(batch):
            seen.append(batch.params_hash)
            return analyze_batch(batch)

        monkeypatch.setattr(model_core, "hashlib", types.SimpleNamespace(sha256=sha256))
        monkeypatch.setattr(montecarlo, "analyze_batch", spy)
        solve_k1(2000, 4000, (0.5, 0.5), (1.0, 2.0), 0.0)
        params = ModelParams(n=2000, a=(0.5, 0.5), K=(3, 6), P=4000)
        assert hashed == []
        agg = run_trials(params, 200, master_seed=1, workers=1)
        assert len(hashed) == 1
        assert len(seen) == 50 and set(seen) == {agg.params_hash} == {"b2a22e8fa3c4b5be"}

    def test_certain_connectivity(self):
        p = ModelParams(n=20, a=(1.0,), K=(5,), P=5)
        agg = run_trials(p, 150, master_seed=9)
        assert agg.connected.successes == agg.trials == 150
        assert agg.connected.point == 1.0
        assert agg.mean_isolated == 0.0

    def test_event_identity(self):
        # per-sample: F = no-isolated minus connected, exactly
        agg = run_trials(SMALL, 400, master_seed=5)
        assert (
            agg.no_isolated_but_disconnected.successes
            == agg.no_isolated.successes - agg.connected.successes
        )
        assert agg.no_isolated_but_disconnected.point <= (
            agg.no_isolated.point - agg.connected.point + 2 / math.sqrt(agg.trials)
        )

    def test_zero_one_pull_at_extreme_targets(self):
        # deviation far below/above critical moves the connectivity estimate
        n, P, a = 500, 1000, (1.0,)
        k_low = solve_k1(n, P, a, (1.0,), -4.0)
        k_high = solve_k1(n, P, a, (1.0,), 4.0)
        low = run_trials(ModelParams(n=n, a=a, K=k_low, P=P), 300, master_seed=1)
        high = run_trials(ModelParams(n=n, a=a, K=k_high, P=P), 300, master_seed=1)
        assert low.connected.point < 0.6
        assert high.connected.point > 0.7
        assert low.connected.point < high.connected.point

    def test_mean_isolated_tracks_closed_form(self):
        n, P = 150, 300
        K = solve_k1(n, P, (0.5, 0.5), (1.0, 2.0), 0.0)
        params = ModelParams(n=n, a=(0.5, 0.5), K=K, P=P)
        agg = run_trials(params, 1500, master_seed=42)
        e_j, e_i = expected_isolated(params)
        assert abs(agg.mean_isolated - e_j) <= 3.5 * agg.stderr_isolated
        assert abs(agg.mean_group1_isolated - e_i) <= 3.5 * agg.stderr_group1_isolated

    @given(small_params(max_n=8), st.integers(0, 2**64 - 1), st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_trials(self, params, seed, data):
        # trial counts around and past one batch, so batches split the run;
        # the split does not depend on the budget, and a smaller one keeps
        # the slow reference sampler's share of the run short
        budget = 1 << 14
        batch = budget // (params.n * (1 + params.K[-1]))
        trials = data.draw(st.integers(max(1, batch - 2), batch + batch // 4 + 2))
        with mock.patch.object(montecarlo, "_BATCH_FLOATS", budget):
            agg = run_trials(params, trials, master_seed=seed, workers=1)
        _assert_aggregate_matches(agg, reference_counts(params, seed, 0, trials))

    @given(small_params(max_n=8), st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 400))
    @settings(max_examples=15, deadline=None)
    def test_range_at_any_start_matches_reference(self, params, seed, start, trials):
        got = _run_range(params, seed, start, start + trials)
        assert got == reference_counts(params, seed, start, start + trials)

    def test_trial_larger_than_batch(self):
        # the widest ring is derived from the budget, so one trial overflows it
        n = 2000
        k = _BATCH_FLOATS // n
        params = ModelParams(n=n, a=(0.5, 0.5), K=(k // 2, k), P=3 * n)
        assert params.n * (1 + params.K[-1]) > _BATCH_FLOATS
        agg = run_trials(params, 3, master_seed=17, workers=1)
        _assert_aggregate_matches(agg, reference_counts(params, 17, 0, 3))

    def test_huge_pool_keeps_keys_in_range(self, monkeypatch):
        # at the largest pool the sampler takes, t*P + o would pass 2^63 for
        # a batch of 1,024 trials; the batch size stays the float budget's and
        # the analysis numbers the objects densely instead, so watch the batches
        batch_trials = []

        def spy(batch):
            batch_trials.append(batch.trials)
            return analyze_batch(batch)

        monkeypatch.setattr(montecarlo, "analyze_batch", spy)
        params = ModelParams(n=3, a=(1.0,), K=(2,), P=2**53)
        agg = run_trials(params, 600, master_seed=23, workers=1)
        assert batch_trials == [600]
        _assert_aggregate_matches(agg, reference_counts(params, 23, 0, 600))

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            run_trials(SMALL, 0, master_seed=1)
        with pytest.raises(InvalidParamsError):
            run_trials(ModelParams(n=1, a=(1.0,), K=(1,), P=2), 10, master_seed=1)
        with pytest.raises(InvalidParamsError):
            run_trials(SMALL, 10, master_seed=-1)

    @pytest.mark.parametrize("trials, master_seed, workers", [
        (10, 1.5, 1), (10, True, 1), (10, "7", 1), (10.0, 1, 1), (True, 1, 1), (10, 1, 1.5), (10, 1, True),
    ])
    def test_refuses_non_integer_counts_and_seeds(self, trials, master_seed, workers):
        with pytest.raises(InvalidParamsError, match="must be an integer"):
            run_trials(SMALL, trials, master_seed, workers)

    def test_numpy_integers_pass(self):
        agg = run_trials(SMALL, np.int64(10), np.uint64(7), np.int32(1))
        assert agg == run_trials(SMALL, 10, 7, 1)
        assert type(agg.master_seed) is int and type(agg.trials) is int


def _assert_aggregate_matches(agg, counts):
    conn, noiso, fno, iso_sum, iso_sq, g1_sum, g1_sq = counts
    assert agg.connected.successes == conn
    assert agg.no_isolated.successes == noiso
    assert agg.no_isolated_but_disconnected.successes == fno
    assert (agg.mean_isolated, agg.stderr_isolated) == _moments(iso_sum, iso_sq, agg.trials)
    assert (agg.mean_group1_isolated, agg.stderr_group1_isolated) == _moments(g1_sum, g1_sq, agg.trials)


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("RIG_THREADS", "6")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("RIG_THREADS", "4")
        assert resolve_workers(None) == 4

    def test_default_single(self, monkeypatch):
        monkeypatch.delenv("RIG_THREADS", raising=False)
        assert resolve_workers(None) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParamsError):
            resolve_workers(0)

    def test_rejects_non_integer_env(self, monkeypatch):
        monkeypatch.setenv("RIG_THREADS", "abc")
        with pytest.raises(InvalidParamsError, match="RIG_THREADS.*'abc'"):
            resolve_workers(None)
