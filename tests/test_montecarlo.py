import dataclasses
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from rigraph import (
    InvalidParamsError,
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
import rigraph.montecarlo as montecarlo
from rigraph.errors import WorkerCrashError
from rigraph.graph_analysis import analyze_batch
from rigraph.montecarlo import _BATCH_FLOATS, _moments, _run_range, resolve_workers

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
        with pytest.raises(InvalidParamsError):
            wilson_interval(1, 2, z=0.0)

    @given(st.integers(1, 500), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_reference(self, trials, data):
        # scipy uses the exact 97.5% quantile; feed it through our z knob
        from scipy.stats import norm

        successes = data.draw(st.integers(0, trials))
        low, high = wilson_interval(successes, trials, z=float(norm.ppf(0.975)))
        ref = binomtest(successes, trials).proportion_ci(confidence_level=0.95, method="wilson")
        assert low == pytest.approx(ref.low, abs=1e-9)
        assert high == pytest.approx(ref.high, abs=1e-9)


SMALL = ModelParams(n=30, a=(0.5, 0.5), K=(2, 3), P=40)


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

    def test_worker_count_invisible(self):
        one = run_trials(SMALL, 300, master_seed=123, workers=1)
        two = run_trials(SMALL, 300, master_seed=123, workers=2)
        four = run_trials(SMALL, 300, master_seed=123, workers=4)
        assert one == two == four

    def test_pool_never_larger_than_its_work(self, serial_pools):
        # the fork start method forks every worker up front, so 1000 workers
        # for 64 one-trial ranges must open a pool of 64; a stub records the
        # size and maps serially, so no real pool is started
        agg = run_trials(SMALL, 64, master_seed=31, workers=1000)
        assert serial_pools == [("open", 64), ("close",)]
        assert agg == run_trials(SMALL, 64, master_seed=31, workers=1)

    def test_sweep_forks_one_pool(self, serial_pools, tmp_path):
        spec = SweepSpec(base_n=40, base_P=60, a=(0.5, 0.5), base_K=(2, 3), ratios=None,
                         axis="n", points=(20.0, 30.0, 40.0, 50.0, 60.0), trials=64,
                         master_seed=7, output_path=str(tmp_path / "rows.csv"))
        rows = run_sweep(spec, workers=2)
        assert serial_pools == [("open", 2), ("close",)]
        assert rows == run_sweep(spec, workers=1)
        # below 64 trials every point runs in this process: no pool at all
        serial_pools.clear()
        run_sweep(dataclasses.replace(spec, trials=63), workers=2)
        assert serial_pools == []

    def test_worker_crash_is_a_rigraph_error(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_run_range", exit_in_worker)
        with pytest.raises(WorkerCrashError) as exc:
            run_trials(SMALL, 64, master_seed=3, workers=2)
        assert isinstance(exc.value, RigraphError)
        assert "\n" not in str(exc.value)

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
        # t*P + o would pass 2^63 for a full batch, so batches shrink; int64
        # wraparound would rarely show in the counts, so watch the batches
        key_ranges = []

        def spy(groups, objects, offsets, trials, P):
            key_ranges.append(trials * P)
            return analyze_batch(groups, objects, offsets, trials, P)

        monkeypatch.setattr(montecarlo, "analyze_batch", spy)
        params = ModelParams(n=3, a=(1.0,), K=(2,), P=2**61 + 1)
        agg = run_trials(params, 9, master_seed=23, workers=1)
        assert key_ranges and max(key_ranges) < 2**63
        _assert_aggregate_matches(agg, reference_counts(params, 23, 0, 9))

    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            run_trials(SMALL, 0, master_seed=1)
        with pytest.raises(InvalidParamsError):
            run_trials(ModelParams(n=1, a=(1.0,), K=(1,), P=2), 10, master_seed=1)
        with pytest.raises(InvalidParamsError):
            run_trials(SMALL, 10, master_seed=-1)


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
