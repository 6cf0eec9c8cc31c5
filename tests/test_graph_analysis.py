import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigraph.graph_analysis as ga
from rigraph import (
    GraphBatch,
    InvalidParamsError,
    ModelParams,
    SeedSpec,
    analyze,
    run_trials,
    sample_batch,
    sample_graph,
)
from rigraph.errors import InvariantViolation

from conftest import make_sample, naive_stats
from reference_trials import build_inverted_index, reference_stats


class TestInvertedIndex:
    def test_worked_example(self):
        s = make_sample([1, 1, 1], [[1], [1], [2]])
        assert build_inverted_index(s) == {1: [0, 1], 2: [2]}

    def test_round_trip(self):
        s = make_sample([1, 2, 1], [[0, 3], [1, 3, 4], [2, 4]])
        index = build_inverted_index(s)
        rebuilt = [[] for _ in range(s.n)]
        for obj in sorted(index):
            for v in index[obj]:
                rebuilt[v].append(obj)
        assert [sorted(x) for x in rebuilt] == [s.objects[s.offsets[x]:s.offsets[x + 1]].tolist() for x in range(s.n)]

    def test_total_length_is_incidence_count(self):
        s = make_sample([1, 1], [[0, 1, 2], [2, 3]])
        index = build_inverted_index(s)
        assert sum(len(v) for v in index.values()) == len(s.objects)

    def test_every_vertex_appears(self):
        s = make_sample([1, 1, 1], [[0], [1], [2]])
        held = {v for holders in build_inverted_index(s).values() for v in holders}
        assert held == {0, 1, 2}


class TestConnectivity:
    def test_split_example(self):
        st_ = analyze(make_sample([1, 1, 2], [[0], [0], [1]]))
        assert (st_.connected, st_.component_count) == (False, 2)

    def test_shared_object_connects_everything(self):
        st_ = analyze(make_sample([1] * 5, [[0, i + 1] for i in range(5)]))
        assert (st_.connected, st_.component_count) == (True, 1)

    def test_chain(self):
        st_ = analyze(make_sample([1, 1, 1], [[0, 1], [1, 2], [2, 3]]))
        assert (st_.connected, st_.component_count) == (True, 1)


class TestIsolationCounts:
    def test_worked_example(self):
        st_ = analyze(make_sample([1, 1, 2], [[0], [0], [1]]))
        assert (st_.isolated_count, st_.group1_isolated_count) == (1, 0)

    def test_no_isolated_when_all_share(self):
        st_ = analyze(make_sample([1, 2, 2], [[0], [0, 1], [0]]))
        assert (st_.isolated_count, st_.group1_isolated_count) == (0, 0)

    def test_pairwise_disjoint(self):
        st_ = analyze(make_sample([1, 2, 1], [[0], [1], [2]]))
        assert (st_.isolated_count, st_.group1_isolated_count) == (3, 2)

    def test_rejects_single_vertex(self):
        with pytest.raises(InvalidParamsError):
            analyze(make_sample([1], [[0]]))


class TestAnalyze:
    def test_chain_stats(self):
        st_ = analyze(make_sample([1, 1, 1], [[0, 1], [1, 2], [2, 3]]))
        assert st_.connected
        assert st_.isolated_count == 0
        assert not st_.no_isolated_but_disconnected

    def test_two_cliques_witness_f_event(self):
        s = make_sample([1, 1, 2, 2], [[0], [0], [1], [1]])
        st_ = analyze(s)
        assert not st_.connected
        assert st_.isolated_count == 0
        assert st_.no_isolated_but_disconnected
        assert st_.component_count == 2

    def test_two_isolated_vertices(self):
        st_ = analyze(make_sample([1, 1], [[0], [1]]))
        assert st_.isolated_count == 2
        assert not st_.connected
        assert not st_.no_isolated_but_disconnected

    def test_rejects_single_vertex(self):
        with pytest.raises(InvalidParamsError):
            analyze(make_sample([1], [[0]]))

    def test_batch_of_one_vertex_trials_refused(self):
        # a lone vertex is connected and isolated at once; the batch kernel
        # must refuse it, not report a broken invariant
        batch = GraphBatch.from_sets([1, 1, 1], [[0], [1], [0]], 2, trials=3)
        with pytest.raises(InvalidParamsError, match="^analysis needs n >= 2 vertices per trial, got n=1$"):
            ga.analyze_batch(batch)

    def test_rejects_multi_trial_batch(self):
        batch = sample_batch(ModelParams(n=4, a=(1.0,), K=(2,), P=8), 1, 0, 2)
        with pytest.raises(InvalidParamsError, match="one-trial"):
            analyze(batch)

    def test_pure_function(self):
        s = make_sample([1, 2], [[0, 1], [1, 2]])
        assert analyze(s) == analyze(s)

    def test_implication_guard_trips_on_inconsistency(self, monkeypatch):
        # force the component counter to lie; the guard must refuse to return
        monkeypatch.setattr(ga, "_component_counts", _one_component_each)
        with pytest.raises(InvariantViolation):
            analyze(make_sample([1, 1], [[0], [1]]))

    def test_implication_guard_trips_inside_a_batch(self, monkeypatch):
        # the same lie reaches run_trials' batches, which must raise too
        params = ModelParams(n=8, a=(1.0,), K=(1,), P=50)
        monkeypatch.setattr(ga, "_component_counts", _one_component_each)
        with pytest.raises(InvariantViolation):
            run_trials(params, 300, master_seed=3, workers=1)


def _one_component_each(offsets, holder, nodes, node_count, trials):
    return np.ones(trials, dtype=np.int64)


def _assert_each_trial_matches_reference(path, groups, sets, P, trials):
    """``analyze_batch`` of the whole batch, at the int32 index type, a
    forced int64 one, or with every batch's objects numbered densely first,
    counts each trial as ``reference_stats`` does alone."""
    n = len(groups) // trials
    batch = GraphBatch.from_sets(groups, sets, P, trials=trials)
    with pytest.MonkeyPatch.context() as mp:
        if path == "int64":
            mp.setattr(ga, "_index_dtype", lambda vertices, incidences: np.int64)
        if path == "numbered":
            mp.setattr(ga, "_KEY_LIMIT", 0)
        got = [c.tolist() for c in ga.analyze_batch(batch)]
    want = [
        reference_stats(GraphBatch.from_sets(groups[r * n:(r + 1) * n], sets[r * n:(r + 1) * n], P))
        for r in range(trials)
    ]
    assert list(zip(*got)) == want


def _random_tiny_sample(rng):
    n = rng.integers(2, 7)
    P = rng.integers(1, 7)
    sets = []
    for _ in range(n):
        k = rng.integers(1, P + 1)
        sets.append(sorted(rng.choice(P, size=k, replace=False).tolist()))
    groups = rng.integers(1, 3, size=n).tolist()
    return make_sample(groups, sets, P)


class TestOracleEquivalence:
    def test_against_naive_bfs(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            s = _random_tiny_sample(rng)
            connected, comps, iso, g1 = naive_stats(s)
            st_ = analyze(s)
            assert st_.connected == connected
            assert st_.component_count == comps
            assert st_.isolated_count == iso
            assert st_.group1_isolated_count == g1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_analysis(self, data):
        n = data.draw(st.integers(2, 8))
        P = data.draw(st.integers(1, 8))
        sets = [
            data.draw(st.lists(st.integers(0, P - 1), min_size=0, max_size=P, unique=True))
            for _ in range(n)
        ]
        s = make_sample(data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), sets, P)
        comp, iso, g1 = reference_stats(s)
        st_ = analyze(s)
        assert (st_.component_count, st_.isolated_count, st_.group1_isolated_count) == (comp, iso, g1)
        assert st_.connected == (comp == 1)

    @pytest.mark.parametrize("path", ["int32", "int64", "numbered"])
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_multi_trial_batch_matches_reference_per_trial(self, path, data):
        # every trial of one batch is counted on its own: trials share no
        # object, and no trial's components or isolation leak into another
        trials = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(2, 6))
        # 2**30 and 2**40: keys past int32, compacted
        P = data.draw(st.one_of(st.integers(1, 8), st.sampled_from([2**30, 2**40])))
        pool = min(P, 8)
        ids = st.integers(0, pool - 1).map(lambda i: i * (P // pool))
        groups, sets = [], []
        for _ in range(trials):
            kind = data.draw(st.sampled_from(["any", "empty", "singletons"]))
            lo, hi = {"any": (0, pool), "empty": (0, 0), "singletons": (1, 1)}[kind]
            sets += [sorted(data.draw(st.lists(ids, min_size=lo, max_size=hi, unique=True))) for _ in range(n)]
            groups += data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        _assert_each_trial_matches_reference(path, groups, sets, P, trials)

    @pytest.mark.parametrize("index", ["int32", "int64"])
    def test_late_trial_keys_do_not_wrap_onto_early_ones(self, index):
        # P fits int32 and the batch's index type is int32, but t*P reaches
        # 2**32 at t = 4: keys formed in the index type would put trial 4's
        # object 0 on trial 0's, merging two isolated vertices
        trials = 6
        _assert_each_trial_matches_reference(index, [1, 2] * trials, [[0], [1]] * trials, 2**30, trials)

    def test_keys_past_int64_are_numbered_densely(self):
        # t*P reaches 2**64 at t = 16,384, where int64 keys would wrap onto
        # trial 0's and merge its two isolated vertices with trial 16,384's
        trials = 16_385
        batch = GraphBatch.from_sets([1] * (2 * trials), [[0], [2]] * trials, 2**50, trials)
        for counts in ga.analyze_batch(batch):
            assert counts.tolist() == [2] * trials

    def test_numpy_integer_pool_and_trials_count_as_ints(self):
        # numpy integers, whose product trials * P used to wrap in int64
        # with only a RuntimeWarning, are stored as Python ints
        trials = 16_385
        batch = GraphBatch.from_sets([1] * (2 * trials), [[0], [2]] * trials, 2**50, trials)
        want = [c.tolist() for c in ga.analyze_batch(batch)]
        for bad in (
            dataclasses.replace(batch, P=np.int64(2**50)),
            dataclasses.replace(batch, trials=np.int64(trials)),
            dataclasses.replace(batch, P=np.int64(2**50), trials=np.int64(trials)),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert [c.tolist() for c in ga.analyze_batch(bad)] == want

    @given(st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_sampled_graphs_match_naive(self, seed):
        params = ModelParams(n=6, a=(0.4, 0.6), K=(1, 3), P=6)
        s = sample_graph(params, SeedSpec(seed, 0))
        connected, comps, iso, g1 = naive_stats(s)
        st_ = analyze(s)
        assert (st_.connected, st_.component_count, st_.isolated_count, st_.group1_isolated_count) == (
            connected,
            comps,
            iso,
            g1,
        )


class TestIndexType:
    def test_index_type_is_int32_while_it_fits(self):
        limit = np.iinfo(np.int32).max
        assert ga._index_dtype(limit, limit) is np.int32
        assert ga._index_dtype(limit + 1, 5) is np.int64
        assert ga._index_dtype(5, limit + 1) is np.int64

    def test_int64_graph_counts_the_same(self, monkeypatch):
        batch = sample_batch(ModelParams(n=50, a=(0.5, 0.5), K=(1, 3), P=120), 9, 0, 20)
        want = [c.tolist() for c in ga.analyze_batch(batch)]
        monkeypatch.setattr(ga, "_index_dtype", lambda vertices, incidences: np.int64)
        assert [c.tolist() for c in ga.analyze_batch(batch)] == want


class TestLargePath:
    def test_large_sample_consistency(self):
        # thousands of incidences; the small pool takes the dense holder
        # count, the large one the compacting sort
        for P in (800, 10**6):
            params = ModelParams(n=400, a=(0.5, 0.5), K=(2, 4), P=P)
            s = sample_graph(params, SeedSpec(77, 0))
            assert len(s.objects) > 512
            st_ = analyze(s)
            assert (st_.component_count, st_.isolated_count, st_.group1_isolated_count) == reference_stats(s)
            assert st_.connected == (st_.component_count == 1)
