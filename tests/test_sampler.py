import dataclasses
import math
from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from rigraph import (
    EstimateRow,
    InvalidParamsError,
    ModelParams,
    SeedSpec,
    exact_quantities,
    run_trials,
    sample_graph,
)
import rigraph.montecarlo as montecarlo
import rigraph.sampler as sampler
from rigraph.errors import StateLayoutError
from rigraph.graph_analysis import analyze_batch
from rigraph.sampler import (
    _NETWORK_MAX_K,
    GAMMA,
    GraphBatch,
    _floyd_batch,
    _ring_sets,
    _sorted_rows,
    _state_dict,
    sample_batch,
    trial_state_words,
)

from conftest import small_params
from reference_trials import assign_group, generator_for, mix64, reference_sample


def built_directly(groups, sets, P, trials):
    """The batch of ``GraphBatch.from_sets(groups, sets, P, trials)``, its
    arrays built here and passed to the constructor."""
    offsets = np.cumsum([0, *map(len, sets)])
    return GraphBatch(np.array(groups), np.array([o for s in sets for o in s], dtype=np.int64), offsets, trials, P)


def floyd_draws(P, K, draws, seed=7):
    """``draws`` Floyd K-subsets from one trial stream, one per row."""
    U = generator_for(SeedSpec(seed, 0)).random((draws, K))
    return np.array(_ring_sets(P, K, U.T)).T.tolist()


def assert_trials_match_reference(params, seed, start, trials, scratch=None):
    """``sample_batch`` over trials [start, start+trials) is the reference
    sample of each trial, back to back, bit for bit."""
    batch = sample_batch(params, seed, start, start + trials, scratch)
    n = params.n
    for name in ("groups", "objects", "offsets"):
        assert getattr(batch, name).dtype == np.int64, name
    for r in range(trials):
        one = reference_sample(params, SeedSpec(seed, start + r))
        vertices = slice(r * n, (r + 1) * n)
        assert np.array_equal(batch.groups[vertices], one.groups)
        assert np.array_equal(batch.offsets[vertices] - batch.offsets[r * n], one.offsets[:-1])
        assert np.array_equal(batch.objects[batch.offsets[r * n]:batch.offsets[(r + 1) * n]], one.objects)


@st.composite
def ring_params(draw, m, ring_size, pool_size, max_n=10):
    """Params with m groups whose largest ring size comes from ``ring_size``
    and whose pool size from ``pool_size(K_m)``; the other ring sizes are
    at most K_m."""
    top = draw(ring_size)
    K = sorted([top, *draw(st.lists(st.integers(1, top), min_size=m - 1, max_size=m - 1))])
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    a = tuple(w / sum(weights) for w in weights)
    return ModelParams(n=draw(st.integers(2, max_n)), a=a, K=tuple(K), P=draw(pool_size(top)))


class TestSeeding:
    def test_splitmix_reference_vector(self):
        # published splitmix64 outputs for seed 0: mix of (0 + k*gamma)
        stream = [mix64((0 + (k + 1) * GAMMA) & ((1 << 64) - 1)) for k in range(3)]
        assert stream == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert SeedSpec(0, 0).trial_seed() == 0xE220A8397B1DCDAF

    def test_seedspec_validation(self):
        with pytest.raises(InvalidParamsError):
            SeedSpec(-1, 0)
        with pytest.raises(InvalidParamsError):
            SeedSpec(1 << 64, 0)
        with pytest.raises(InvalidParamsError):
            SeedSpec(3, -1)

    @pytest.mark.parametrize("master_seed, trial_index", [
        (1.5, 0), (True, 0), ("7", 0), (7, 1.0), (7, False), (7, None),
    ])
    def test_seedspec_refuses_non_integers(self, master_seed, trial_index):
        with pytest.raises(InvalidParamsError, match="must be an integer"):
            SeedSpec(master_seed, trial_index).trial_seed()

    def test_seedspec_stores_numpy_integers_as_python_ints(self):
        spec = SeedSpec(np.uint64(2**64 - 1), np.int32(3))
        assert spec == SeedSpec(2**64 - 1, 3)
        assert type(spec.master_seed) is int and type(spec.trial_index) is int

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**70), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_state_words_match_scalar_expansion(self, master_seed, start, count):
        words = trial_state_words(master_seed, start, start + count).tolist()
        for t, row in zip(range(start, start + count), words):
            seed = mix64((master_seed + (t + 1) * GAMMA) & ((1 << 64) - 1))
            assert SeedSpec(master_seed, t).trial_seed() == seed
            assert row == [mix64((seed + k * GAMMA) & ((1 << 64) - 1)) for k in (1, 2, 3, 4)]

    def test_distinct_trials_distinct_streams(self):
        seeds = {SeedSpec(99, t).trial_seed() for t in range(1000)}
        assert len(seeds) == 1000


def scratch_of(kind, words=(1, 2, 3, 4), uinteger=0):
    """A caller's scratch generator: none, one holding a pending 32-bit
    half, or one left at an arbitrary state with one buffered."""
    if kind == "none":
        return None
    bg = np.random.PCG64(sum(words))
    if kind == "pending":
        np.random.Generator(bg).integers(0, 10, dtype=np.uint32)
        assert bg.state["has_uint32"] == 1
    else:
        w1, w2, w3, w4 = words
        state = {"state": (w1 << 64) | w2, "inc": (w3 << 64) | w4}
        bg.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 1, "uinteger": uinteger}
    return bg


SCRATCH_KINDS = ["none", "pending", "arbitrary"]
words64 = st.integers(0, 2**64 - 1)


class TestSeating:
    """Each trial's PCG64 is seated by writing its four stored words; the
    dict setter, through ``generator_for``, is the reference."""

    def test_word_order_is_a_permutation(self):
        assert sorted(sampler._WORD_ORDER) == [0, 1, 2, 3]

    @given(st.tuples(words64, words64, words64, words64))
    @settings(max_examples=100, deadline=None)
    def test_stored_words_seat_the_dict_state(self, words):
        bg = np.random.PCG64(0)
        sampler._stored_words(bg)[:] = sampler._seating_rows(np.array([words], dtype=np.uint64))[0]
        assert bg.state["state"] == _state_dict(*words)["state"]

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 3, 2)], ids=["high-low", "low-high"])
    def test_probe_learns_either_word_order(self, monkeypatch, order):
        # {high, low} pairs (emulated 128-bit, or native big-endian) and
        # native little-endian 128-bit words
        monkeypatch.setattr(sampler, "_stored_words", lambda bg: [sampler._PROBE_WORDS[i] for i in order])
        assert sampler._learn_word_order() == order

    @pytest.mark.parametrize("read_back", [
        lambda known: [0, 0, 0, 0],
        lambda known: [known[0], known[1], known[2], known[3] ^ 1],  # one bit off
        lambda known: [known[0], known[0], known[2], known[3]],  # a word twice
        lambda known: [int.from_bytes(w.to_bytes(8, "little"), "big") for w in known],  # bytes swapped
    ], ids=["zeros", "bit-off", "repeated", "byte-swapped"])
    def test_read_back_matching_no_permutation_is_refused(self, monkeypatch, read_back):
        monkeypatch.setattr(sampler, "_stored_words", lambda bg: read_back(sampler._PROBE_WORDS))
        with pytest.raises(StateLayoutError, match="no permutation"):
            sampler._learn_word_order()

    @pytest.mark.parametrize("kind", SCRATCH_KINDS)
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_extreme_seeds_and_even_increment_words(self, seed, kind):
        # trials 2^63 - 4 .. 2^63 + 3 of both seeds include a w4 that is
        # even, where the increment's odd bit must be set by the seating
        start, trials = 2**63 - 4, 8
        assert (trial_state_words(seed, start, start + trials)[:, 3] & np.uint64(1) == 0).any()
        params = ModelParams(n=5, a=(0.4, 0.6), K=(2, 3), P=11)
        assert_trials_match_reference(params, seed, start, trials, scratch_of(kind))

    @given(
        small_params(max_P=10, max_n=8),
        st.one_of(st.sampled_from([0, 2**64 - 1]), words64),
        st.integers(2**63 - 32, 2**63 + 32),
        st.integers(1, 4),
        st.sampled_from(SCRATCH_KINDS),
        st.tuples(words64, words64, words64, words64),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_scratch_gives_the_reference_batch(self, params, seed, start, trials, kind, words, uinteger):
        scratch = scratch_of(kind, words, uinteger)
        buffered = None if scratch is None else (scratch.state["has_uint32"], scratch.state["uinteger"])
        assert_trials_match_reference(params, seed, start, trials, scratch)
        if scratch is not None:  # the pending 32-bit half is left as found
            assert (scratch.state["has_uint32"], scratch.state["uinteger"]) == buffered

    def test_scratch_must_be_a_pcg64(self):
        params = ModelParams(n=3, a=(1.0,), K=(2,), P=6)
        with pytest.raises(InvalidParamsError, match="PCG64"):
            sample_batch(params, 1, 0, 2, np.random.PCG64DXSM(0))


class TestAssignGroup:
    def test_single_group(self):
        assert assign_group((1.0,), 0.0) == 1
        assert assign_group((1.0,), 0.999999) == 1

    def test_inverse_cdf(self):
        assert assign_group((0.5, 0.5), 0.25) == 1
        assert assign_group((0.5, 0.5), 0.75) == 2
        assert assign_group((0.5, 0.5), 0.5) == 2  # least i with u < cum_i

    def test_top_bucket_absorbs_rounding(self):
        a = (1 / 3, 1 / 3, 1 / 3)
        assert assign_group(a, 0.9999999999999999) == 3

    def test_empirical_frequency(self):
        # one large sample gives 1e5 independent group draws
        p = ModelParams(n=100_000, a=(0.2, 0.8), K=(1, 1), P=2)
        s = sample_graph(p, SeedSpec(5, 0))
        freq = float(np.mean(s.groups == 1))
        assert abs(freq - 0.2) < 0.01  # 3 sigma is ~0.0038


class TestSampleObjectSet:
    def test_full_pool(self):
        assert floyd_draws(6, 6, 1) == [[0, 1, 2, 3, 4, 5]]

    def test_sets_are_sorted_distinct(self):
        for s in floyd_draws(10, 4, 200, seed=11):
            assert s == sorted(set(s))
            assert all(0 <= o < 10 for o in s)

    def test_singleton_frequency(self):
        counts = Counter(s[0] for s in floyd_draws(4, 1, 10_000, seed=13))
        for o in range(4):
            assert abs(counts[o] / 10_000 - 0.25) < 0.02

    def test_pair_frequency(self):
        counts = Counter(tuple(s) for s in floyd_draws(4, 2, 100_000, seed=17))
        assert len(counts) == 6
        for pair in combinations(range(4), 2):
            assert abs(counts[pair] / 100_000 - 1 / 6) < 0.02

    @pytest.mark.parametrize("P,K", [(4, 2), (5, 2), (5, 3)])
    def test_chi_square_uniformity(self, P, K):
        draws = 100_000
        counts = Counter(tuple(s) for s in floyd_draws(P, K, draws, seed=19 + P * K))
        cells = list(combinations(range(P), K))
        observed = [counts[c] for c in cells]
        _, pvalue = sps.chisquare(observed)
        assert pvalue > 0.001


class TestRingSets:
    @pytest.mark.parametrize("K", range(1, _NETWORK_MAX_K + 1))
    def test_merge_network_sorts_every_zero_one_column(self, K):
        # the 0-1 principle: a comparator network that sorts every 0/1
        # input sorts every input
        bits = (np.arange(1 << K) >> np.arange(K)[:, None]) & 1
        assert np.array_equal(np.array(_sorted_rows(bits.copy())), np.sort(bits, axis=0))

    @given(st.integers(1, 3 * _NETWORK_MAX_K), st.data(), st.integers(1, 300), st.integers(0, 2**32))
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_floyd(self, K, data, count, seed):
        # P < K^2 runs Floyd on every column; from P = K^2 up, the draws
        # are sorted first, and 25-40% of the columns at P = K^2, falling to
        # almost none at P = 10^6, take the exact fix-up
        P = data.draw(st.sampled_from([K, K + 1, K * K, 4 * K * K, 10**6]))
        U = np.random.default_rng(seed).random((K, count))
        assert np.array_equal(np.array(_ring_sets(P, K, U)), np.sort(_floyd_batch(P, K, U), axis=0))


class TestSampleGraph:
    def test_deterministic(self):
        p = ModelParams(n=40, a=(0.3, 0.7), K=(2, 3), P=25)
        s1 = sample_graph(p, SeedSpec(123, 7))
        s2 = sample_graph(p, SeedSpec(123, 7))
        assert np.array_equal(s1.groups, s2.groups)
        assert np.array_equal(s1.objects, s2.objects)
        assert np.array_equal(s1.offsets, s2.offsets)

    def test_trial_independent_of_history(self):
        p = ModelParams(n=10, a=(1.0,), K=(2,), P=12)
        in_sequence = [sample_graph(p, SeedSpec(3, t)) for t in range(8)][5]
        fresh = sample_graph(p, SeedSpec(3, 5))
        assert np.array_equal(in_sequence.objects, fresh.objects)

    def test_full_pool_rings(self):
        p = ModelParams(n=6, a=(1.0,), K=(4,), P=4)
        s = sample_graph(p, SeedSpec(1, 0))
        for x in range(6):
            assert s.objects[s.offsets[x]:s.offsets[x + 1]].tolist() == [0, 1, 2, 3]

    @given(
        small_params(max_P=10, max_n=70),
        st.sampled_from([1, 1000, 10**8]),
        st.integers(0, 2**64 - 1),
        st.integers(0, 2**40),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_sampler(self, params, pool_scale, seed, trial):
        # widening the pool keeps the ring sizes valid
        params = ModelParams(n=params.n, a=params.a, K=params.K, P=params.P * pool_scale)
        spec = SeedSpec(seed, trial)
        got = sample_graph(params, spec)
        want = reference_sample(params, spec)
        for name in ("groups", "objects", "offsets"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), name

    @given(small_params(max_P=10, max_n=10), st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_structural_invariants(self, params, seed, start, trials):
        batch = sample_batch(params, seed, start, start + trials)
        assert (batch.trials, batch.n, batch.P) == (trials, params.n, params.P)
        groups, objects, offsets = batch.groups, batch.objects, batch.offsets
        assert groups.min() >= 1 and groups.max() <= params.m
        assert np.array_equal(np.diff(offsets), np.asarray(params.K)[groups - 1])
        # ids rise within each set; the step from one set's last id to the
        # next set's first, within a trial or across two, may fall
        rises = np.diff(objects) > 0
        rises[offsets[1:-1] - 1] = True
        assert rises.all()

    @pytest.mark.parametrize("fields, message", [
        # the analysis used to count the first wrong (trial 0 read 0
        # components) and end the others in numpy's ValueError
        ({"objects": np.array([2, 3, 0, 1])}, r"^object ids must lie in \[0, 2\), got 0 to 3$"),
        ({"offsets": np.arange(4)}, "^need one object set per group label, got 3 and 4$"),
        ({"offsets": np.array([1, 1, 2, 3, 4])}, "^offsets must run from 0 to 4, got 1 to 4$"),
        ({"offsets": np.array([0, 1, 2, 3, 3])}, "^offsets must run from 0 to 4, got 0 to 3$"),
        ({"offsets": np.array([0, 1, 2, 3, 5])}, "^offsets must run from 0 to 4, got 0 to 5$"),
        # these used to end in numpy's ValueError, TypeError or AttributeError
        ({"offsets": np.array([0, 2, 1, 3, 4])}, "^offsets must never fall, got a negative set size at vertex 1$"),
        ({"objects": np.array([0.0, 1.0, 1.0, 0.0])}, "^objects must be a 1-D numpy array of signed integers, "
                                                      "got a 1-D float64 array$"),
        ({"objects": np.array([0, 1, 1, 0], dtype=np.uint64)}, "^objects must be a 1-D numpy array of signed "
                                                               "integers, got a 1-D uint64 array$"),
        ({"objects": np.array([[0, 1], [1, 0]])}, "^objects must be a 1-D numpy array of signed integers, "
                                                  "got a 2-D int64 array$"),
        ({"groups": [1, 1, 1, 1]}, "^groups must be a 1-D numpy array of signed integers, got list$"),
        ({"objects": [0, 1, 1, 0]}, "^objects must be a 1-D numpy array of signed integers, got list$"),
        ({"offsets": [0, 1, 2, 3, 4]}, "^offsets must be a 1-D numpy array of signed integers, got list$"),
        ({"offsets": np.arange(5.0)}, "^offsets must be a 1-D numpy array of signed integers, "
                                      "got a 1-D float64 array$"),
        ({"groups": np.ones((2, 2), dtype=np.int64)}, "^groups must be a 1-D numpy array of signed integers, "
                                                      "got a 2-D int64 array$"),
    ], ids=["found-example", "short-offsets", "offsets-from-1", "offsets-short-of-end", "offsets-past-end",
            "falling-offsets", "float-objects", "uint64-objects", "2d-objects", "list-groups", "list-objects",
            "list-offsets", "float-offsets", "2d-groups"])
    def test_constructor_refuses_layouts_that_do_not_fit(self, fields, message):
        # two trials of two vertices with one object each, built directly;
        # the from_sets tests below build their cases both ways
        good = {"groups": np.ones(4, dtype=np.int64), "objects": np.array([0, 1, 1, 0]), "offsets": np.arange(5),
                "trials": 2, "P": 2}
        GraphBatch(**good)
        with pytest.raises(InvalidParamsError, match=message):
            GraphBatch(**{**good, **fields})

    def test_replace_checks_the_layout(self):
        # dataclasses.replace runs the constructor's checks too; numpy
        # integers are stored as Python ints, so trials * P cannot wrap
        p = ModelParams(n=4, a=(0.5, 0.5), K=(2, 3), P=9)
        batch = sample_batch(p, 5, 0, 3)
        objects = batch.objects.copy()
        objects[batch.offsets[2 * p.n + 2] - 1] = p.P  # the last id of vertex 1 in trial 2
        with pytest.raises(InvalidParamsError, match=r"^object ids must lie in \[0, 9\), got \d to 9$"):
            dataclasses.replace(batch, objects=objects)
        wide = dataclasses.replace(batch, P=np.int64(2**50), trials=np.int32(3))
        assert (wide.P, wide.trials) == (2**50, 3)
        assert type(wide.P) is int and type(wide.trials) is int

    def test_a_fall_between_sets_is_a_valid_batch(self):
        # only the ids inside a set must rise: between vertices and between
        # trials they may fall, and the analysis reads such a batch
        sets = [[5, 8], [0, 1], [3, 7], [2, 3]]
        batch = GraphBatch.from_sets([1, 1, 1, 1], sets, 9, trials=2)
        comp, iso, group1 = analyze_batch(batch)
        assert (comp.tolist(), iso.tolist(), group1.tolist()) == ([2, 1], [2, 0], [2, 0])

    @pytest.mark.parametrize("groups, sets, trials, message", [
        ([1, 1], [[0], [1], [2]], 1, "^need one object set per group label, got 3 and 2$"),
        ([1, 1, 1], [[0], [1]], 1, "^need one object set per group label, got 2 and 3$"),
        ([1, 1], [[0], [1]], 0, "^trials must be >= 1, got 0$"),
        ([1, 1], [[0], [1]], -2, "^trials must be >= 1, got -2$"),
        ([1, 1], [[0], [1]], 1.0, "^trials must be an integer, got 1.0$"),
        ([1, 1, 1], [[0], [1], [2]], 2, "^3 vertices do not split into 2 trials$"),
    ], ids=["more-sets", "fewer-sets", "zero-trials", "negative-trials", "float-trials", "uneven-trials"])
    def test_from_sets_refuses_shapes_that_do_not_fit(self, groups, sets, trials, message):
        for build in (GraphBatch.from_sets, built_directly):
            with pytest.raises(InvalidParamsError, match=message):
                build(groups, sets, 3, trials)

    @pytest.mark.parametrize("sets, P, message", [
        # the analysis used to count these wrong or fail with another error:
        # a false InvariantViolation, an IndexError, numpy's ValueError
        ([[0], [2], [1], [0]], 2, r"^object ids must lie in \[0, 2\), got 0 to 2$"),
        ([[0], [7], [1], [0]], 2, r"^object ids must lie in \[0, 2\), got 0 to 7$"),
        ([[-1], [0], [1], [0]], 2, r"^object ids must lie in \[0, 2\), got -1 to 1$"),
        ([[], [], [], []], 0, "^P must be >= 1, got 0$"),
        ([[0], [1], [1], [0]], 2.0, "^P must be an integer, got 2.0$"),
    ], ids=["id-at-P", "id-past-P", "negative-id", "zero-P", "float-P"])
    def test_from_sets_refuses_ids_outside_the_pool(self, sets, P, message):
        for build in (GraphBatch.from_sets, built_directly):
            with pytest.raises(InvalidParamsError, match=message):
                build([1] * 4, sets, P, 2)

    @pytest.mark.parametrize("groups, sets, message", [
        # these used to be truncated to ints, or end in numpy's ValueError
        # or OverflowError
        ([1, 1], [[0.5], [1.9]], "^every object id must be an integer, got 0.5$"),
        ([True, 1.7], [[0], [1]], "^every group label must be an integer, got True$"),
        ([1, 1.7], [[0], [1]], "^every group label must be an integer, got 1.7$"),
        (["1", 1], [[0], [1]], "^every group label must be an integer, got '1'$"),
        ([1, 1], [[0], ["1"]], "^every object id must be an integer, got '1'$"),
        ([1, 1], [[0], [np.float64(1.0)]], r"^every object id must be an integer, got np.float64\(1.0\)$"),
        ([1, 1], [[2**70], [1]], "^every object id must lie in the int64 range$"),
        ([2**63, 1], [[0], [1]], "^every group label must lie in the int64 range$"),
        (None, [[0], [1]], "^groups must be a sequence of integers and object_sets a sequence of sequences"),
        ([1, 1], [None, [1]], "^groups must be a sequence of integers and object_sets a sequence of sequences"),
    ], ids=["float-ids", "bool-group", "float-group", "string-group", "string-id", "numpy-float-id",
            "id-past-int64", "group-past-int64", "groups-none", "set-none"])
    def test_from_sets_refuses_ids_and_groups_no_int64_holds(self, groups, sets, message):
        with pytest.raises(InvalidParamsError, match=message):
            GraphBatch.from_sets(groups, sets, 20)

    def test_from_sets_takes_numpy_integers_as_ints(self):
        got = GraphBatch.from_sets(np.array([1, 2]), [(np.int32(0), np.int64(3)), range(2)], 20)
        want = GraphBatch.from_sets([1, 2], [[0, 3], [0, 1]], 20)
        for name in ("groups", "objects", "offsets"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == np.int64

    def test_group_independence_in_pairs(self):
        # joint (g_1, g_2) frequency factorizes to a_i * a_j
        p = ModelParams(n=2, a=(0.3, 0.7), K=(1, 1), P=10)
        trials = 20_000
        groups = sample_batch(p, 21, 0, trials).groups
        counts = Counter(map(tuple, groups.reshape(trials, 2).tolist()))
        for gi, ai in enumerate(p.a, start=1):
            for gj, aj in enumerate(p.a, start=1):
                want = ai * aj
                sigma = math.sqrt(want * (1 - want) / trials)
                assert abs(counts[(gi, gj)] / trials - want) <= 3.0 * sigma

    @given(small_params(max_P=10, max_n=8), st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_batch_is_its_trials_back_to_back(self, params, seed, start, trials):
        assert_trials_match_reference(params, seed, start, trials)

    @pytest.mark.parametrize("kind", ["dense-rings", "past-network-cutoff", "three-groups"])
    @given(data=st.data(), seed=st.integers(0, 2**64 - 1), start=st.integers(0, 2**40))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_trials(self, kind, data, seed, start):
        if kind == "dense-rings":  # P <= 2 K_m: most sets go through exact Floyd
            params = data.draw(ring_params(
                data.draw(st.integers(1, 3)), st.integers(1, 2 * _NETWORK_MAX_K),
                lambda top: st.integers(top, 2 * top),
            ))
        elif kind == "past-network-cutoff":
            params = data.draw(ring_params(
                data.draw(st.integers(1, 2)), st.integers(_NETWORK_MAX_K + 1, 4 * _NETWORK_MAX_K),
                lambda top: st.sampled_from([top, top + 1, 3 * top, 10**5]),
            ))
        else:
            params = data.draw(ring_params(
                3, st.integers(1, 12), lambda top: st.sampled_from([top, 2 * top, 100, 10**7]), max_n=30,
            ))
        trials = data.draw(st.integers(1, 6) if kind != "three-groups" else st.integers(2, 8))
        assert_trials_match_reference(params, seed, start, trials)

    @pytest.mark.parametrize("start, stop", [(3, 3), (3, 2), (-1, 2), (0, 1.5)])
    def test_sample_batch_refuses_bad_ranges(self, start, stop):
        with pytest.raises(InvalidParamsError):
            sample_batch(ModelParams(n=3, a=(1.0,), K=(2,), P=6), 1, start, stop)

    @pytest.mark.parametrize("P", [2**53 + 1, 2**63, 2**64])
    def test_pool_past_2_53_refused(self, P):
        # 53-bit uniforms reach only every 2^(e-53)-th id of such a pool;
        # past 2^63 the ids wrap negative, and past 2^64 numpy overflows
        params = ModelParams(n=3, a=(1.0,), K=(2,), P=P)
        with pytest.raises(InvalidParamsError, match="P <= 2\\^53"):
            sample_batch(params, 1, 0, 2)
        with pytest.raises(InvalidParamsError, match="P <= 2\\^53"):
            run_trials(params, 2, master_seed=1)

    def test_batches_compare_and_hash_by_identity(self):
        p = ModelParams(n=3, a=(1.0,), K=(2,), P=6)
        one, two = sample_batch(p, 1, 0, 2), sample_batch(p, 1, 0, 2)
        assert one == one and one != two
        assert len({one, two, one}) == 2

    def test_pair_edge_frequency_matches_closed_form(self):
        # n=2 connectivity is exactly "the two rings intersect"
        p = ModelParams(n=2, a=(0.5, 0.5), K=(1, 2), P=5)
        agg = run_trials(p, 100_000, master_seed=31)
        with mock.patch.object(montecarlo, "_WILSON_Z", 3.0):
            row = EstimateRow(agg.connected.trials, agg.connected.successes)
        assert row.ci_low <= exact_quantities(p).edge_prob <= row.ci_high
