import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from rigraph import (
    EnumerationBudgetError,
    InvalidParamsError,
    ModelParams,
    enumerate_event_probs,
    enumerate_pair_prob,
    exact_quantities,
    expected_isolated,
)
from rigraph.cli import main

from conftest import small_params, tiny_instances
from reference_oracle import reference_event_probs


class TestEnumeratePairProb:
    def test_worked_value(self):
        assert enumerate_pair_prob(5, 2, 2) == Fraction(7, 10)

    def test_full_pool_always_intersects(self):
        assert enumerate_pair_prob(4, 4, 1) == 1
        assert enumerate_pair_prob(4, 4, 4) == 1

    def test_singletons(self):
        assert enumerate_pair_prob(4, 1, 1) == Fraction(1, 4)

    def test_empty_never_intersects(self):
        assert enumerate_pair_prob(5, 0, 3) == 0

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_pair_prob(40, 12, 12)

    def test_argument_validation(self):
        with pytest.raises(InvalidParamsError):
            enumerate_pair_prob(4, 5, 1)

    @pytest.mark.parametrize("P, Ki, Kj", [
        (10**6, 10**4, 1),  # C(P, Ki) has about 24,000 digits
        (10**12, 3 * 10**5, 2),
        (10**9, 10**9, 0),  # one pair, but a subset listing 10^9 ids
        (10**9, 0, 10**9),
    ])
    def test_budget_refuses_huge_counts_without_building_them(self, P, Ki, Kj):
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetError, match="list more than 10000000 ids"):
            enumerate_pair_prob(P, Ki, Kj)
        assert time.perf_counter() - start < 0.1


class TestEnumerateEventProbs:
    def test_two_vertices_connectivity_is_edge_prob(self):
        p = ModelParams(n=2, a=(0.5, 0.5), K=(1, 2), P=5)
        probs = enumerate_event_probs(p)
        assert probs.p_connected == Fraction(17, 40)  # == 0.425
        assert abs(float(probs.p_connected) - exact_quantities(p).edge_prob) < 1e-12

    def test_two_vertices_isolation_identity(self):
        # with n=2 both vertices are isolated exactly when there is no edge
        p = ModelParams(n=2, a=(0.2, 0.8), K=(1, 1), P=4)
        probs = enumerate_event_probs(p)
        assert probs.expected_isolated == 2 * (1 - probs.p_connected)

    def test_full_pool_always_connected(self):
        p = ModelParams(n=3, a=(1.0,), K=(3,), P=3)
        probs = enumerate_event_probs(p)
        assert probs.p_connected == 1
        assert probs.expected_isolated == 0

    def test_matches_closed_form_moment(self):
        for p in (
            ModelParams(n=3, a=(0.5, 0.5), K=(1, 2), P=5),
            ModelParams(n=2, a=(0.2, 0.8), K=(2, 2), P=4),
            ModelParams(n=3, a=(1.0,), K=(1,), P=3),
        ):
            e_j, _ = expected_isolated(p)
            want = enumerate_event_probs(p).expected_isolated
            assert abs(e_j - float(want)) < 1e-10

    def test_connected_implies_no_isolated_ordering(self):
        p = ModelParams(n=3, a=(0.5, 0.5), K=(1, 1), P=4)
        probs = enumerate_event_probs(p)
        assert probs.p_connected <= probs.p_no_isolated

    def test_budget_guard(self):
        with pytest.raises(EnumerationBudgetError):
            enumerate_event_probs(ModelParams(n=5, a=(0.5, 0.5), K=(2, 2), P=8))

    def test_budget_counts_groups_not_sets(self):
        # two groups of ring size 5 in a pool of 14 share one law of
        # C(14, 5) = 2002 sets, but the budget counts (2 * 2002)^2 > 1e7
        # assignments, as the group-labelled enumeration did
        p = ModelParams(n=2, a=(0.5, 0.5), K=(5, 5), P=14)
        for enumerate_events in (enumerate_event_probs, reference_event_probs):
            with pytest.raises(EnumerationBudgetError, match="4004\\^2"):
                enumerate_events(p)

    @pytest.mark.parametrize("params, message", [
        (ModelParams(n=2, a=(1.0,), K=(10**5,), P=10**9), "list more than 10000000 ids"),
        (ModelParams(n=2, a=(1.0,), K=(10**9,), P=10**9), "list more than 10000000 ids"),
        (ModelParams(n=10**7, a=(1.0,), K=(1,), P=3), "3\\^10000000 joint assignments"),
    ])
    def test_budget_refuses_huge_counts_without_building_them(self, params, message):
        start = time.perf_counter()
        with pytest.raises(EnumerationBudgetError, match=message):
            enumerate_event_probs(params)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("params", tiny_instances() + [
        ModelParams(n=3, a=(0.2, 0.3, 0.5), K=(1, 2, 2), P=4),
        ModelParams(n=2, a=(0.1, 0.3, 0.6), K=(1, 1, 3), P=5),
    ], ids=repr)
    def test_matches_group_labelled_enumeration(self, params):
        # exact equality of Fractions, including groups that share a ring size
        assert enumerate_event_probs(params) == reference_event_probs(params)

    @given(small_params(max_P=5, max_n=3))
    @settings(max_examples=50, deadline=None)
    def test_matches_group_labelled_enumeration_property(self, params):
        assert enumerate_event_probs(params) == reference_event_probs(params)

    def test_rejects_single_vertex(self):
        with pytest.raises(InvalidParamsError):
            enumerate_event_probs(ModelParams(n=1, a=(1.0,), K=(1,), P=2))


@pytest.mark.parametrize("argv", [
    ("pair", "--P", "1000000", "--Ki", "10000", "--Kj", "1"),
    ("events", "--n", "2", "--P", "1000000000", "--a", "1", "--K", "100000"),
    ("events", "--n", "10000000", "--P", "3", "--a", "1", "--K", "1"),
])
def test_cli_budget_refusal_exit_3(capsys, argv):
    # each once ended in a traceback from formatting a huge count, or took seconds to refuse
    start = time.perf_counter()
    code = main(["oracle", *argv])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert elapsed < 0.5
