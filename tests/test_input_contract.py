"""The input contract of the public API: a call whose raw-number arguments
are malformed returns or raises a ``RigraphError``, never a bare
``TypeError``, ``ValueError`` or ``OverflowError`` from deep inside.

Each raw-number argument (and each sequence of numbers) of the covered
calls is drawn from valid values mixed with a malformed pool: None,
strings, floats where ints belong, NaN and infinity, negatives, numpy
scalars and 2-D arrays.  Record-typed arguments (a ``ModelParams``, a
scratch generator, the arrays of a ``GraphBatch``) are always valid here;
refusing a wrong record type would take a type check in every function."""

from __future__ import annotations

import importlib
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigraph
from rigraph import (
    EstimateRow,
    GraphBatch,
    InvalidParamsError,
    ModelParams,
    RigraphError,
    SeedSpec,
    SweepSpec,
    diagnostics,
    enumerate_pair_prob,
    expected_isolated_from_b,
    no_overlap_ratio,
    run_trials,
    sample_batch,
    solve_k1,
)

MALFORMED = [
    None, "7", "", True, 2.5, 7.0, math.nan, math.inf, -1, -3.5,
    np.int64(-2), np.float64(2.0), np.float32(math.nan), np.ones((2, 2)), np.zeros((2, 2), dtype=np.int64),
]

PARAMS = ModelParams(n=10, a=(0.5, 0.5), K=(2, 3), P=20)


def number(*valid):
    """A raw-number argument: one of ``valid`` or a malformed value."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(MALFORMED))


def sequence(*valid):
    """A sequence argument: one of ``valid``, a tuple holding malformed
    items among valid ones, or a malformed value that is no sequence."""
    items = st.sampled_from(sorted({x for v in valid for x in v}) + MALFORMED)
    return st.one_of(st.sampled_from(valid), st.lists(items, min_size=1, max_size=3).map(tuple),
                     st.sampled_from(MALFORMED))


def optional(strategy):
    return st.one_of(st.none(), strategy)


def _sweep_spec(*args):
    return SweepSpec(*args, output_path="out.csv")


def _batch(trials, P):
    return GraphBatch(np.array([1, 1]), np.array([0, 1]), np.array([0, 1, 2]), trials, P)


def _from_sets(groups, sets):
    return GraphBatch.from_sets(groups, sets, 20)


# each call, with one strategy per drawn argument, and valid arguments it must accept
CALLS = {
    "ModelParams": (ModelParams, [number(2, 10, np.int64(40)), sequence((0.5, 0.5), (1.0,)),
                                  sequence((2, 3), (1,)), number(20, np.int64(60))], (10, (0.5, 0.5), (2, 3), 20)),
    "SeedSpec": (SeedSpec, [number(0, 7, 2**64 - 1), number(0, 3)], (7, 3)),
    "SweepSpec": (_sweep_spec, [
        number(40, 40.0, np.int64(40)), number(60, 60.0), sequence((0.5, 0.5)), optional(sequence((2, 3))),
        optional(sequence((1.0, 2.0))), st.sampled_from(["n", "beta-target", "K2", np.array(["n", "P"])]),
        sequence((30, 40), (-1.0, 1.0)), number(50, 50.0), number(7, 7.0),
    ], (40, 60, (0.5, 0.5), (2, 3), None, "n", (30, 40), 50, 7)),
    "EstimateRow": (EstimateRow, [number(1, 10), number(0, 5)], (10, 5)),
    "GraphBatch": (_batch, [number(1, 2), number(2, 5)], (1, 2)),
    # raw group labels and object ids; 2**70 is past the int64 range
    "GraphBatch.from_sets": (_from_sets, [
        sequence((1, 1), (1, 2**70)),
        st.one_of(st.lists(sequence((0,), (1, 2**70)), max_size=3), st.sampled_from(MALFORMED)),
    ], ((1, 1), ((0,), (1,)))),
    "solve_k1": (solve_k1, [number(10, 100), number(20, 1000), sequence((0.5, 0.5)), sequence((1.0, 2.0)),
                            number(0.0, -2.0, 2.0)], (100, 1000, (0.5, 0.5), (1.0, 2.0), 0.0)),
    "run_trials": (lambda *args: run_trials(PARAMS, *args), [number(1, 5), number(0, 7), optional(number(1, 2))],
                   (5, 7, 1)),
    "sample_batch": (lambda *args: sample_batch(PARAMS, *args), [number(0, 7), number(0, 2), number(1, 3)], (7, 0, 3)),
    "no_overlap_ratio": (no_overlap_ratio, [number(5, 60), number(0, 2, 5), number(0, 2, 5)], (60, 2, 5)),
    "enumerate_pair_prob": (enumerate_pair_prob, [number(4, 6), number(0, 1, 2), number(0, 1, 2)], (6, 2, 1)),
    "expected_isolated_from_b": (expected_isolated_from_b, [number(2, 50), sequence((0.5, 0.5), (1.0,)),
                                                            sequence((0.1, 0.2), (1.0,))], (50, (0.5, 0.5), (0.1, 0.2))),
    "diagnostics": (lambda window: diagnostics(PARAMS, window), [number(0.0, 0.05, 1.0)], (0.05,)),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_arguments_are_accepted(name):
    call, _, valid = CALLS[name]
    call(*valid)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_each_call_returns_or_refuses(name):
    call, strategies, _ = CALLS[name]

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*strategies))
    def returns_or_refuses(args):
        try:
            call(*args)
        except RigraphError:
            pass

    returns_or_refuses()


@pytest.mark.parametrize("call, args", [
    (no_overlap_ratio, (None, 2, 3)),
    (no_overlap_ratio, (40, 2.5, 3)),
    (no_overlap_ratio, (40.0, 2, 3)),
    (no_overlap_ratio, (40, True, 3)),
    (no_overlap_ratio, (np.ones((2, 2)), 1, 1)),
    (enumerate_pair_prob, (2.5, 1, 1)),
    (enumerate_pair_prob, (np.ones((2, 2)), 1, 1)),
    (enumerate_pair_prob, (4, True, 1)),
    (expected_isolated_from_b, (2.5, (1.0,), (0.5,))),
    (expected_isolated_from_b, (10**400, (1.0,), (0.5,))),
    (expected_isolated_from_b, (10, (), ())),
    (expected_isolated_from_b, (10, (0.5, 0.5), (0.1,))),
    (expected_isolated_from_b, (10, (1.0,), (-0.5,))),
    (expected_isolated_from_b, (10, (1e308, 1e308), (0.0, 0.0))),
    (expected_isolated_from_b, (10, None, (0.5,))),
], ids=[
    "ratio-P-None", "ratio-Ki-float", "ratio-P-float", "ratio-Ki-bool", "ratio-P-array",
    "pair-P-float", "pair-P-array", "pair-Ki-bool",
    "isolated-n-float", "isolated-n-past-float-range", "isolated-empty", "isolated-unequal-lengths",
    "isolated-negative-b", "isolated-a-past-1", "isolated-a-None",
])
def test_ring_pair_and_isolation_inputs_refused(call, args):
    with pytest.raises(InvalidParamsError):
        call(*args)


def test_ring_pair_rule_is_shared():
    message = "need 0 <= Ki, Kj <= P, got Ki=5, Kj=1, P=4"
    for call in (no_overlap_ratio, enumerate_pair_prob):
        with pytest.raises(InvalidParamsError) as err:
            call(4, 5, 1)
        assert str(err.value) == message
    # numpy integers are taken as the ints they hold
    assert no_overlap_ratio(np.int64(5), np.int32(2), 2) == no_overlap_ratio(5, 2, 2)
    assert enumerate_pair_prob(np.int64(5), 2, np.int8(2)) == enumerate_pair_prob(5, 2, 2)


# ---------------------------------------------------------------- public surface

# the top level exports inputs and functions, and the errors a caller catches;
# result records stay in the modules that build them
PUBLIC_NAMES = {
    "EnumerationBudgetError", "InvalidParamsError", "InvariantViolation", "RegimeViolationError", "RigraphError",
    "UnachievableError",
    "ModelParams", "SeedSpec", "SweepSpec", "GraphBatch", "EstimateRow",
    "analyze", "b_vector", "beta", "cross_moment_ratio", "diagnostics", "exact_quantities", "expected_isolated",
    "expected_isolated_from_b", "no_overlap_ratio", "solve_k1", "run_trials", "enumerate_event_probs",
    "enumerate_pair_prob", "sample_batch", "sample_graph", "run_sweep", "write_sweep_csv",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(rigraph).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC_NAMES) == 28
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize("module, name", [
    ("model_core", "ExactQuantities"), ("model_core", "RegimeDiagnostics"), ("montecarlo", "TrialAggregate"),
    ("oracle", "EventProbs"), ("sweeps", "SweepRow"), ("sweeps", "simulate_row"), ("sweeps", "load_sweep_spec"),
    ("sweeps", "solve_k1_nearest"), ("graph_analysis", "TrialStats"),
])
def test_records_and_helpers_live_in_their_modules(module, name):
    assert not hasattr(rigraph, name)
    assert hasattr(importlib.import_module(f"rigraph.{module}"), name)
