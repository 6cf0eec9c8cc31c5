"""Tests of the benchmark itself: metric names, span arithmetic, the
independent checks and the replay the traced run relies on.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import checks
import metrics
import workloads
from rigraph import ModelParams, b_vector, run_trials
from rigraph.sweeps import solve_k1_nearest
from tracing import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]


def test_metric_names_are_plain():
    for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER) + list(metrics.WORKLOADS):
        assert metrics.NAME_RE.fullmatch(name), name


def test_benchmark_json_matches_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]} == {
        k: v[:3] for k, v in metrics.END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == {
        k: v[:2] for k, v in metrics.PER_LAYER.items()
    }


def _span(start, end, parent=-1, name="x.y"):
    return {"name": name, "start": start, "end": end, "parent": parent, "id": None, "attrs": {}}


def test_self_time_worked_example():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 3.0, 0),
        _span(2.0, 4.0, 0),  # overlaps its sibling: counted once
        _span(9.0, 12.0, 0),  # runs past the parent: clipped
        _span(1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 1.0, 2.0 - 1.0, 2.0, 3.0, 1.0])


def test_self_time_is_never_negative_nor_longer_than_its_span():
    rng = random.Random(5)
    for _ in range(200):
        spans = []
        for i in range(rng.randint(1, 30)):
            start = rng.uniform(0, 10)
            spans.append(_span(start, start + rng.uniform(0, 5), rng.randint(-1, i - 1)))
        for s, own in zip(spans, self_times(spans)):
            assert 0.0 <= own <= s["end"] - s["start"]


def test_tracer_records_parents_and_intervals():
    tracer = Tracer()
    with tracer.span("a.outer", ident=1):
        with tracer.span("b.inner", ident=2, k=3) as rec:
            rec["attrs"]["extra"] = 4
    outer, inner = tracer.spans
    assert (outer["parent"], inner["parent"]) == (-1, 0)
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert inner["attrs"] == {"k": 3, "extra": 4}


@pytest.mark.parametrize("params, trials", [
    (ModelParams(**workloads.TINY_PARAMS), 40),  # scalar sampler, dict union-find
    (ModelParams(n=600, a=(0.5, 0.5), K=(2, 4), P=1200), 6),  # vectorized, scipy
])
def test_replay_reproduces_run_trials(params, trials):
    agg = run_trials(params, trials, 12345, workers=1)
    unit = workloads.Unit(params, trials, 12345, agg)
    tracer = Tracer()
    counts = workloads.replay(tracer, unit, 0)
    assert workloads.replay_mismatch(agg, counts) is None
    assert sum(s["name"] == "sampler.sample_graph" for s in tracer.spans) == trials
    off_by_one = (counts[0] + 1,) + tuple(counts[1:])
    assert workloads.replay_mismatch(agg, off_by_one) is not None


def test_b1_lgamma_agrees_with_model_core():
    for n, P, a, K in [(1000, 1000, (1.0,), (3,)), (10_000, 1_000_000, (0.5, 0.5), (25, 50)),
                       (100_000, 200_000, (1 / 3,) * 3, (3, 6, 12))]:
        lib = b_vector(ModelParams(n=n, a=a, K=K, P=P))[0]
        assert abs(checks.b1_lgamma(P, a, K) - lib) <= checks.b1_tolerance(P)


def test_nearest_check_accepts_solver_and_rejects_neighbours():
    for q in workloads.ring_stream(3, p_max=20_000, repeats=1):
        K = solve_k1_nearest(q.n, q.P, q.a, q.ratios, q.target)
        assert checks.check_nearest(q.n, q.P, q.a, q.ratios, q.target, K) is None
        for k in (K[0] - 1, K[0] + 1):
            wrong = checks.ring_shape(k, q.ratios, q.P)
            if k >= 1 and wrong != K:
                assert checks.check_nearest(q.n, q.P, q.a, q.ratios, q.target, wrong) is not None


def test_isolated_and_bracket_checks_reject_outliers():
    assert checks.check_isolated(1.5, 1.57, 200) is None
    assert checks.check_isolated(3.0, 1.57, 200) is not None
    assert checks.check_bracket(0.02, 0.95) is None
    assert checks.check_bracket(0.2, 0.95) is not None
    assert checks.check_bracket(0.02, 0.5) is not None


def test_ring_stream_is_seeded_and_balanced():
    a, b = workloads.ring_stream(1), workloads.ring_stream(2)
    assert a == workloads.ring_stream(1) and a != b
    for stream in (a, b):
        distinct = set(stream)
        assert len(distinct) == 21 and len(stream) == 21 * workloads.RING_REPEATS
        assert sorted(q.P for q in distinct) == sorted(3 * [10**3, 2 * 10**3, 10**4, 2 * 10**4,
                                                             10**5, 2 * 10**5, 10**6])
