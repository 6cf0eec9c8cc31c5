"""Metric definitions and the arithmetic that turns repetitions into metrics.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (a test keeps them
in step) and add what that file has no key for: what each metric means on
each workload, and which end-to-end metric on which workload a layer metric
should move.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict

import calibration
from tracing import layer_of, self_times

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

WORKLOADS = ("zero_one_sweep", "tiny_graph_trials", "ring_solve")

# name -> (unit, better, bound, meaning).  ref_ms are wall milliseconds scaled
# by the repetition's calibration (see calibration.py).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "process start to the first timed call (imports plus input generation); "
                "median over the run's fresh-process repetitions"),
    "throughput_per_ref_s": ("1/ref_s", "higher", 0.2,
                             "trials (zero_one_sweep, tiny_graph_trials: wall trials_per_s) "
                             "or queries (ring_solve: queries_per_s) per reference second; "
                             "total work over total call time"),
    "call_ref_ms_p50": ("ref_ms", "lower", 0.2,
                        "median latency of one client call: run_sweep plus write_sweep_csv "
                        "(zero_one_sweep: sweep_s), one run_trials call (tiny_graph_trials), "
                        "one query (ring_solve: query_ms_p50); per repetition, averaged"),
    "call_ref_ms_p90": ("ref_ms", "lower", 0.2,
                        "90th percentile of the same latencies (ring_solve: query_ms_p90)"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "ru_maxrss of a repetition's process plus that of its largest pool "
                    "child; median over repetitions"),
}

# name -> (unit, better, moves: "<end-to-end metric> on <workload>")
PER_LAYER = {
    "model_core.solve_k1_ms_p50": ("ms", "lower", "call_ref_ms_p90, throughput_per_ref_s on ring_solve; not call_ref_ms_p50 on zero_one_sweep"),
    "model_core.solve_k1_ms_p90": ("ms", "lower", "call_ref_ms_p90, throughput_per_ref_s on ring_solve; not call_ref_ms_p50 on zero_one_sweep"),
    "model_core.beta_evals_per_solve": ("count", "lower", "call_ref_ms_p90, throughput_per_ref_s on ring_solve"),
    "model_core.exact_quantities_ms_p50": ("ms", "lower", "call_ref_ms_p50 on ring_solve"),
    "model_core.b_vector_hit_ratio": ("ratio", "higher", "call_ref_ms_p50 on ring_solve"),
    "sampler.sample_graph_ms_p50": ("ms", "lower", "throughput_per_ref_s on zero_one_sweep (vectorized) and tiny_graph_trials (scalar)"),
    "sampler.incidences_per_s": ("1/s", "higher", "throughput_per_ref_s on zero_one_sweep and tiny_graph_trials"),
    "sampler.busy_frac": ("ratio", "lower", "throughput_per_ref_s on zero_one_sweep and tiny_graph_trials"),
    "graph_analysis.analyze_ms_p50": ("ms", "lower", "throughput_per_ref_s on zero_one_sweep and tiny_graph_trials"),
    "graph_analysis.incidences_per_s": ("1/s", "higher", "throughput_per_ref_s on zero_one_sweep and tiny_graph_trials"),
    "graph_analysis.busy_frac": ("ratio", "lower", "throughput_per_ref_s on zero_one_sweep and tiny_graph_trials"),
    "montecarlo.run_trials_s": ("s", "lower", "throughput_per_ref_s, mostly on tiny_graph_trials"),
    "montecarlo.self_frac": ("ratio", "lower", "throughput_per_ref_s, mostly on tiny_graph_trials"),
    "montecarlo.parallel_efficiency": ("ratio", "higher", "call_ref_ms_p50 on zero_one_sweep"),
    "sweeps.resolve_point_ms": ("ms", "lower", "call_ref_ms_p50 on zero_one_sweep"),
    "sweeps.build_row_ms": ("ms", "lower", "call_ref_ms_p50 on zero_one_sweep"),
    "sweeps.write_csv_ms": ("ms", "lower", "call_ref_ms_p50 on zero_one_sweep"),
    "sweeps.self_frac": ("ratio", "lower", "call_ref_ms_p50 on zero_one_sweep"),
    "trace.overhead_frac": ("ratio", "lower", "none: the cost of tracing itself"),
}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99), interpolated between the nearest samples
    ('inclusive' method, which never leaves the sampled range)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ref_scale(rep: dict) -> float:
    """Wall ms -> ref_ms for one repetition (see calibration.py)."""
    return calibration.REF_MS / statistics.fmean(rep["cal_ms"])


def end_to_end(reps: list[dict], scaled: bool = True) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count) from plain repetitions; with
    ``scaled`` false the call times stay in wall milliseconds.

    The host's speed can also sit at one of two levels for seconds at a
    time, so a pooled median would jump with the share of slow repetitions.
    The rate is total work over total call time, and the latency
    percentiles are taken per repetition and averaged: both move smoothly.
    """
    work = ms = 0.0
    p50, p90 = [], []
    count = 0
    for r in reps:
        scale = ref_scale(r) if scaled else 1.0
        work += sum(c["work"] for c in r["calls"])
        ms += sum(c["ms"] for c in r["calls"]) * scale
        ok = [c["ms"] * scale for c in r["calls"] if c["ok"]]
        if ok:
            p50.append(percentile(ok, 50))
            p90.append(percentile(ok, 90))
            count += len(ok)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reps), len(reps)),
        "throughput_per_ref_s": (work / ms * 1e3, int(work)),
        "call_ref_ms_p50": (statistics.fmean(p50), count),
        "call_ref_ms_p90": (statistics.fmean(p90), count),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), len(reps)),
    }


def _split_seconds(spans: list[dict], name: str, pass_name: str) -> float:
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and s["attrs"].get("pass") == pass_name
    )


def layer_metrics(reps: list[dict]) -> dict[str, tuple[float, int]]:
    """Per-layer metric name -> (value, sample count) from traced repetitions.

    A metric appears only when the spans hold the calls it is made of.
    """
    dur: dict[str, list[float]] = defaultdict(list)
    evals: list[int] = []
    lookups = hits = 0
    inc = {"sampler.sample_graph": 0, "graph_analysis.analyze": 0}
    busy = {"sampler.sample_graph": 0.0, "graph_analysis.analyze": 0.0}
    replay_s = serial_s = parallel_s = sweep_s = sweeps_self_s = 0.0
    workers = 1
    for rep in reps:
        spans = rep["spans"]
        hits += rep["counters"].get("b_vector_hits", 0)
        lookups += rep["counters"].get("b_vector_hits", 0) + rep["counters"].get("b_vector_misses", 0)
        for s, own in zip(spans, self_times(spans)):
            d = s["end"] - s["start"]
            if s["name"] == "montecarlo.run_trials" and s["attrs"]["pass"] != "workload":
                workers = max(workers, s["attrs"]["workers"])
                continue  # layer-split runs feed self_frac and parallel_efficiency
            dur[s["name"]].append(d)
            if s["name"] == "model_core.solve_k1":
                evals.append(s["attrs"]["beta_evals"])
            if s["name"] in inc:
                inc[s["name"]] += s["attrs"]["incidences"]
                busy[s["name"]] += d
            if s["name"] == "montecarlo.replay":
                replay_s += d
            if s["name"] == "sweeps.sweep":
                sweep_s += d
            if layer_of(s["name"]) == "sweeps":
                sweeps_self_s += own
        serial_s += _split_seconds(spans, "montecarlo.run_trials", "serial")
        parallel_s += _split_seconds(spans, "montecarlo.run_trials", "parallel")

    out: dict[str, tuple[float, int]] = {}

    def timing(metric: str, span: str, q: int, scale: float) -> None:
        if dur[span]:
            out[metric] = (percentile(dur[span], q) * scale, len(dur[span]))

    timing("model_core.solve_k1_ms_p50", "model_core.solve_k1", 50, 1e3)
    timing("model_core.solve_k1_ms_p90", "model_core.solve_k1", 90, 1e3)
    if evals:
        out["model_core.beta_evals_per_solve"] = (statistics.fmean(evals), len(evals))
    timing("model_core.exact_quantities_ms_p50", "model_core.exact_quantities", 50, 1e3)
    if lookups:
        out["model_core.b_vector_hit_ratio"] = (hits / lookups, lookups)
    timing("sampler.sample_graph_ms_p50", "sampler.sample_graph", 50, 1e3)
    timing("graph_analysis.analyze_ms_p50", "graph_analysis.analyze", 50, 1e3)
    for span, layer in (("sampler.sample_graph", "sampler"), ("graph_analysis.analyze", "graph_analysis")):
        if dur[span]:
            out[f"{layer}.incidences_per_s"] = (inc[span] / busy[span], len(dur[span]))
            out[f"{layer}.busy_frac"] = (busy[span] / replay_s, len(dur[span]))
    timing("montecarlo.run_trials_s", "montecarlo.run_trials", 50, 1.0)
    if serial_s and dur["sampler.sample_graph"]:
        covered = busy["sampler.sample_graph"] + busy["graph_analysis.analyze"]
        out["montecarlo.self_frac"] = ((serial_s - covered) / serial_s, len(dur["sampler.sample_graph"]))
    if serial_s and parallel_s:
        out["montecarlo.parallel_efficiency"] = (serial_s / (workers * parallel_s), len(reps))
    timing("sweeps.resolve_point_ms", "sweeps.resolve_point", 50, 1e3)
    timing("sweeps.build_row_ms", "sweeps.build_row", 50, 1e3)
    timing("sweeps.write_csv_ms", "sweeps.write_sweep_csv", 50, 1e3)
    if sweep_s:
        out["sweeps.self_frac"] = (sweeps_self_s / sweep_s, len(dur["sweeps.sweep"]))
    return out
