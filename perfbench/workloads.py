"""The three workloads: inputs made from the seed, the client calls the
benchmark times, their traced twins, and the checks on their outputs.

Every workload is a closed loop with one client: the next call is issued
only after the previous one returns.  ``workers`` is always passed to the
library explicitly, so ``RIG_THREADS`` never matters.
"""

from __future__ import annotations

import dataclasses
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

import rigraph.sweeps as sweeps
from rigraph import (
    ModelParams,
    SeedSpec,
    analyze,
    b_vector,
    diagnostics,
    exact_quantities,
    expected_isolated,
    run_trials,
    sample_graph,
    write_sweep_csv,
)

import checks
from tracing import Tracer

# zero_one_sweep: the paper's headline experiment at desk scale.  200 trials
# per point (the package default is 2000) keeps one sweep near 1.5 s on two
# workers while still pinning both ends of the transition.
SWEEP_BASE = {"n": 2000, "P": 4000, "a": (0.5, 0.5), "ratios": (1.0, 2.0)}
SWEEP_TARGETS = (-4.0, -2.0, 0.0, 2.0, 4.0)
SWEEP_TRIALS = 200
SWEEPS_PER_REP = 2

# tiny_graph_trials: n*(1+K_m) = 300 and 2n incidences stay below both 512
# cutoffs, so the scalar sampler and the dict union-find run.
TINY_PARAMS = {"n": 60, "a": (0.5, 0.5), "K": (2, 4), "P": 120}
TINY_TRIALS = 200
TINY_CALLS_PER_REP = 30
TINY_SPLIT_CALLS = 10

# ring_solve: every pool size of the grid appears once per m with n and the
# target drawn from the seed, so the cold solves always span P = 1e3..1e6 and
# a seed changes which cells are drawn but not how costly the stream is.  21
# distinct queries touch about 380 b_vector keys, under the cache's 512, so
# each of the 5 repeats of a query is served from the cache in any order.
RING_N = (1000, 10_000, 100_000)
RING_P_PER_N = (1, 2, 10, 100)
RING_P_MAX = 1_000_000
RING_SHAPES = {1: ((1.0,), (1.0,)), 2: ((0.5, 0.5), (1.0, 2.0)), 3: ((1 / 3,) * 3, (1.0, 2.0, 4.0))}
RING_TARGETS = (-2.0, 0.0, 2.0)
RING_REPEATS = 5


@dataclass(frozen=True)
class Unit:
    """One batch of trials and its aggregate, as the layer split re-runs it."""

    params: ModelParams
    trials: int
    master_seed: int
    agg: object  # TrialAggregate


def bvector_lookups() -> tuple[int, int]:
    info = b_vector.cache_info()
    return info.hits, info.misses


@contextmanager
def _patched(module: object, name: str, wrapper) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _spanned(tracer: Tracer, span: str):
    def wrap(fn):
        def call(*args, **kwargs):
            with tracer.span(span):
                return fn(*args, **kwargs)
        return call
    return wrap


def _solve_spanned(tracer: Tracer):
    def wrap(fn):
        def call(*args, **kwargs):
            before = sum(bvector_lookups())
            with tracer.span("model_core.solve_k1") as rec:
                out = fn(*args, **kwargs)
            rec["attrs"]["beta_evals"] = sum(bvector_lookups()) - before
            return out
        return call
    return wrap


def _trials_spanned(tracer: Tracer, pass_name: str, units: list):
    def wrap(fn):
        def call(params, trials, master_seed, workers=None):
            with tracer.span("montecarlo.run_trials", ident=len(units), workers=workers) as rec:
                rec["attrs"]["pass"] = pass_name
                agg = fn(params, trials, master_seed, workers)
            units.append(Unit(params, trials, master_seed, agg))
            return agg
        return call
    return wrap


def spanned_run_trials(tracer: Tracer, pass_name: str, units: list):
    """``run_trials`` with a span tagged ``pass_name``; each batch it runs is
    appended to ``units``."""
    return _trials_spanned(tracer, pass_name, units)(run_trials)


# The wrappers below reach the calls ``rigraph.sweeps`` makes into the layers
# beneath it from outside: the module's globals are swapped for spanned
# wrappers and restored on exit.  Nothing in the package is edited.

@contextmanager
def traced_sweeps(tracer: Tracer) -> Iterator[None]:
    """Spans around sweep-point resolution, ring solving and row building."""
    with _patched(sweeps, "resolve_point", _spanned(tracer, "sweeps.resolve_point")), \
         _patched(sweeps, "solve_k1_nearest", _spanned(tracer, "sweeps.solve_k1_nearest")), \
         _patched(sweeps, "solve_k1", _solve_spanned(tracer)), \
         _patched(sweeps, "build_row", _spanned(tracer, "sweeps.build_row")):
        yield


@contextmanager
def traced_trials(tracer: Tracer, pass_name: str, units: list) -> Iterator[None]:
    """Spans around each ``run_trials`` a sweep makes; each batch is also
    appended to ``units``."""
    with _patched(sweeps, "run_trials", _trials_spanned(tracer, pass_name, units)):
        yield


def replay(tracer: Tracer, unit: Unit, ident: int) -> tuple[int, ...]:
    """Re-run a batch trial by trial through the public per-trial calls, as
    ``run_trials`` does internally, and return its aggregate counts."""
    scratch = np.random.PCG64(0)
    conn = noiso = fno = iso = g1 = 0
    with tracer.span("montecarlo.replay", ident=ident):
        for t in range(unit.trials):
            with tracer.span("sampler.sample_graph", ident=t) as rec:
                sample = sample_graph(unit.params, SeedSpec(unit.master_seed, t), scratch=scratch)
            rec["attrs"]["incidences"] = len(sample.objects)
            with tracer.span("graph_analysis.analyze", ident=t, incidences=len(sample.objects)):
                stats = analyze(sample)
            conn += stats.connected
            noiso += stats.isolated_count == 0
            fno += stats.no_isolated_but_disconnected
            iso += stats.isolated_count
            g1 += stats.group1_isolated_count
    return conn, noiso, fno, iso, g1


def replay_mismatch(agg, counts: tuple[int, ...]) -> str | None:
    conn, noiso, fno, iso, g1 = counts
    got = (agg.connected.successes, agg.no_isolated.successes,
           agg.no_isolated_but_disconnected.successes,
           agg.mean_isolated, agg.mean_group1_isolated)
    want = (conn, noiso, fno, iso / agg.trials, g1 / agg.trials)
    if got != want:
        return f"replay counts {want} differ from run_trials {got} (seed {agg.master_seed})"
    return None


class ZeroOneSweep:
    name = "zero_one_sweep"

    def __init__(self, seed: int, workdir: str, workers: int, *,
                 targets: tuple[float, ...] = SWEEP_TARGETS, sweeps_per_rep: int = SWEEPS_PER_REP) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.workers = workers
        self.specs = [
            sweeps.SweepSpec(
                base_n=SWEEP_BASE["n"], base_P=SWEEP_BASE["P"], a=SWEEP_BASE["a"],
                base_K=None, ratios=SWEEP_BASE["ratios"], axis="beta-target",
                points=targets, trials=SWEEP_TRIALS, master_seed=rng.getrandbits(64),
                output_path=os.path.join(workdir, f"zero_one_{i}.csv"),
            )
            for i in range(sweeps_per_rep)
        ]

    def __len__(self) -> int:
        return len(self.specs)

    def work(self, i: int) -> int:
        return len(self.specs[i].points) * self.specs[i].trials

    def call(self, i: int):
        spec = self.specs[i]
        rows = sweeps.run_sweep(spec, workers=self.workers)
        write_sweep_csv(rows, spec.output_path)
        return rows

    def traced_call(self, i: int, tracer: Tracer):
        spec = self.specs[i]
        with tracer.span("sweeps.sweep", ident=i):
            with traced_sweeps(tracer), traced_trials(tracer, "workload", []):
                rows = sweeps.run_sweep(spec, workers=self.workers)
            with tracer.span("sweeps.write_sweep_csv", ident=i):
                write_sweep_csv(rows, spec.output_path)
        return rows

    def check(self, i: int, rows) -> list[str]:
        spec = self.specs[i]
        a, ratios = spec.a, spec.ratios
        out = []
        for row in rows:
            params = ModelParams(n=row.n, a=a, K=row.K, P=row.P)
            out.append(checks.check_nearest(row.n, row.P, a, ratios, row.axis_value, row.K))
            out.append(checks.check_closed_forms(row.n, row.P, a, row.K, row.b1, row.beta, row.yagan_c))
            out.append(checks.check_isolated(row.mean_isolated, expected_isolated(params)[0], spec.trials))
        out.append(checks.check_bracket(rows[0].p_connected_high, rows[-1].p_connected_low))
        with open(spec.output_path, encoding="utf-8") as fh:
            if len(fh.read().splitlines()) != len(rows) + 1:
                out.append(f"{spec.output_path}: expected a header and {len(rows)} rows")
        return [f for f in out if f]

    def serial_units(self, tracer: Tracer, results: list[str | None]) -> Iterator[Unit]:
        """Re-run the first sweep on one worker, whose CSV must match the
        W-worker CSV byte for byte (the package's determinism contract), then
        yield its batches, each right after a timed 1-worker run of it."""
        spec = self.specs[0]
        one = dataclasses.replace(spec, output_path=spec.output_path + ".w1")
        batches: list[Unit] = []
        with traced_trials(Tracer(), "csv", batches):  # only collects the batches
            rows = sweeps.run_sweep(one, workers=1)
        write_sweep_csv(rows, one.output_path)
        with open(spec.output_path, "rb") as fw, open(one.output_path, "rb") as f1:
            same = fw.read() == f1.read()
        results.append(None if same else f"CSV at 1 worker differs from CSV at {self.workers} workers")
        units: list[Unit] = []
        run = spanned_run_trials(tracer, "serial", units)
        for b in batches:
            run(b.params, b.trials, b.master_seed, 1)
            yield units[-1]


class TinyGraphTrials:
    name = "tiny_graph_trials"

    def __init__(self, seed: int, workdir: str, workers: int) -> None:
        rng = random.Random(f"{self.name}/{seed}")
        self.workers = workers
        self.params = ModelParams(**TINY_PARAMS)
        self.seeds = [rng.getrandbits(64) for _ in range(TINY_CALLS_PER_REP)]

    def __len__(self) -> int:
        return len(self.seeds)

    def work(self, i: int) -> int:
        return TINY_TRIALS

    def call(self, i: int):
        return run_trials(self.params, TINY_TRIALS, self.seeds[i], workers=1)

    def traced_call(self, i: int, tracer: Tracer):
        return spanned_run_trials(tracer, "workload", [])(self.params, TINY_TRIALS, self.seeds[i], 1)

    def check(self, i: int, agg) -> list[str]:
        failure = checks.check_isolated(agg.mean_isolated, expected_isolated(self.params)[0], TINY_TRIALS)
        return [failure] if failure else []

    def serial_units(self, tracer: Tracer, results: list[str | None]) -> Iterator[Unit]:
        """Each batch is yielded right after its 1-worker run, so the
        parallel run and the replay follow it before the host's speed can
        drift."""
        units: list[Unit] = []
        run = spanned_run_trials(tracer, "serial", units)
        for seed in self.seeds[:TINY_SPLIT_CALLS]:
            run(self.params, TINY_TRIALS, seed, 1)
            yield units[-1]


@dataclass(frozen=True)
class Query:
    n: int
    P: int
    a: tuple[float, ...]
    ratios: tuple[float, ...]
    target: float


def ring_stream(seed: int, p_max: int = RING_P_MAX, repeats: int = RING_REPEATS) -> list[Query]:
    rng = random.Random(f"ring_solve/{seed}")
    pools = sorted({n * r for n in RING_N for r in RING_P_PER_N if n * r <= p_max})
    distinct = []
    for P in pools:
        ns = [n for n in RING_N if P % n == 0 and P // n in RING_P_PER_N]
        for m, (a, ratios) in RING_SHAPES.items():
            distinct.append(Query(rng.choice(ns), P, a, ratios, rng.choice(RING_TARGETS)))
    stream = distinct * repeats
    rng.shuffle(stream)
    return stream


class RingSolve:
    name = "ring_solve"

    def __init__(self, seed: int, workdir: str, workers: int, *,
                 p_max: int = RING_P_MAX, repeats: int = RING_REPEATS) -> None:
        self.queries = ring_stream(seed, p_max, repeats)

    def __len__(self) -> int:
        return len(self.queries)

    def work(self, i: int) -> int:
        return 1

    def call(self, i: int):
        q = self.queries[i]
        K = sweeps.solve_k1_nearest(q.n, q.P, q.a, q.ratios, q.target)
        params = ModelParams(n=q.n, a=q.a, K=K, P=q.P)
        return K, exact_quantities(params), diagnostics(params)

    def traced_call(self, i: int, tracer: Tracer):
        q = self.queries[i]
        with tracer.span("client.query", ident=i):
            with traced_sweeps(tracer):
                K = sweeps.solve_k1_nearest(q.n, q.P, q.a, q.ratios, q.target)
            params = ModelParams(n=q.n, a=q.a, K=K, P=q.P)
            with tracer.span("model_core.exact_quantities", ident=i):
                eq = exact_quantities(params)
            with tracer.span("model_core.diagnostics", ident=i):
                dg = diagnostics(params)
        return K, eq, dg

    def check(self, i: int, out) -> list[str]:
        q = self.queries[i]
        K, eq, dg = out
        failures = [
            checks.check_nearest(q.n, q.P, q.a, q.ratios, q.target, K),
            checks.check_closed_forms(q.n, q.P, q.a, K, eq.b[0], eq.beta, dg.yagan_c),
        ]
        return [f for f in failures if f]

    def serial_units(self, tracer: Tracer, results: list[str | None]) -> Iterator[Unit]:
        yield from ()


WORKLOADS = {w.name: w for w in (ZeroOneSweep, TinyGraphTrials, RingSolve)}


def reference_workloads(seed: int, workdir: str, workers: int) -> list:
    """Small instances that between them reach every layer, for the layer
    metrics a workload's own calls never reach (ring_solve never samples)."""
    return [
        ZeroOneSweep(seed, workdir, workers, targets=(-4.0, 4.0), sweeps_per_rep=1),
        RingSolve(seed, workdir, workers, p_max=10_000, repeats=2),
    ]

