"""Trial runner and estimators.

``run_trials`` estimates P[connected], P[no isolated vertex] and
P[no isolated vertex but disconnected] plus isolated-count moments.  Trial t
always uses ``SeedSpec(master_seed, t)``, and aggregation is a commutative
integer sum, so the result is a pure function of (params, trials,
master_seed): worker count and scheduling change the wall time, never the
numbers.  Worker count comes from the ``workers`` argument, else the
``RIG_THREADS`` env var, else 1.

Trials run in batches of about ``_BATCH_FLOATS`` drawn floats (at least one
trial): ``sampler.sample_batch`` realizes each batch of a trial range as a
``GraphBatch`` and ``graph_analysis.analyze_batch`` counts its events.  Of
the sampler this module knows the floats a trial draws, n*(1+K_m), to size
batches, and that it reseats one ``PCG64`` scratch generator per trial,
which each range builds once; it knows neither the batch layout, nor how a
trial's stream is seeded, nor how the analysis keys its objects.  A parallel
run splits its trials into ranges of whole batches that shrink toward the
end (``_plan``) and maps them through a process pool; a run of one range
stays in this process.  A sweep opens one pool when it starts, sized for its
largest plan, if any of its points needs one.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from .errors import InvalidParamsError, InvariantViolation, WorkerCrashError
from .graph_analysis import analyze_batch
from .model_core import ModelParams, _as_int
from .sampler import SeedSpec, _check_pool, sample_batch

ENV_WORKERS = "RIG_THREADS"

# floats drawn per batch (n*(1+K_m) per trial); bounds the batch's memory
_BATCH_FLOATS = 1 << 16
# normal quantile of the two-sided 95% Wilson intervals
_WILSON_Z = 1.96


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1].

    Chosen over the Wald interval because it behaves correctly at 0 and 1,
    where a sharp zero-one transition parks most estimates.
    """
    if trials < 1:
        raise InvalidParamsError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidParamsError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    phat = successes / trials
    z2 = _WILSON_Z * _WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (_WILSON_Z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    # the score interval always brackets phat; enforce it against rounding
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


@dataclass(frozen=True)
class EstimateRow:
    """One event estimate: success count, point estimate and Wilson interval."""

    trials: int
    successes: int
    point: float
    ci_low: float
    ci_high: float

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise InvariantViolation("successes outside 0..trials")
        if not (0.0 <= self.ci_low <= self.point <= self.ci_high <= 1.0):
            raise InvariantViolation("interval must satisfy 0 <= low <= point <= high <= 1")


@dataclass(frozen=True)
class TrialAggregate:
    """Deterministic aggregate of one run."""

    params_hash: str
    trials: int
    master_seed: int
    connected: EstimateRow
    no_isolated: EstimateRow
    no_isolated_but_disconnected: EstimateRow
    mean_isolated: float
    stderr_isolated: float
    mean_group1_isolated: float
    stderr_group1_isolated: float


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument wins, then RIG_THREADS, then 1."""
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "")
        try:
            workers = int(raw) if raw.strip() else 1
        except ValueError:
            raise InvalidParamsError(f"{ENV_WORKERS} must be an integer, got {raw!r}") from None
    workers = _as_int("workers", workers)
    if workers < 1:
        raise InvalidParamsError(f"workers must be >= 1, got {workers}")
    return workers


def _batch_trials(params: ModelParams) -> int:
    """Trials per batch: about ``_BATCH_FLOATS`` drawn floats, at least one trial."""
    return max(1, _BATCH_FLOATS // (params.n * (1 + params.K[-1])))


def _run_range(params: ModelParams, master_seed: int, start: int, stop: int) -> tuple[int, ...]:
    """Counts over trials [start, stop); commutative pieces only."""
    batch = _batch_trials(params)
    scratch = np.random.PCG64(0)
    conn = noiso = fno = iso_sum = iso_sq = g1_sum = g1_sq = 0
    for a in range(start, stop, batch):
        comp, iso, g1 = analyze_batch(sample_batch(params, master_seed, a, min(a + batch, stop), scratch))
        connected = comp == 1
        no_iso = iso == 0
        conn += int(np.count_nonzero(connected))
        noiso += int(np.count_nonzero(no_iso))
        fno += int(np.count_nonzero(no_iso & ~connected))
        iso_sum += int(iso.sum())
        iso_sq += int((iso * iso).sum())
        g1_sum += int(g1.sum())
        g1_sq += int((g1 * g1).sum())
    return conn, noiso, fno, iso_sum, iso_sq, g1_sum, g1_sq


def _plan(params: ModelParams, trials: int, workers: int) -> tuple[list[int], int]:
    """Range bounds and pool size of a run; size 0 runs it in this process.

    One worker, or fewer than 64 trials, runs the whole run as one range.
    Otherwise each range takes ceil(R / 2W) of the R batches still left, so
    ranges are whole batches that shrink toward the end and the workers
    finish within about one batch of each other; only the last range may end
    in a partial batch.  The fork start method forks every worker up front,
    so the pool never outnumbers the ranges, and one range needs no pool.
    """
    if workers == 1 or trials < 64:
        return [0, trials], 0
    batch = _batch_trials(params)
    bounds = [0]
    left = -(-trials // batch)
    while left:
        take = -(-left // (2 * workers))
        left -= take
        bounds.append(min(bounds[-1] + take * batch, trials))
    ranges = len(bounds) - 1
    return bounds, 0 if ranges == 1 else min(workers, ranges)


_shared_pool: ContextVar[ProcessPoolExecutor | None] = ContextVar("rigraph_shared_pool", default=None)


@contextmanager
def _trial_pool(size: int) -> Iterator:
    """The ``map`` that runs planned for a pool of ``size`` use in this
    block: the builtin one when ``size`` is 0, else that of the enclosing
    block's pool or of a pool of ``size`` workers opened now.  A pool opened
    here is shut down and joined on exit, so ``RUSAGE_CHILDREN`` counts it."""
    outer = _shared_pool.get()
    if size == 0 or outer is not None:
        yield outer.map if size else map
        return
    with ProcessPoolExecutor(max_workers=size) as pool:
        token = _shared_pool.set(pool)
        try:
            yield pool.map
        finally:
            _shared_pool.reset(token)


def _moments(total: int, total_sq: int, trials: int) -> tuple[float, float]:
    mean = total / trials
    if trials < 2:
        return mean, 0.0
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(var / trials)


def run_trials(
    params: ModelParams,
    trials: int,
    master_seed: int,
    workers: int | None = None,
) -> TrialAggregate:
    """Run seeded trials and aggregate the event counts.

    Results are identical at any worker count.  Every trial's sample is
    checked for the connectivity=>no-isolation implication (a violation
    raises, it is never averaged away), and the per-sample identity
    #F = #no-isolated - #connected is re-asserted on the aggregate.
    """
    trials = _as_int("trials", trials)
    if trials < 1:
        raise InvalidParamsError(f"trials must be >= 1, got {trials}")
    _check_pool(params.P)
    master_seed = SeedSpec(master_seed).master_seed  # validated early, as a Python int
    workers = resolve_workers(workers)

    bounds, size = _plan(params, trials, workers)
    with _trial_pool(size) as run_map:
        try:
            parts = list(run_map(partial(_run_range, params, master_seed), bounds[:-1], bounds[1:]))
        except BrokenProcessPool:
            raise WorkerCrashError("a worker process died while running trials") from None
    conn, noiso, fno, iso_sum, iso_sq, g1_sum, g1_sq = (sum(col) for col in zip(*parts))
    if fno != noiso - conn:
        raise InvariantViolation(
            f"event identity broken: F={fno}, no-isolated={noiso}, connected={conn}"
        )
    mean_iso, se_iso = _moments(iso_sum, iso_sq, trials)
    mean_g1, se_g1 = _moments(g1_sum, g1_sq, trials)

    def row(successes: int) -> EstimateRow:
        low, high = wilson_interval(successes, trials)
        return EstimateRow(
            trials=trials,
            successes=successes,
            point=successes / trials,
            ci_low=low,
            ci_high=high,
        )

    return TrialAggregate(
        params_hash=params.fingerprint(),
        trials=trials,
        master_seed=master_seed,
        connected=row(conn),
        no_isolated=row(noiso),
        no_isolated_but_disconnected=row(fno),
        mean_isolated=mean_iso,
        stderr_isolated=se_iso,
        mean_group1_isolated=mean_g1,
        stderr_group1_isolated=se_g1,
    )
