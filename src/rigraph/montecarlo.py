"""Trial runner and estimators.

``run_trials`` estimates P[connected], P[no isolated vertex] and
P[no isolated vertex but disconnected] plus isolated-count moments.  Trial t
always uses ``SeedSpec(master_seed, t)``, and aggregation is a commutative
integer sum, so the result is a pure function of (params, trials,
master_seed): worker count and scheduling change the wall time, never the
numbers.  Worker count comes from the ``workers`` argument, else the
``RIG_THREADS`` env var, else 1.

Trials run in batches of about ``_BATCH_FLOATS`` drawn floats (at least one
trial): ``sampler.sample_batch`` realizes a batch and
``graph_analysis.analyze_batch`` analyzes it, the same kernels that
``sample_graph`` and ``analyze`` run on a batch of one.  Inside a
``_sweep_pool`` block, every parallel call shares one process pool.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InvalidParamsError, InvariantViolation, WorkerCrashError
from .graph_analysis import analyze_batch
from .model_core import ModelParams
from .sampler import SeedSpec, sample_batch, trial_state_words

ENV_WORKERS = "RIG_THREADS"

# floats drawn per batch (n*(1+K_m) per trial); bounds the batch's memory
_BATCH_FLOATS = 1 << 16
# the analysis tags object ids with t*P + o, which must stay inside int64
_KEY_LIMIT = 1 << 62


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1].

    Chosen over the Wald interval because it behaves correctly at 0 and 1,
    where a sharp zero-one transition parks most estimates.
    """
    if trials < 1:
        raise InvalidParamsError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise InvalidParamsError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    if z <= 0:
        raise InvalidParamsError(f"z must be > 0, got {z}")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
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
    if workers < 1:
        raise InvalidParamsError(f"workers must be >= 1, got {workers}")
    return workers


def _run_range(params: ModelParams, master_seed: int, start: int, stop: int) -> tuple[int, ...]:
    """Counts over trials [start, stop); commutative pieces only."""
    batch = max(1, min(_BATCH_FLOATS // (params.n * (1 + params.K[-1])), _KEY_LIMIT // params.P))
    words = trial_state_words(master_seed, start, stop)
    scratch = np.random.PCG64(0)
    conn = noiso = fno = iso_sum = iso_sq = g1_sum = g1_sq = 0
    for a in range(0, stop - start, batch):
        rows = words[a:a + batch]
        groups, objects, offsets = sample_batch(params, rows, scratch)
        comp, iso, g1 = analyze_batch(groups, objects, offsets, len(rows), params.P)
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


class _LazyPool:
    """A process pool forked by the first ``map``, sized for that call; the
    owner's ``ExitStack`` shuts it down and joins its workers."""

    def __init__(self, stack: ExitStack) -> None:
        self._stack = stack
        self._pool: ProcessPoolExecutor | None = None

    def map(self, fn, calls: list[tuple], workers: int) -> list:
        if self._pool is None:
            self._pool = self._stack.enter_context(ProcessPoolExecutor(max_workers=workers))
        try:
            return list(self._pool.map(fn, *zip(*calls)))
        except BrokenProcessPool:
            raise WorkerCrashError("a worker process died while running trials") from None


_shared_pool: ContextVar[_LazyPool | None] = ContextVar("rigraph_shared_pool", default=None)


@contextmanager
def _sweep_pool() -> Iterator[_LazyPool]:
    """Every parallel ``run_trials`` call inside this block maps through one
    pool, forked by the first of them; a nested block joins the outer one.
    On exit the pool is shut down and its workers are joined, so
    ``RUSAGE_CHILDREN`` counts them."""
    outer = _shared_pool.get()
    if outer is not None:
        yield outer
        return
    with ExitStack() as stack:
        pool = _LazyPool(stack)
        token = _shared_pool.set(pool)
        try:
            yield pool
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
    if trials < 1:
        raise InvalidParamsError(f"trials must be >= 1, got {trials}")
    if params.n < 2:
        raise InvalidParamsError(f"simulation needs n >= 2, got n={params.n}")
    SeedSpec(master_seed, 0)  # validate the seed range early
    workers = resolve_workers(workers)

    serial = workers == 1 or trials < 64
    chunk = trials if serial else -(-trials // (workers * 4))
    chunk = min(chunk, 65536)  # bounds a range's table of state words
    ranges = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
    if serial:
        parts = [_run_range(params, master_seed, a, b) for a, b in ranges]
    else:
        # the fork start method forks every worker up front; fork no idle ones
        with _sweep_pool() as pool:
            calls = [(params, master_seed, a, b) for a, b in ranges]
            parts = pool.map(_run_range, calls, min(workers, len(ranges)))
    counts = tuple(sum(col) for col in zip(*parts))

    conn, noiso, fno, iso_sum, iso_sq, g1_sum, g1_sq = counts
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
