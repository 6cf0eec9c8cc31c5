"""Trial runner and estimators.

``run_trials`` estimates P[connected], P[no isolated vertex] and
P[no isolated vertex but disconnected] plus isolated-count moments.  Trial t
always uses ``SeedSpec(master_seed, t)``, and aggregation is a commutative
integer sum, so the result is a pure function of (params, trials,
master_seed): worker count and scheduling change the wall time, never the
numbers.  Worker count comes from the ``workers`` argument, else the
``RIG_THREADS`` env var, else 1.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, InvariantViolation
from .graph_analysis import analyze
from .model_core import ModelParams
from .sampler import (
    _SCALAR_CUTOFF,
    SeedSpec,
    _sample_scalar,
    _sample_vector,
    trial_state_words,
)

ENV_WORKERS = "RIG_THREADS"


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
    """One event estimate (plus the run's isolated-count moments, which are
    shared by every event row of the same run)."""

    trials: int
    successes: int
    point: float
    ci_low: float
    ci_high: float
    mean_isolated: float
    stderr_isolated: float

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
    """Counts over trials [start, stop); commutative pieces only.

    The loop body replays exactly ``analyze(sample_graph(params,
    SeedSpec(master_seed, t)))`` with the per-trial construction costs
    hoisted out (one reused bit generator, precomputed stream derivation).
    """
    scratch = np.random.PCG64(0)
    gen = np.random.Generator(scratch)
    sample_fn = (
        _sample_scalar if params.n * (1 + params.K[-1]) <= _SCALAR_CUTOFF else _sample_vector
    )
    words = trial_state_words(master_seed, start, stop).tolist()
    state_dict = {
        "bit_generator": "PCG64",
        "state": {"state": 0, "inc": 0},
        "has_uint32": 0,
        "uinteger": 0,
    }
    inner = state_dict["state"]
    conn = noiso = fno = iso_sum = iso_sq = g1_sum = g1_sq = 0
    for w0, w1, w2, w3 in words:
        inner["state"] = (w0 << 64) | w1
        inner["inc"] = ((w2 << 64) | w3) | 1
        scratch.state = state_dict
        sample = sample_fn(params, gen)
        stats = analyze(sample)
        conn += stats.connected
        noiso += stats.isolated_count == 0
        fno += stats.no_isolated_but_disconnected
        iso_sum += stats.isolated_count
        iso_sq += stats.isolated_count * stats.isolated_count
        g1_sum += stats.group1_isolated_count
        g1_sq += stats.group1_isolated_count * stats.group1_isolated_count
    return conn, noiso, fno, iso_sum, iso_sq, g1_sum, g1_sq


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

    chunk = max(1, -(-trials // (workers * 4)))
    chunk = min(chunk, 65536)  # bounds per-chunk seed-table memory
    ranges = [(s, min(s + chunk, trials)) for s in range(0, trials, chunk)]
    if workers == 1 or trials < 64:
        parts = [_run_range(params, master_seed, a, b) for a, b in ranges]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _run_range,
                    *zip(*[(params, master_seed, a, b) for a, b in ranges]),
                )
            )
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
            mean_isolated=mean_iso,
            stderr_isolated=se_iso,
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
