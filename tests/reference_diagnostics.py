"""Slow reference for ``diagnostics``: the regime report as it was written
before the record was filled in one step, each field read from ``params``
where it is used and the record built by keyword.  The tests require
``diagnostics`` to return the same fields bit for bit."""

from __future__ import annotations

import math

from rigraph import ModelParams, b_vector
from rigraph.model_core import (
    MAX_BETA_DRIFT,
    MAX_RING_SQ_PER_POOL,
    MIN_POOL_PER_VERTEX,
    RegimeDiagnostics,
)


def reference_regime(n: int, b1: float, window: float) -> tuple[float, float, str]:
    """Yagan's c, beta and the regime label for a finite window >= 0."""
    dev = n * b1 - math.log(n)
    c = n * b1 / math.log(n)
    if c < 1.0 - window:
        label = "subcritical-yagan"
    elif c > 1.0 + window:
        label = "supercritical-yagan"
    else:
        sign = ">" if dev > 0 else ("<" if dev < 0 else "=")
        label = f"critical-window(beta{sign}0)"
    return c, dev, label


def reference_diagnostics(params: ModelParams, window: float) -> RegimeDiagnostics:
    c, dev, regime = reference_regime(params.n, b_vector(params)[0], window)
    p_over_n = params.P / params.n
    km_sq_over_p = params.K[-1] ** 2 / params.P
    beta_over_ln_n = dev / math.log(params.n)
    flags: list[str] = []
    if p_over_n < MIN_POOL_PER_VERTEX:
        flags.append("pool_growth")
    if km_sq_over_p > MAX_RING_SQ_PER_POOL:
        flags.append("ring_size")
    if abs(beta_over_ln_n) > MAX_BETA_DRIFT:
        flags.append("beta_drift")
    return RegimeDiagnostics(
        p_over_n=p_over_n,
        km_sq_over_p=km_sq_over_p,
        beta_over_ln_n=beta_over_ln_n,
        yagan_c=c,
        flags=tuple(flags),
        beta=dev,
        regime=regime,
        window=window,
    )
