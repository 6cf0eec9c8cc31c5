"""Correctness checks on the benchmark's outputs, written independently of
``rigraph.model_core``: b_1 comes from ``math.lgamma`` here, and ring shapes
are rebuilt from their definition.  Each check returns None when it passes
and a one-line description when it fails.
"""

from __future__ import annotations

import math

# Mean isolated count: allowed distance from the closed form, in Poisson
# standard errors of the trial total, plus a few counts for discreteness.
# The count is near-Poisson where the cross-moment ratio is near 1, as it is
# at every instance the benchmark runs.
ISOLATED_SIGMAS = 6.0
ISOLATED_SLACK_COUNTS = 3.0

# Wilson 95% interval of P[connected] at the sweep's endpoints.
LOW_END_MAX_HIGH = 0.05  # lowest target: upper end at most this
HIGH_END_MIN_LOW = 0.90  # highest target: lower end at least this


def ring_shape(k1: int, ratios: tuple[float, ...], P: int) -> tuple[int, ...]:
    """K_j = min(P, max(k1, round-half-up(ratio_j * k1)))."""
    return tuple(min(P, max(k1, math.floor(r * k1 + 0.5))) for r in ratios)


def _log_no_overlap(P: int, Ki: int, Kj: int) -> float:
    """ln C(P-Ki, Kj) - ln C(P, Kj) through lgamma."""
    return (
        math.lgamma(P - Ki + 1)
        - math.lgamma(P - Ki - Kj + 1)
        - math.lgamma(P + 1)
        + math.lgamma(P - Kj + 1)
    )


def b1_lgamma(P: int, a: tuple[float, ...], K: tuple[int, ...]) -> float:
    """b_1 = sum_j a_j (1 - C(P-K_1, K_j)/C(P, K_j))."""
    total = math.fsum(a)
    b1 = 0.0
    for aj, Kj in zip(a, K):
        avoid = 0.0 if P - K[0] < Kj else math.exp(_log_no_overlap(P, K[0], Kj))
        b1 += (aj / total) * (1.0 - avoid)
    return b1


def b1_tolerance(P: int) -> float:
    """Absolute error bound on ``b1_lgamma``: four lgamma values of size
    about lgamma(P+1) cancel, each rounded to a few ulps."""
    return 16.0 * 2.0**-52 * max(1.0, math.lgamma(P + 1)) + 1e-14


def beta_lgamma(n: int, P: int, a: tuple[float, ...], K: tuple[int, ...]) -> float:
    return n * b1_lgamma(P, a, K) - math.log(n)


def check_nearest(
    n: int, P: int, a: tuple[float, ...], ratios: tuple[float, ...], target: float,
    K: tuple[int, ...],
) -> str | None:
    """K must be the ratio-shaped vector whose deviation is nearest ``target``
    among the two candidates that bracket it: the smallest base size u whose
    deviation reaches the target, and u - 1 (ties go to the smaller vector).
    Comparisons allow the lgamma error bound, so a near-tie accepts either."""
    K = tuple(int(k) for k in K)
    k = K[0]
    if not 1 <= k <= P or K != ring_shape(k, ratios, P):
        return f"K={K} is not ratio-shaped for ratios {ratios}, P={P}"
    tol = n * b1_tolerance(P)

    def dev(k1: int) -> float:
        return beta_lgamma(n, P, a, ring_shape(k1, ratios, P)) - target

    d = dev(k)
    # K is the upper candidate u: reaches the target, its predecessor does not,
    # and the predecessor is not nearer
    if d >= -tol and (k == 1 or (dev(k - 1) < tol and abs(d) < abs(dev(k - 1)) + tol)):
        return None
    # K is the lower candidate u - 1: its successor reaches the target, K does
    # not, and K is at least as near
    if k < P and d < tol:
        d_up = dev(k + 1)
        if d_up >= -tol and abs(d) <= abs(d_up) + tol:
            return None
    return f"K={K} is not the nearest candidate to target {target} (n={n}, P={P})"


def check_closed_forms(
    n: int, P: int, a: tuple[float, ...], K: tuple[int, ...], b1: float, beta: float,
    yagan_c: float,
) -> str | None:
    """Library b_1, beta and c = n*b_1/ln n against the lgamma values."""
    ref = b1_lgamma(P, a, K)
    tol = b1_tolerance(P)
    ln_n = math.log(n)
    if abs(b1 - ref) > tol:
        return f"b1 {b1!r} differs from lgamma value {ref!r} (n={n}, P={P}, K={K})"
    if abs(beta - (n * ref - ln_n)) > n * tol:
        return f"beta {beta!r} differs from lgamma value (n={n}, P={P}, K={K})"
    if abs(yagan_c - n * ref / ln_n) > n * tol / ln_n:
        return f"yagan_c {yagan_c!r} differs from lgamma value (n={n}, P={P}, K={K})"
    return None


def check_isolated(mean: float, expected: float, trials: int) -> str | None:
    """Mean isolated count within the stated Poisson band of the closed form."""
    band = (ISOLATED_SIGMAS * math.sqrt(expected * trials) + ISOLATED_SLACK_COUNTS) / trials
    if abs(mean - expected) > band:
        return f"mean isolated {mean!r} is more than {band:.4g} from closed form {expected!r}"
    return None


def check_bracket(low_point_high: float, high_point_low: float) -> str | None:
    """The sweep's endpoints must straddle the zero-one transition."""
    if low_point_high > LOW_END_MAX_HIGH:
        return f"lowest target: P[connected] upper end {low_point_high!r} > {LOW_END_MAX_HIGH}"
    if high_point_low < HIGH_END_MIN_LOW:
        return f"highest target: P[connected] lower end {high_point_low!r} < {HIGH_END_MIN_LOW}"
    return None
