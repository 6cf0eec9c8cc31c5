"""Slow references for the ring-size solver and the avoidance ratio.

``bisect_solve_k1`` is the plain integer bisection over [1, P] that
``solve_k1`` used before its search was seeded; ``bisect_solve_k1_nearest``
is ``solve_k1_nearest`` built on it.  Both evaluate beta(P) and beta(1)
first, and raise ``solve_k1``'s message for an unachievable target.  They
build their ring vectors with ``try_ring_sizes_for``, the ``ring_sizes_for``
that rounded in a loop and fell back to a second formula when the loop
raised.
``full_sum_no_overlap_ratio`` is ``no_overlap_ratio`` without its underflow
bound: the exp of the full compensated log sum, written out here.  The tests
require the fast paths to match these exactly.
"""

from __future__ import annotations

import math

from rigraph import InvalidParamsError, ModelParams, UnachievableError, beta


def try_ring_sizes_for(K1: int, ratios: tuple[float, ...], P: int) -> tuple[int, ...]:
    """min(P, max(K1, round-half-up(ratios_j * K1))) for 1 <= K1 <= P,
    rounding in a loop and, when a product overflows the float range,
    recomputing every size without rounding one at or past P or below 0."""
    sizes = []
    try:
        for r in ratios:
            k = math.floor(r * K1 + 0.5)
            if k <= K1:
                k = K1
            if k >= P:
                k = P
            sizes.append(k)
    except (OverflowError, ValueError):  # floor of an infinite or NaN product
        if not all(-math.inf < r < math.inf for r in ratios):
            raise InvalidParamsError(f"ratios must be finite, got {ratios}") from None
        return tuple(P if r * K1 >= P else max(K1, math.floor(max(r, 0.0) * K1 + 0.5)) for r in ratios)
    return tuple(sizes)


def full_sum_no_overlap_ratio(P: int, Ki: int, Kj: int) -> float:
    """C(P-Ki, Kj) / C(P, Kj) for 0 <= Ki, Kj <= P, as the exp of the
    compensated sum of log1p(-max/(P - t)) over t < min."""
    small, large = sorted((Ki, Kj))
    if small == 0:
        return 1.0
    if P - large < small:
        return 0.0
    return math.exp(math.fsum(math.log1p(-large / (P - t)) for t in range(small)))


def bisect_solve_k1(
    n: int, P: int, a: tuple[float, ...], ratios: tuple[float, ...], target_beta: float
) -> tuple[int, ...]:
    a = tuple(float(x) for x in a)
    ratios = tuple(float(r) for r in ratios)
    target_beta = float(target_beta)

    def beta_at(k1: int) -> float:
        return beta(ModelParams(n=n, a=a, K=try_ring_sizes_for(k1, ratios, P), P=P))

    top = beta_at(P)
    if top < target_beta:
        raise UnachievableError(f"target beta {target_beta} unachievable: even K=(P,...,P) gives beta {top}")
    lo, hi = 1, P
    if beta_at(lo) >= target_beta:
        return try_ring_sizes_for(lo, ratios, P)
    while hi - lo > 1:  # invariant: beta_at(lo) < target <= beta_at(hi)
        mid = (lo + hi) // 2
        if beta_at(mid) >= target_beta:
            hi = mid
        else:
            lo = mid
    return try_ring_sizes_for(hi, ratios, P)


def bisect_solve_k1_nearest(
    n: int, P: int, a: tuple[float, ...], ratios: tuple[float, ...], target_beta: float
) -> tuple[int, ...]:
    upper = bisect_solve_k1(n, P, a, ratios, target_beta)
    if upper[0] == 1:
        return upper
    lower = try_ring_sizes_for(upper[0] - 1, tuple(float(r) for r in ratios), P)

    def achieved(K: tuple[int, ...]) -> float:
        return beta(ModelParams(n=n, a=a, K=K, P=P))

    if abs(achieved(lower) - target_beta) <= abs(achieved(upper) - target_beta):
        return lower
    return upper
