"""Slow references for the ring-size solver and the avoidance ratio.

``ring_sizes(K1, ratios, P)`` is the ring vector of base size K1:
K_j = min(P, max(K1, round-half-up(ratios_j * K1))), by the library's one
rule, ``model_core._scaled_sizes``, which rounds exactly; at K1 > P every
size is P.  ``bisect_solve_k1`` is the plain integer bisection over [1, P]
that ``solve_k1`` used before its search was seeded;
``bisect_solve_k1_nearest`` is ``solve_k1_nearest`` built on it.  Both
evaluate beta(P) and beta(1) first, raise ``solve_k1``'s message for an
unachievable target, and build their ring vectors with ``ring_sizes``.
``gallop_solve_k1`` is ``solve_k1`` as it searched before one loop did:
a gallop down or up from the same start, then a bisection of the bracket the
gallop left.  It evaluates beta through ``model_core._ring_beta``, looked up
on every call, so a test that swaps that function sees its probes.
``full_sum_no_overlap_ratio`` is ``no_overlap_ratio`` without its underflow
bound: the exp of the full compensated log sum, written out here.  The tests
require the fast paths to match these exactly.
"""

from __future__ import annotations

import math

import rigraph.model_core as model_core
from rigraph import InvalidParamsError, ModelParams, UnachievableError, beta
from rigraph.model_core import _NEWTON_MAX_STEPS, _NEWTON_MIN_B1, _NEWTON_REL_STEP, _scaled_sizes, _solver_inputs


def ring_sizes(K1: int, ratios: tuple[float, ...], P: int) -> tuple[int, ...]:
    return _scaled_sizes(ratios, K1, min(K1, P), P)


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
        return beta(ModelParams(n=n, a=a, K=ring_sizes(k1, ratios, P), P=P))

    top = beta_at(P)
    if top < target_beta:
        raise UnachievableError(f"target beta {target_beta} unachievable: even K=(P,...,P) gives beta {top}")
    lo, hi = 1, P
    if beta_at(lo) >= target_beta:
        return ring_sizes(lo, ratios, P)
    while hi - lo > 1:  # invariant: beta_at(lo) < target <= beta_at(hi)
        mid = (lo + hi) // 2
        if beta_at(mid) >= target_beta:
            hi = mid
        else:
            lo = mid
    return ring_sizes(hi, ratios, P)


def bisect_solve_k1_nearest(
    n: int, P: int, a: tuple[float, ...], ratios: tuple[float, ...], target_beta: float
) -> tuple[int, ...]:
    upper = bisect_solve_k1(n, P, a, ratios, target_beta)
    if upper[0] == 1:
        return upper
    lower = ring_sizes(upper[0] - 1, tuple(float(r) for r in ratios), P)

    def achieved(K: tuple[int, ...]) -> float:
        return beta(ModelParams(n=n, a=a, K=K, P=P))

    if abs(achieved(lower) - target_beta) <= abs(achieved(upper) - target_beta):
        return lower
    return upper


def gallop_solve_k1(
    n: int,
    P: int,
    a: tuple[float, ...],
    ratios: tuple[float, ...],
    target_beta: float,
    *,
    nearest: bool = False,
) -> tuple[int, ...]:
    n, P, a, ratios, target_beta = _solver_inputs(n, P, a, ratios, target_beta)
    log_n = math.log(n)
    top = n * math.fsum(a) - log_n
    if top < target_beta:
        raise UnachievableError(f"target beta {target_beta} unachievable: even K=(P,...,P) gives beta {top}")

    seen = {P: top}

    def beta_at(k1: int) -> float:
        value = seen[k1] = model_core._ring_beta(n, P, a, _scaled_sizes(ratios, k1, k1, P))
        return value

    mean_ratio = math.fsum([aj * r for aj, r in zip(a, ratios)])
    demand = log_n + target_beta
    if P * demand / (n * mean_ratio) == math.inf:
        if beta_at(1) >= target_beta:
            return _scaled_sizes(ratios, 1, 1, P)
        raise InvalidParamsError(
            f"cannot solve for target beta {target_beta} at n={n:.6g}, P={P:.6g}: "
            "the estimate of K_1 is past the float range"
        )
    b1 = demand / n
    tail = -math.log1p(-b1 if b1 < 1.0 else 2.0**-53 - 1.0)
    x = max(tail / mean_ratio, tail + math.log(a[0]))
    if b1 > _NEWTON_MIN_B1 and len(a) > 1:
        rest = math.exp(-tail)
        for _ in range(_NEWTON_MAX_STEPS):
            terms = [aj * math.exp(-r * x) for aj, r in zip(a, ratios)]
            f = math.fsum(terms) - rest
            if f <= 0.0:
                break
            dx = f / math.fsum([r * t for r, t in zip(ratios, terms)])
            x += dx
            if dx <= _NEWTON_REL_STEP * x:
                break
    root, half = (math.sqrt(P * x) if x > 0.0 else 0.0), P // 2 + 1
    k = min(P, max(2, math.ceil(root) if root < half else half))
    lo, hi = 1, P  # invariant: beta_at(lo) < target <= beta_at(hi), once 1 is evaluated
    step = 1
    if beta_at(k) >= target_beta:
        hi = k
        while hi - step > lo and beta_at(hi - step) >= target_beta:
            hi -= step
            step *= 2
        lo = max(lo, hi - step)
    else:
        lo = k
        while lo + step < hi and beta_at(lo + step) < target_beta:
            lo += step
            step *= 2
        hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if beta_at(mid) >= target_beta:
            hi = mid
        else:
            lo = mid
    if hi == 2 and beta_at(1) >= target_beta:
        hi = 1
    if nearest and hi > 1 and abs(seen[hi - 1] - target_beta) <= abs(seen[hi] - target_beta):
        hi -= 1
    return _scaled_sizes(ratios, hi, hi, P)
