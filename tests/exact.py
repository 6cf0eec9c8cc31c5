"""Exact rational mirror of the closed forms in ``model_core``.

Same formulas, arbitrary-precision arithmetic (``fractions.Fraction`` over
``math.comb``), restricted to pools P <= 200.  This path exists purely as
machine-checkable ground truth for the log-space float path; nothing in the
runtime pipeline calls it.  Group probabilities are taken at their exact
float values and normalized exactly, so results are exact for the parameters
actually stored in a ``ModelParams``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from rigraph import InvalidParamsError, ModelParams, RegimeViolationError

MAX_POOL = 200


def _check_pool(P: int) -> None:
    if P > MAX_POOL:
        raise InvalidParamsError(
            f"exact rational path is limited to P <= {MAX_POOL}, got P={P}"
        )


def no_overlap_ratio(P: int, Ki: int, Kj: int) -> Fraction:
    """C(P-Ki, Kj) / C(P, Kj) as an exact rational."""
    _check_pool(P)
    if Ki < 0 or Kj < 0 or Ki > P or Kj > P:
        raise InvalidParamsError(f"need 0 <= Ki, Kj <= P, got Ki={Ki}, Kj={Kj}, P={P}")
    if Ki == 0 or Kj == 0:
        return Fraction(1)
    if P - Ki < Kj:
        return Fraction(0)
    return Fraction(math.comb(P - Ki, Kj), math.comb(P, Kj))


def _a_fractions(params: ModelParams) -> tuple[Fraction, ...]:
    raw = [Fraction(x) for x in params.a]
    total = sum(raw)
    return tuple(x / total for x in raw)


def pairwise_edge_prob(params: ModelParams, i: int, j: int) -> Fraction:
    _check_pool(params.P)
    return 1 - no_overlap_ratio(params.P, params.K[i - 1], params.K[j - 1])


def b_vector(params: ModelParams) -> tuple[Fraction, ...]:
    _check_pool(params.P)
    a = _a_fractions(params)
    P, K = params.P, params.K
    return tuple(
        sum((aj * (1 - no_overlap_ratio(P, Ki, Kj)) for aj, Kj in zip(a, K)), Fraction(0))
        for Ki in K
    )


def edge_prob(params: ModelParams) -> Fraction:
    a = _a_fractions(params)
    return sum((ai * bi for ai, bi in zip(a, b_vector(params))), Fraction(0))


def expected_isolated(params: ModelParams) -> tuple[Fraction, Fraction]:
    """Exact E[#isolated] and E[#group-1 isolated]: n * sum a_i (1-b_i)^(n-1)."""
    a = _a_fractions(params)
    terms = [ai * (1 - bi) ** (params.n - 1) for ai, bi in zip(a, b_vector(params))]
    return params.n * sum(terms, Fraction(0)), params.n * terms[0]


def cross_moment_base(params: ModelParams) -> Fraction:
    """Exact base D / S^2 of the second-moment diagnostic (before the n-2 power)."""
    _check_pool(params.P)
    K1, P = params.K[0], params.P
    if 2 * K1 > P:
        raise RegimeViolationError(
            f"double-avoidance ratio needs 2*K_1 <= P, got K_1={K1}, P={P}"
        )
    a = _a_fractions(params)
    num = sum((al * no_overlap_ratio(P, 2 * K1, Kl) for al, Kl in zip(a, params.K)), Fraction(0))
    den = sum((al * no_overlap_ratio(P, K1, Kl) for al, Kl in zip(a, params.K)), Fraction(0))
    if den == 0:
        raise RegimeViolationError("single-vertex avoidance probability is zero")
    return num / (den * den)
