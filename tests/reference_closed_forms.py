"""Slow reference for ``exact_quantities``: each quantity through its own
public function or written out here, b looked up once per quantity, the
p-matrix as 1 - ``no_overlap_ratio`` per pair and the unconditional edge
probability as the compensated sum of a_i b_i.  E[J], E[I] and the
cross-moment ratio are written out as generator sums over a per-group term
function, so they do not share the code of ``model_core`` that computes
them.  The tests require the one-pass ``exact_quantities`` to return the
same floats bit for bit."""

from __future__ import annotations

import math
import sys

from rigraph import ModelParams, b_vector, beta, no_overlap_ratio
from rigraph.model_core import ExactQuantities


def _isolation_term(n: int, b: float) -> float:
    # (1-b)^(n-1) via exp((n-1) log1p(-b)); exact 0 at b >= 1
    if b >= 1.0:
        return 0.0
    return math.exp((n - 1) * math.log1p(-b))


def reference_expected_isolated(params: ModelParams) -> tuple[float, float]:
    """E[J] = n sum_i a_i (1-b_i)^(n-1) and E[I] = n a_1 (1-b_1)^(n-1)."""
    n = params.n
    terms = [ai * _isolation_term(n, bi) for ai, bi in zip(params.a, b_vector(params))]
    return n * math.fsum(terms), n * terms[0]


def reference_cross_moment_ratio(params: ModelParams) -> float | None:
    """(D / S^2)^(n-2) in log space, or None where ``cross_moment_ratio``
    refuses (n < 3, 2 K_1 > P or S = 0)."""
    n, P, a, K = params.n, params.P, params.a, params.K
    K1 = K[0]
    if n < 3 or 2 * K1 > P:
        return None
    num = math.fsum(al * no_overlap_ratio(P, 2 * K1, Kl) for al, Kl in zip(a, K))
    den = math.fsum(al * no_overlap_ratio(P, K1, Kl) for al, Kl in zip(a, K))
    if den == 0.0:
        return None
    if num == 0.0:
        return 0.0
    log_ratio = (n - 2) * (math.log(num) - 2.0 * math.log(den))
    if log_ratio > math.log(sys.float_info.max):
        return math.inf
    return math.exp(log_ratio)


def reference_exact_quantities(params: ModelParams) -> ExactQuantities:
    P, K = params.P, params.K
    p = tuple(tuple(1.0 - no_overlap_ratio(P, Ki, Kj) for Kj in K) for Ki in K)
    e_j, e_i = reference_expected_isolated(params)
    return ExactQuantities(
        p=p,
        b=b_vector(params),
        edge_prob=math.fsum(ai * bi for ai, bi in zip(params.a, b_vector(params))),
        beta=beta(params),
        expected_isolated=e_j,
        expected_group1_isolated=e_i,
        cross_moment_ratio=reference_cross_moment_ratio(params),
    )
