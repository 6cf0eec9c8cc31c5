"""Slow reference for ``exact_quantities``: each quantity through its own
public function or written out here, b looked up once per quantity, the
p-matrix as 1 - ``no_overlap_ratio`` per pair and the unconditional edge
probability as the compensated sum of a_i b_i.  The tests require the
one-pass ``exact_quantities`` to return the same floats bit for bit."""

from __future__ import annotations

import math

from rigraph import (
    InvalidParamsError,
    ModelParams,
    RegimeViolationError,
    b_vector,
    beta,
    cross_moment_ratio,
    expected_isolated,
    no_overlap_ratio,
)
from rigraph.model_core import ExactQuantities


def reference_exact_quantities(params: ModelParams) -> ExactQuantities:
    P, K = params.P, params.K
    p = tuple(tuple(1.0 - no_overlap_ratio(P, Ki, Kj) for Kj in K) for Ki in K)
    e_j, e_i = expected_isolated(params)
    cmr: float | None
    try:
        cmr = cross_moment_ratio(params)
    except (RegimeViolationError, InvalidParamsError):
        cmr = None
    return ExactQuantities(
        p=p,
        b=b_vector(params),
        edge_prob=math.fsum(ai * bi for ai, bi in zip(params.a, b_vector(params))),
        beta=beta(params),
        expected_isolated=e_j,
        expected_group1_isolated=e_i,
        cross_moment_ratio=cmr,
    )
