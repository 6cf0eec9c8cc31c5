"""Slow reference for ``exact_quantities``: each quantity through its own
public function, the p-matrix through ``pairwise_edge_prob`` and b looked up
once per quantity.  The tests require the one-pass ``exact_quantities`` to
return the same floats bit for bit."""

from __future__ import annotations

from rigraph import (
    ExactQuantities,
    InvalidParamsError,
    ModelParams,
    RegimeViolationError,
    b_vector,
    beta,
    cross_moment_ratio,
    edge_prob,
    expected_isolated,
    pairwise_edge_prob,
)


def reference_exact_quantities(params: ModelParams) -> ExactQuantities:
    if params.n < 2:
        raise InvalidParamsError(f"exact quantities need n >= 2, got n={params.n}")
    m = params.m
    p = tuple(
        tuple(pairwise_edge_prob(params, i, j) for j in range(1, m + 1))
        for i in range(1, m + 1)
    )
    b = b_vector(params)
    e_j, e_i = expected_isolated(params)
    cmr: float | None
    try:
        cmr = cross_moment_ratio(params)
    except (RegimeViolationError, InvalidParamsError):
        cmr = None
    return ExactQuantities(
        p=p,
        b=b,
        edge_prob=edge_prob(params),
        beta=beta(params),
        expected_isolated=e_j,
        expected_group1_isolated=e_i,
        cross_moment_ratio=cmr,
    )
