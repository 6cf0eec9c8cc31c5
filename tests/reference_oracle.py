"""The group-labelled event enumeration that ``rigraph.oracle`` replaced,
kept as the reference that ``enumerate_event_probs`` must equal exactly.

It enumerates every joint (group, object set) assignment, multiplies the n
per-vertex weights of each, and merges the assignments that share a tuple
of sets in one dict before analyzing the distinct tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from rigraph.errors import EnumerationBudgetError
from rigraph.graph_analysis import analyze_batch
from rigraph.model_core import ModelParams
from rigraph.oracle import _ANALYSIS_BATCH, BUDGET, EventProbs
from rigraph.sampler import GraphBatch


def reference_event_probs(params: ModelParams) -> EventProbs:
    """Exact probabilities by full enumeration of the sample space.

    Each vertex independently picks (group g, set S) with probability
    a_g / C(P, K_g); every joint assignment is weighted accordingly and the
    events evaluated with the same analysis kernel the simulator uses.
    """
    per_vertex = sum(math.comb(params.P, Kg) for Kg in params.K)
    if per_vertex ** params.n > BUDGET:
        raise EnumerationBudgetError(
            f"{per_vertex}^{params.n} joint assignments exceed the {BUDGET} budget"
        )
    a_frac = [Fraction(x) for x in params.a]
    a_total = sum(a_frac)
    choices: list[tuple[int, tuple[int, ...], Fraction]] = []
    for g, (ag, Kg) in enumerate(zip(a_frac, params.K), start=1):
        w = (ag / a_total) / math.comb(params.P, Kg)
        for subset in combinations(range(params.P), Kg):
            choices.append((g, subset, w))

    # connectivity/isolation depend on the sets alone, so assignments that
    # differ only in groups share one analysis: sum their weights per tuple
    # of sets, then analyze the distinct tuples in batches
    weights: dict[tuple[tuple[int, ...], ...], Fraction] = {}
    for combo in product(choices, repeat=params.n):
        weight = Fraction(1)
        for _, _, w in combo:
            weight *= w
        key = tuple(subset for _, subset, _ in combo)
        weights[key] = weights.get(key, Fraction(0)) + weight

    p_conn = Fraction(0)
    p_noiso = Fraction(0)
    e_iso = Fraction(0)
    keys = list(weights)
    for start in range(0, len(keys), _ANALYSIS_BATCH):
        batch = keys[start:start + _ANALYSIS_BATCH]
        sets = [subset for key in batch for subset in key]
        comp, iso, _ = analyze_batch(GraphBatch.from_sets([1] * len(sets), sets, params.P, len(batch)))
        for key, components, isolated in zip(batch, comp.tolist(), iso.tolist()):
            weight = weights[key]
            if components == 1:
                p_conn += weight
            if isolated == 0:
                p_noiso += weight
            else:
                e_iso += weight * isolated
    return EventProbs(p_connected=p_conn, p_no_isolated=p_noiso, expected_isolated=e_iso)
