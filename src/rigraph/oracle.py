"""Independent brute-force ground truth for tiny instances.

Two enumerations, both in exact rational arithmetic end to end (never
float-vs-float comparisons):

* ``enumerate_pair_prob``: intersection probability of two independent
  uniform subsets, counted over every ordered subset pair.
* ``enumerate_event_probs``: connectivity / isolation probabilities and the
  expected isolated count, by summing the exact weight of every joint
  (group, object set) assignment and evaluating the events with
  ``graph_analysis``.

Enumeration size is capped at 1e7 evaluations with a hard error so a typo'd
instance cannot melt CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .errors import EnumerationBudgetError, InvalidParamsError
from .graph_analysis import analyze_batch
from .model_core import ModelParams
from .sampler import GraphBatch

BUDGET = 10_000_000
# distinct tuples of sets analyzed per kernel call
_ANALYSIS_BATCH = 4096


def enumerate_pair_prob(P: int, Ki: int, Kj: int) -> Fraction:
    """Exact P[two independent uniform subsets of sizes Ki, Kj intersect],
    by counting intersecting ordered pairs over all C(P,Ki)*C(P,Kj) pairs."""
    if Ki < 0 or Kj < 0 or Ki > P or Kj > P:
        raise InvalidParamsError(f"need 0 <= Ki, Kj <= P, got Ki={Ki}, Kj={Kj}, P={P}")
    total = math.comb(P, Ki) * math.comb(P, Kj)
    if total > BUDGET:
        raise EnumerationBudgetError(
            f"{total} subset pairs exceed the {BUDGET} enumeration budget"
        )
    masks_i = [_mask(c) for c in combinations(range(P), Ki)]
    masks_j = [_mask(c) for c in combinations(range(P), Kj)]
    hits = sum(1 for mi in masks_i for mj in masks_j if mi & mj)
    return Fraction(hits, total)


def _mask(objs: tuple[int, ...]) -> int:
    m = 0
    for o in objs:
        m |= 1 << o
    return m


@dataclass(frozen=True)
class EventProbs:
    """Exact event probabilities for one tiny instance."""

    p_connected: Fraction
    p_no_isolated: Fraction
    expected_isolated: Fraction


def enumerate_event_probs(params: ModelParams) -> EventProbs:
    """Exact probabilities by full enumeration of the sample space.

    Each vertex independently picks (group g, set S) with probability
    a_g / C(P, K_g); every joint assignment is weighted accordingly and the
    events evaluated with the same analysis kernel the simulator uses.
    """
    if params.n < 2:
        raise InvalidParamsError(f"event enumeration needs n >= 2, got n={params.n}")
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
