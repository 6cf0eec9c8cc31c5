"""Independent brute-force ground truth for tiny instances.

Two enumerations, both in exact rational arithmetic end to end (never
float-vs-float comparisons):

* ``enumerate_pair_prob``: intersection probability of two independent
  uniform subsets, counted over every ordered subset pair.
* ``enumerate_event_probs``: connectivity / isolation probabilities and the
  expected isolated count, summed over every n-tuple of object sets drawn
  from the per-vertex set law, in chunks so that memory stays flat.

Enumeration size, the ids its subsets list, and the ids one chunk of
n-tuples lists are capped at 1e7 with a hard error so a typo'd instance
cannot melt CI; each is counted with an early stop or from counts already
bounded, so a huge instance is refused at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, product

from .errors import EnumerationBudgetError
from .graph_analysis import analyze_batch
from .model_core import ModelParams, _ring_pair
from .sampler import GraphBatch

BUDGET = 10_000_000
# tuples of sets analyzed per kernel call
_ANALYSIS_BATCH = 4096


def enumerate_pair_prob(P: int, Ki: int, Kj: int) -> Fraction:
    """Exact P[two independent uniform subsets of sizes Ki, Kj intersect],
    by counting intersecting ordered pairs over all C(P,Ki)*C(P,Kj) pairs;
    P, Ki and Kj must be integers with 0 <= Ki, Kj <= P."""
    P, Ki, Kj = _ring_pair(P, Ki, Kj)
    _check_listed_ids(P, (Ki, Kj))
    total = math.comb(P, Ki) * math.comb(P, Kj)
    if total > BUDGET:
        raise EnumerationBudgetError(
            f"{total} subset pairs exceed the {BUDGET} enumeration budget"
        )
    masks_i = [_mask(c) for c in combinations(range(P), Ki)]
    masks_j = [_mask(c) for c in combinations(range(P), Kj)]
    hits = sum(1 for mi in masks_i for mj in masks_j if mi & mj)
    return Fraction(hits, total)


def _check_listed_ids(P: int, sizes) -> None:
    """Refuse, before any subset is built, an enumeration whose subsets of
    ``sizes`` in a P-element pool list more than BUDGET ids in all.

    C(P, i) rises with i up to P/2, so each C(P, k) is built upward from
    C(P, 0) and abandoned once it passes the budget, within a few dozen
    steps at any P; no count past the budget is built or printed.  A size of
    P lists P ids in its one subset, so a huge pool is refused there too.
    """
    ids = 0
    for k in sizes:
        count = 1
        for i in range(min(k, P - k)):
            count = count * (P - i) // (i + 1)
            if count > BUDGET:
                break
        ids += count * k
        if ids > BUDGET:
            raise EnumerationBudgetError(
                f"the subsets of sizes {', '.join(map(str, sizes))} of a pool of {P} "
                f"list more than {BUDGET} ids, past the enumeration budget"
            )


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

    A vertex's group fixes only its ring size, and edges depend on the sets
    alone, so each vertex independently draws a set S of size k with
    probability sum_{g : K_g = k} a_g / C(P, k).  Every n-tuple of sets is
    weighted by the product of its vertices' probabilities and its events
    evaluated with the same analysis kernel the simulator uses.
    """
    _check_listed_ids(params.P, params.K)
    per_vertex = sum(math.comb(params.P, Kg) for Kg in params.K)
    # multiplied with an early stop; a factor of 2 or more passes the budget
    # within BUDGET.bit_length() steps, so more never change the answer
    assignments = 1
    for _ in range(min(params.n, BUDGET.bit_length())):
        assignments *= per_vertex
        if assignments > BUDGET:
            raise EnumerationBudgetError(
                f"{per_vertex}^{params.n} joint assignments exceed the {BUDGET} budget"
            )
    # the count above is exact here; at K = P it is 1 at any n, so the n sets
    # that one chunk lists are counted too
    if min(assignments, _ANALYSIS_BATCH) * params.n * params.K[-1] > BUDGET:
        raise EnumerationBudgetError(
            f"one analysis chunk of {params.n}-vertex assignments lists more than {BUDGET} ids, "
            f"past the enumeration budget"
        )
    a_total = sum(map(Fraction, params.a))
    set_prob: dict[int, Fraction] = {}  # per ring size, each set's probability
    for ag, Kg in zip(params.a, params.K):
        set_prob[Kg] = set_prob.get(Kg, 0) + Fraction(ag) / (a_total * math.comb(params.P, Kg))
    # integer weights over one common denominator keep Fractions out of the loop
    scale = math.lcm(*(w.denominator for w in set_prob.values()))
    law = [(subset, int(w * scale))
           for Kg, w in set_prob.items() for subset in combinations(range(params.P), Kg)]

    conn = noiso = iso_sum = 0
    tuples = product(law, repeat=params.n)
    while chunk := list(islice(tuples, _ANALYSIS_BATCH)):
        sets = [subset for combo in chunk for subset, _ in combo]
        comp, iso, _ = analyze_batch(GraphBatch.from_sets([1] * len(sets), sets, params.P, len(chunk)))
        for combo, components, isolated in zip(chunk, comp.tolist(), iso.tolist()):
            weight = math.prod(w for _, w in combo)
            if components == 1:
                conn += weight
            if isolated == 0:
                noiso += weight
            else:
                iso_sum += weight * isolated
    total = scale ** params.n
    return EventProbs(Fraction(conn, total), Fraction(noiso, total), Fraction(iso_sum, total))
