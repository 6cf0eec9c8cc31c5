"""Observable events on realized graphs: connectivity, isolation, and the
"no isolated vertex but still disconnected" indicator.

Adjacency is "object sets intersect", so the holders of one object form a
clique; linking each holder to the object's first holder keeps the
components with one edge per incidence, and the O(n^2) edge set is never
materialized.  One kernel, ``analyze_batch``, takes a ``GraphBatch``.  Each
incidence of trial t with object o gets the key t*P + o, so trials never
share an object: one ``connected_components`` call over the block-diagonal
graph labels every trial at once, and the holder count of each key gives
isolation (a vertex is isolated iff each of its objects has a single
holder).  ``analyze`` runs the kernel on a one-trial batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _sp_connected_components

from .errors import InvalidParamsError, InvariantViolation
from .sampler import GraphBatch

# up to this many keys per incidence, holder counts are indexed by key
# directly; sparser key ranges (large pools) are compacted by a sort first
_DENSE_KEYS_PER_INCIDENCE = 4


@dataclass(frozen=True)
class TrialStats:
    """Per-sample observables.

    ``no_isolated_but_disconnected`` is the event that can separate
    "no isolated vertex" from "connected"; connectivity implies the absence
    of isolated vertices (for n >= 2), never the other way around.
    """

    connected: bool
    isolated_count: int
    group1_isolated_count: int
    no_isolated_but_disconnected: bool
    component_count: int


def _object_nodes(keys: np.ndarray, key_range: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(object node per incidence, holder count per incidence, node count)."""
    if key_range <= _DENSE_KEYS_PER_INCIDENCE * len(keys):
        counts = np.bincount(keys, minlength=key_range)
        return keys, counts[keys], key_range
    uniq, nodes = np.unique(keys, return_inverse=True)
    return nodes, np.bincount(nodes)[nodes], len(uniq)


def _component_counts(offsets: np.ndarray, nodes: np.ndarray, node_count: int, trials: int) -> np.ndarray:
    """Components per sample.  Incidence i is object ``nodes[i]``; every
    holder of an object links to its first holder, which keeps each
    object's holders in one component with one edge per incidence."""
    vertices = len(offsets) - 1
    holder = np.repeat(np.arange(vertices), np.diff(offsets))
    first = np.full(node_count, vertices)
    np.minimum.at(first, nodes, holder)
    graph = csr_matrix((np.ones(len(nodes)), first[nodes], offsets), shape=(vertices, vertices))
    _, labels = _sp_connected_components(graph, directed=False)
    per_trial = np.sort(labels.reshape(trials, -1), axis=1)
    return 1 + np.count_nonzero(per_trial[:, 1:] != per_trial[:, :-1], axis=1)


def analyze_batch(batch: GraphBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial component, isolated and group-1 isolated counts.

    Needs n >= 2 vertices per trial, as every ``ModelParams`` has: a lone
    vertex is connected and isolated at once.  Raises ``InvariantViolation``
    if a sample is reported connected while having an isolated vertex.
    """
    offsets, trials, P, n = batch.offsets, batch.trials, batch.P, batch.n
    if n < 2:
        raise InvalidParamsError(f"analysis needs n >= 2 vertices per trial, got n={n}")
    tags = np.repeat(np.arange(0, trials * P, P, dtype=np.int64), np.diff(offsets[::n]))
    nodes, held, node_count = _object_nodes(tags + batch.objects, trials * P)
    shared = np.concatenate(([0], np.cumsum(held > 1)))
    isolated = shared[offsets[1:]] == shared[offsets[:-1]]
    iso = isolated.reshape(trials, n).sum(axis=1)
    group1 = (isolated & (batch.groups == 1)).reshape(trials, n).sum(axis=1)
    comp = _component_counts(offsets, nodes, node_count, trials)
    lying = np.flatnonzero((comp == 1) & (iso > 0))
    if len(lying):
        t = lying[0]
        raise InvariantViolation(
            f"connected sample {t} of the batch reported {iso[t]} isolated vertices"
        )
    return comp, iso, group1


def analyze(batch: GraphBatch) -> TrialStats:
    """All observables of a one-trial batch, with the
    connectivity=>no-isolation implication asserted before returning."""
    if batch.trials != 1:
        raise InvalidParamsError(f"analyze takes a one-trial batch, got {batch.trials} trials")
    comp, isolated, group1 = (int(c[0]) for c in analyze_batch(batch))
    connected = comp == 1
    return TrialStats(
        connected=connected,
        isolated_count=isolated,
        group1_isolated_count=group1,
        no_isolated_but_disconnected=(isolated == 0 and not connected),
        component_count=comp,
    )
