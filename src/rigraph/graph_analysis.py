"""Observable events on realized graphs: connectivity, isolation, and the
"no isolated vertex but still disconnected" indicator.

Adjacency is "object sets intersect", so the holders of one object form a
clique; linking each holder to one holder of the object keeps the
components with one edge per incidence, and the O(n^2) edge set is never
materialized.  One kernel, ``analyze_batch``, takes a ``GraphBatch`` and
finds the vertex of every incidence once.  Each incidence of trial t with
object o gets the key t*P + o, so trials never share an object: one
``connected_components`` call over the block-diagonal graph labels every
trial at once, and the holder count of each key gives isolation (a vertex
is isolated iff each of its objects has a single holder).  Where trials*P
would pass ``_KEY_LIMIT``, the batch's object ids are first numbered densely
(at most one id per incidence) and keyed by that numbering, so the keys stay
inside int64 at any trial count and pool size.  Each label's
trial is scattered into one array, whose bincount is the component count
of every trial, in whatever order the labels come.  The labelling never
reads the isolation counts, so the check that a connected trial has no
isolated vertex compares two independent results.  ``analyze`` runs the
kernel on a one-trial batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _sp_connected_components

from .errors import InvalidParamsError, InvariantViolation
from .sampler import GraphBatch

# keys t*P + o of a batch stay below this, inside int64
_KEY_LIMIT = 1 << 62
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


def _index_dtype(vertices: int, incidences: int) -> type:
    """The index type scipy picks for a CSR graph of this size: int32 while
    every index and offset fits, so no index array is converted."""
    return np.int32 if max(vertices, incidences) <= np.iinfo(np.int32).max else np.int64


def _object_nodes(keys: np.ndarray, key_range: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(object node per incidence, whether the object has another holder,
    node count).  The keys are the nodes while the key range is dense;
    sparser keys are compacted by a sort first.  The flag is a bool
    gathered from the holder count of each node."""
    if key_range <= _DENSE_KEYS_PER_INCIDENCE * len(keys):
        return keys, (np.bincount(keys, minlength=key_range) > 1)[keys], key_range
    uniq, nodes = np.unique(keys, return_inverse=True)
    return nodes, (np.bincount(nodes) > 1)[nodes], len(uniq)


def _component_counts(
    offsets: np.ndarray, holder: np.ndarray, nodes: np.ndarray, node_count: int, trials: int
) -> np.ndarray:
    """Components per sample.  Vertex ``holder[i]`` holds object ``nodes[i]``;
    every holder of an object links to one holder of it, its hub, which
    keeps each object's holders in one component with one edge per
    incidence.  A component lies in one trial, so each label's trial is
    scattered into ``owner`` and the labels are counted per trial."""
    vertices = len(offsets) - 1
    hub = np.empty(node_count, dtype=holder.dtype)
    hub[nodes] = holder  # whichever holder lands last; any one will do
    graph = csr_matrix(
        (np.ones(len(nodes)), hub[nodes], offsets.astype(holder.dtype, copy=False)), shape=(vertices, vertices)
    )
    count, labels = _sp_connected_components(graph, directed=False)
    owner = np.empty(count, dtype=np.intp)
    owner[labels.reshape(trials, -1)] = np.arange(trials)[:, None]
    return np.bincount(owner, minlength=trials)


def analyze_batch(batch: GraphBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial component, isolated and group-1 isolated counts.

    Needs n >= 2 vertices per trial, as every ``ModelParams`` has: a lone
    vertex is connected and isolated at once.  Raises ``InvariantViolation``
    if a sample is reported connected while having an isolated vertex.
    """
    trials, P, offsets, objects, n = batch.trials, batch.P, batch.offsets, batch.objects, batch.n
    if n < 2:
        raise InvalidParamsError(f"analysis needs n >= 2 vertices per trial, got n={n}")
    if trials * P > _KEY_LIMIT:
        # t*P + o could leave int64; a dense numbering has at most one id per incidence
        ids, objects = np.unique(objects, return_inverse=True)
        P = len(ids)
    index = _index_dtype(trials * n, len(objects))
    holder = np.repeat(np.arange(trials * n, dtype=index), np.diff(offsets))  # the vertex of each incidence
    # trial t's incidence with object o has the key t*P + o, formed in int64 so that t*P
    # cannot wrap in an int32 index type
    keys = np.multiply(holder // n, P, dtype=np.int64) + objects
    nodes, shared, node_count = _object_nodes(keys, trials * P)
    # a vertex is isolated iff none of its incidences is shared; the running
    # count of shared incidences does not move across its set (an empty set
    # included)
    before = np.zeros(len(shared) + 1, dtype=index)
    np.cumsum(shared, out=before[1:])
    isolated = before[offsets[1:]] == before[offsets[:-1]]
    iso = isolated.reshape(trials, n).sum(axis=1)
    group1 = (isolated & (batch.groups == 1)).reshape(trials, n).sum(axis=1)
    comp = _component_counts(offsets, holder, nodes, node_count, trials)
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
    )
