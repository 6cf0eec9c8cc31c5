"""Seeded realization of the random intersection graph.

Reproducibility contract
------------------------
Every trial is generated from a PCG64 stream whose 256-bit state is derived
from ``(master_seed, trial_index)`` alone, by splitmix64 expansion:

    base  = (master_seed + (trial_index + 1) * GAMMA) mod 2^64
    seed  = mix64(base)                       # the trial seed
    w_k   = mix64((seed + k * GAMMA) mod 2^64),  k = 1..4
    state = w1 << 64 | w2,   inc = (w3 << 64 | w4) | 1

where ``mix64`` is the standard splitmix64 finalizer (an avalanche function:
every output bit depends on every input bit).  One vector path derives the
seeds and the words: ``_trial_seeds`` computes the seeds of a range of trials
(``SeedSpec.trial_seed`` is a range of one) and ``trial_state_words`` expands
them.  Trial t is therefore independent of whether trials 0..t-1 were ever
generated, which is what makes parallel trial execution deterministic.

A trial consumes randomness in a fixed order: one block of n uniforms for
group assignment (inverse CDF over the cumulative a), then one block of
sum_x K_{g_x} uniforms for the object sets, vertex by vertex.  Each vertex's
K-subset comes from Floyd's selection-tracking algorithm driven by its block:
draw s (0-based) maps u to t = min(floor(u * (j+1)), j) with j = P - K + s,
inserting j on collision.  Memory per set is O(K); the pool is never
materialized.

``sample_batch`` realizes many trials at once: each trial's stream fills one
row of n*(1+K_m) floats (a double takes exactly one 64-bit output, so the
row starts with the two blocks above; the rest is unused), and Floyd runs
once per ring size over the vertices of every trial in the batch.
``sample_graph`` is a batch of one.  Bit-compatibility is promised only
within this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParamsError, InvariantViolation
from .model_core import ModelParams

_M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array: full avalanche, and the
    wraparound multiply is the finalizer's mod-2^64 arithmetic."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _trial_seeds(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Trial seeds of trials [start, stop) as a uint64 array."""
    first = (master_seed + (start + 1) * GAMMA) & _M64
    return _mix64(np.uint64(first) + np.arange(stop - start, dtype=np.uint64) * np.uint64(GAMMA))


def trial_state_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 state words for trials [start, stop) as a (stop-start, 4) array.

    Row t-start holds the four splitmix64 expansion words w1..w4 of trial t.
    """
    seeds = _trial_seeds(master_seed, start, stop)
    return np.stack([_mix64(seeds + np.uint64((k * GAMMA) & _M64)) for k in (1, 2, 3, 4)], axis=1)


def _state_dict(w1: int, w2: int, w3: int, w4: int) -> dict:
    """The ``PCG64.state`` value for one row of ``trial_state_words``."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": (w1 << 64) | w2, "inc": ((w3 << 64) | w4) | 1},
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one trial: (64-bit master seed, trial index >= 0)."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= _M64:
            raise InvalidParamsError(
                f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}"
            )
        if self.trial_index < 0:
            raise InvalidParamsError(f"trial_index must be >= 0, got {self.trial_index!r}")

    def trial_seed(self) -> int:
        return int(_trial_seeds(self.master_seed, self.trial_index, self.trial_index + 1)[0])


@dataclass(frozen=True)
class GraphSample:
    """One realized graph: group labels and per-vertex object sets.

    ``objects``/``offsets`` store the sets in one flat array: vertex x holds
    the sorted, duplicate-free ids ``objects[offsets[x]:offsets[x+1]]``.
    Edges are implicit (two vertices are adjacent iff their sets intersect)
    and never materialized here.
    """

    groups: np.ndarray  # shape (n,), 1-based group index per vertex
    objects: np.ndarray  # flat int64 object ids, each in 0..P-1
    offsets: np.ndarray  # shape (n+1,), block boundaries into objects
    params_hash: str

    @property
    def n(self) -> int:
        return len(self.groups)

    def object_set(self, x: int) -> np.ndarray:
        return self.objects[self.offsets[x]:self.offsets[x + 1]]

    def validate(self, params: ModelParams) -> None:
        """Check the structural invariants against the generating params."""
        if self.groups.min(initial=1) < 1 or self.groups.max(initial=1) > params.m:
            raise InvariantViolation("group labels out of range")
        sizes = np.diff(self.offsets)
        expect = np.asarray(params.K, dtype=np.int64)[self.groups - 1]
        if not np.array_equal(sizes, expect):
            raise InvariantViolation("object-set sizes do not match ring sizes")
        if len(self.objects) and (self.objects.min() < 0 or self.objects.max() >= params.P):
            raise InvariantViolation("object id outside pool")
        for x in range(self.n):
            s = self.object_set(x)
            if len(s) > 1 and not (np.diff(s) > 0).all():
                raise InvariantViolation(f"object set of vertex {x} not strictly increasing")
        if self.params_hash != params.fingerprint():
            raise InvariantViolation("params fingerprint mismatch")


def _floyd_batch(P: int, K: int, U: np.ndarray) -> np.ndarray:
    """Row-wise Floyd K-subsets of {0..P-1} from an (count, K) block of uniforms.

    Column s is draw s: u maps to t = min(floor(u * (j+1)), j) with
    j = P - K + s, and j is taken instead when t already is.  Rows come back
    sorted.  The collision test costs O(K^2) per row.
    """
    j = np.arange(P - K, P, dtype=np.int64)
    sel = (U * (j + 1)).astype(np.int64).T.copy()  # draw s is row s
    np.minimum(sel, j[:, None], out=sel)  # guard against u*(j+1) rounding up to j+1
    for s in range(1, K):
        sel[s, (sel[:s] == sel[s]).any(axis=0)] = j[s]
    out = sel.T.copy()
    out.sort(axis=1)
    return out


@lru_cache(maxsize=512)
def _sampling_consts(params: ModelParams) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Per-params constants hoisted out of the per-batch path: the group
    CDF, the ring size of each group and the distinct ring sizes."""
    cum = np.cumsum(np.asarray(params.a, dtype=np.float64))
    return cum, np.asarray(params.K, dtype=np.int64), tuple(sorted(set(params.K)))


def sample_batch(
    params: ModelParams, words: np.ndarray, scratch: np.random.PCG64 | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Realize the trials whose stream state words are the rows of ``words``.

    Returns ``(groups, objects, offsets)`` for the trials stored back to
    back: vertex x of trial r (0-based in the batch) is vertex r*n + x, and
    its sorted object ids are ``objects[offsets[r*n+x]:offsets[r*n+x+1]]``.
    Every trial is the sample that ``sample_graph`` draws from its row.
    """
    n, P, m = params.n, params.P, params.m
    cum, Karr, ring_sizes = _sampling_consts(params)
    trials = len(words)
    width = n * (1 + params.K[-1])
    U = np.empty((trials, width))
    bg = scratch if scratch is not None else np.random.PCG64(0)
    gen = np.random.Generator(bg)
    for row, w in zip(U, words.tolist()):
        bg.state = _state_dict(*w)
        gen.random(out=row)

    groups = np.searchsorted(cum, U[:, :n], side="right").astype(np.int64).ravel()
    groups += 1
    np.minimum(groups, m, out=groups)
    sizes = Karr[groups - 1]
    offsets = np.zeros(trials * n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    # a vertex's floats sit in its trial's row, after the n group floats, at
    # the vertex's offset within the trial
    local = offsets[:-1].reshape(trials, n)
    row_start = np.arange(n, trials * width + n, width, dtype=np.int64) - local[:, 0]
    starts = (local + row_start[:, None]).ravel()
    floats = U.ravel()
    objects = np.empty(int(offsets[-1]), dtype=np.int64)
    for Kg in ring_sizes:
        idx = np.flatnonzero(sizes == Kg)
        if len(idx) == 0:
            continue
        span = np.arange(Kg)
        objects[offsets[idx][:, None] + span] = _floyd_batch(P, Kg, floats[starts[idx][:, None] + span])
    return groups, objects, offsets


def sample_graph(params: ModelParams, seed: SeedSpec, *, scratch: np.random.PCG64 | None = None) -> GraphSample:
    """Realize one graph; deterministic in (params, seed).

    Vertices are sampled independently: a group via inverse CDF, then a
    uniform K-subset of the pool.  This is ``sample_batch`` on one trial.
    """
    words = trial_state_words(seed.master_seed, seed.trial_index, seed.trial_index + 1)
    groups, objects, offsets = sample_batch(params, words, scratch)
    return GraphSample(
        groups=groups,
        objects=objects,
        offsets=offsets,
        params_hash=params.fingerprint(),
    )
