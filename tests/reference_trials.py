"""Per-trial reference paths for the batched sampler and analysis.

These are the scalar splitmix64 finalizer, the per-trial generator, the
scalar group draw and Floyd sampler, and the dict union-find that once ran
small samples at run time.  The batched
kernels must reproduce them exactly: ``reference_sample`` draws the same
floats in the same order, and the union-find counts the same components and
isolated vertices.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from rigraph import ModelParams, SeedSpec
from rigraph.sampler import GraphBatch, _state_dict, trial_state_words

_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer on one Python int; 64-bit in, 64-bit out."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def generator_for(spec: SeedSpec) -> np.random.Generator:
    """PCG64 generator positioned at the start of the trial's stream."""
    words = trial_state_words(spec.master_seed, spec.trial_index, spec.trial_index + 1)
    bg = np.random.PCG64(0)
    bg.state = _state_dict(*words.tolist()[0])
    return np.random.Generator(bg)


def assign_group(a: tuple[float, ...], u: float) -> int:
    """Inverse-CDF group draw: least 1-based i with u < a_1 + ... + a_i.

    The last group absorbs any float dust at the top of the CDF.
    """
    cum = np.cumsum(np.asarray(a, dtype=np.float64)).tolist()
    return min(bisect_right(cum, u) + 1, len(cum))


def floyd_scalar(P: int, K: int, u: list[float], pos: int) -> list[int]:
    """One Floyd K-subset from u[pos:pos+K]; returns a sorted list."""
    sel: set[int] = set()
    for s in range(K):
        j = P - K + s
        t = int(u[pos + s] * (j + 1))
        if t > j:  # guard against u*(j+1) rounding up to j+1
            t = j
        sel.add(j if t in sel else t)
    return sorted(sel)


def sample_scalar(params: ModelParams, rng: np.random.Generator) -> GraphBatch:
    """One graph from ``rng``: n group floats, then each vertex's ring."""
    n, P, K = params.n, params.P, params.K
    groups = [assign_group(params.a, u) for u in rng.random(n).tolist()]
    sizes = [K[g - 1] for g in groups]
    uo = rng.random(sum(sizes)).tolist()
    flat: list[int] = []
    offsets = [0]
    pos = 0
    for Kg in sizes:
        flat.extend(floyd_scalar(P, Kg, uo, pos))
        pos += Kg
        offsets.append(pos)
    return GraphBatch(
        groups=np.asarray(groups, dtype=np.int64),
        objects=np.asarray(flat, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
        trials=1,
        P=P,
    )


def reference_sample(params: ModelParams, seed: SeedSpec) -> GraphBatch:
    return sample_scalar(params, generator_for(seed))


def build_inverted_index(sample: GraphBatch) -> dict[int, list[int]]:
    """Map each object id to the ordered list of vertices holding it."""
    index: dict[int, list[int]] = {}
    objects = sample.objects.tolist()
    offsets = sample.offsets.tolist()
    for x in range(sample.n):
        for p in range(offsets[x], offsets[x + 1]):
            index.setdefault(objects[p], []).append(x)
    return index


def components_small(n: int, index: dict[int, list[int]]) -> int:
    """Union-find (path halving, union by size) over each object's holders."""
    parent = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comp = n
    for holders in index.values():
        r0 = find(holders[0])
        for w in holders[1:]:
            r1 = find(w)
            if r1 != r0:
                if size[r0] < size[r1]:
                    r0, r1 = r1, r0
                parent[r1] = r0
                size[r0] += size[r1]
                comp -= 1
    return comp


def isolation_from_index(sample: GraphBatch, index: dict[int, list[int]]) -> tuple[int, int]:
    """(#isolated, #isolated in group 1): vertices whose objects all have a
    single holder."""
    objects = sample.objects.tolist()
    offsets = sample.offsets.tolist()
    groups = sample.groups.tolist()
    isolated = 0
    group1 = 0
    for x in range(sample.n):
        if all(len(index[objects[p]]) == 1 for p in range(offsets[x], offsets[x + 1])):
            isolated += 1
            if groups[x] == 1:
                group1 += 1
    return isolated, group1


def reference_stats(sample: GraphBatch) -> tuple[int, int, int]:
    """(component count, #isolated, #isolated in group 1)."""
    index = build_inverted_index(sample)
    return (components_small(sample.n, index), *isolation_from_index(sample, index))


def reference_counts(params: ModelParams, master_seed: int, start: int, stop: int) -> tuple[int, ...]:
    """The integer sums ``run_trials`` aggregates over trials [start, stop),
    one reference trial at a time: (connected, no isolated, no isolated but
    disconnected, sum and sum of squares of the isolated count, the same
    for group 1)."""
    totals = [0] * 7
    for t in range(start, stop):
        comp, iso, g1 = reference_stats(reference_sample(params, SeedSpec(master_seed, t)))
        row = (comp == 1, iso == 0, iso == 0 and comp != 1, iso, iso * iso, g1, g1 * g1)
        totals = [acc + int(x) for acc, x in zip(totals, row)]
    return tuple(totals)
