"""Shared fixtures: an independent adjacency-matrix/BFS analysis oracle,
a hypothesis strategy for small valid parameter tuples, and process-pool
stand-ins for the trial runner."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import strategies as st

import rigraph.montecarlo as montecarlo
from rigraph import ModelParams
from rigraph.sampler import GraphSample

_TEST_PID = os.getpid()


def make_sample(groups: list[int], object_sets: list[list[int]], params_hash: str = "test") -> GraphSample:
    """Build a GraphSample directly from per-vertex sets (tests only)."""
    flat: list[int] = []
    offsets = [0]
    for s in object_sets:
        flat.extend(sorted(s))
        offsets.append(len(flat))
    return GraphSample(
        groups=np.asarray(groups, dtype=np.int64),
        objects=np.asarray(flat, dtype=np.int64),
        offsets=np.asarray(offsets, dtype=np.int64),
        params_hash=params_hash,
    )


def naive_stats(sample: GraphSample) -> tuple[bool, int, int, int]:
    """Independent oracle: O(n^2) pairwise set intersections + BFS.

    Returns (connected, component_count, isolated, group1_isolated).
    """
    n = sample.n
    sets = [set(sample.object_set(x).tolist()) for x in range(n)]
    adj = [[bool(sets[i] & sets[j]) and i != j for j in range(n)] for i in range(n)]
    seen = [False] * n
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        queue = [s]
        seen[s] = True
        while queue:
            v = queue.pop()
            for w in range(n):
                if adj[v][w] and not seen[w]:
                    seen[w] = True
                    queue.append(w)
    isolated = [not any(adj[v]) for v in range(n)]
    iso = sum(isolated)
    g1 = sum(1 for v in range(n) if isolated[v] and sample.groups[v] == 1)
    return comps == 1, comps, iso, g1


@st.composite
def small_params(draw, max_m: int = 3, max_P: int = 12, min_n: int = 2, max_n: int = 8) -> ModelParams:
    m = draw(st.integers(1, max_m))
    P = draw(st.integers(m, max_P))  # leaves room for a valid K vector
    n = draw(st.integers(min_n, max_n))
    weights = draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    total = sum(weights)
    a = tuple(w / total for w in weights)
    K = []
    lo = 1
    for _ in range(m):
        k = draw(st.integers(lo, P))
        K.append(k)
        lo = k
    return ModelParams(n=n, a=a, K=tuple(K), P=P)


@pytest.fixture
def sample_builder():
    return make_sample


@pytest.fixture
def naive_oracle():
    return naive_stats


@pytest.fixture
def serial_pools(monkeypatch):
    """Replace the trial pool with a stub that maps serially in this process;
    the returned list records each pool's ``("open", max_workers)`` and
    ``("close",)``, so no real pool is started."""
    events: list[tuple] = []

    class SerialPool:
        def __init__(self, max_workers):
            events.append(("open", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            events.append(("close",))
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", SerialPool)
    return events


def exit_in_worker(*args):
    """A ``_run_range`` stand-in whose worker process dies at once."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("exit_in_worker must only run in a pool worker")
    os._exit(17)
