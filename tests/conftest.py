"""Shared helpers: a wall-clock limit on every test, a one-trial batch built
from per-vertex sets, an independent adjacency-matrix/BFS analysis oracle,
the walk that finds names, attributes and keywords a parsed source takes
from ``rigraph`` that do not exist, the tiny instances of the event oracle,
a hypothesis strategy for small valid parameter tuples, and recording
process pools and serial stand-ins for them for the trial runner."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import signal
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import strategies as st

import rigraph.montecarlo as montecarlo
from rigraph import ModelParams
from rigraph.sampler import GraphBatch

_TEST_PID = os.getpid()
TEST_WALL_SECONDS = 120  # the slowest test takes about 15 s on a 2-vCPU VM


class WallClockExceeded(BaseException):
    """Raised in a test that runs past ``TEST_WALL_SECONDS``.  Not an
    ``Exception``, so no ``except Exception`` in the code under test
    swallows it, and Hypothesis does not shrink and rerun the test."""


@pytest.fixture(autouse=True)
def wall_clock_limit():
    """Fail a test, with its traceback, once it has run ``TEST_WALL_SECONDS``
    of wall time, so a call that never returns cannot stall the suite.  The
    SIGALRM handler runs in the main thread, where pytest runs each test."""

    def expire(signum, frame):
        raise WallClockExceeded(f"test ran past {TEST_WALL_SECONDS} s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_WALL_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_sample(groups: list[int], object_sets: list[list[int]], P: int | None = None) -> GraphBatch:
    """A one-trial batch from per-vertex sets, each sorted here; the pool
    defaults to one past the largest id (tests only)."""
    sets = [sorted(s) for s in object_sets]
    if P is None:
        P = max((o for s in sets for o in s), default=0) + 1
    return GraphBatch.from_sets(groups, sets, P)


def naive_stats(sample: GraphBatch) -> tuple[bool, int, int, int]:
    """Independent oracle: O(n^2) pairwise set intersections + BFS.

    Returns (connected, component_count, isolated, group1_isolated).
    """
    n = sample.n
    sets = [set(sample.objects[sample.offsets[x]:sample.offsets[x + 1]].tolist()) for x in range(n)]
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


def rigraph_bindings(tree: ast.AST) -> dict:
    """Local name -> object, for each name the parsed source binds from
    ``rigraph``: ``import rigraph...`` with or without ``as``, and each
    ``from rigraph... import`` name that exists."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "rigraph":
                    module = importlib.import_module(a.name)
                    bound[a.asname or "rigraph"] = module if a.asname else importlib.import_module("rigraph")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rigraph":
            module = importlib.import_module(node.module)
            bound.update({a.asname or a.name: getattr(module, a.name) for a in node.names if hasattr(module, a.name)})
    return bound


def missing_rigraph_names(tree: ast.AST) -> list[str]:
    """Everything the parsed source takes from ``rigraph`` that does not
    exist: each name it imports, each attribute it reads off such a name
    (``sweeps.run_sweep``, ``b_vector.cache_info``), and each keyword it
    passes to such a callable (``sample_graph(..., scratch=...)``)."""
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rigraph":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    bound = rigraph_bindings(tree)

    def resolve(node: ast.AST) -> object:
        """The object a name or attribute chain rooted at a rigraph binding
        stands for; None for any other expression or a missing link."""
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute) and (owner := resolve(node.value)) is not None:
            return getattr(owner, node.attr, None)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is not None and not hasattr(owner, node.attr):
                missing.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and (fn := resolve(node.func)) is not None:
            for kw in node.keywords:  # a **mapping (arg None) is not read
                try:
                    if kw.arg is not None:
                        inspect.signature(fn).bind_partial(**{kw.arg: None})
                except TypeError:
                    missing.append(f"{ast.unparse(node.func)}({kw.arg}=)")
    return missing


def tiny_instances() -> list[ModelParams]:
    """The 64 instances of acceptance criterion 2: n in {2, 3}, P in 2..5."""
    out = []
    for n in (2, 3):
        for P in (2, 3, 4, 5):
            for a in ((1.0,), (0.5, 0.5), (0.2, 0.8)):
                Ks = [(1,), (2,)] if len(a) == 1 else [(1, 1), (1, 2), (2, 2)]
                for K in Ks:
                    out.append(ModelParams(n=n, a=a, K=K, P=P))
    return out


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


class _SerialPool:
    """A process pool stand-in that maps in this process."""

    def __init__(self, max_workers, mp_context=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def _recording(pool_class, events: list[tuple]):
    """``pool_class`` that appends ``("open", max_workers)``, then
    ``("map", ranges)`` for each run it maps and ``("close",)`` to
    ``events``."""

    class Recording(pool_class):
        def __init__(self, max_workers, mp_context=None):
            events.append(("open", max_workers))
            super().__init__(max_workers=max_workers, mp_context=mp_context)

        def __exit__(self, *exc):
            events.append(("close",))
            return super().__exit__(*exc)

        def map(self, fn, starts, stops):
            events.append(("map", len(starts)))
            return super().map(fn, starts, stops)

    return Recording


@pytest.fixture
def serial_pools(monkeypatch):
    """Replace the trial pool with a stub that maps serially in this process
    and records its events (``_recording``), so no real pool is started."""
    events: list[tuple] = []
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _recording(_SerialPool, events))
    return events


@pytest.fixture
def recorded_pools(monkeypatch):
    """Real trial pools that record their events (``_recording``)."""
    events: list[tuple] = []
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _recording(ProcessPoolExecutor, events))
    return events


def exit_in_worker(*args):
    """A ``_run_range`` stand-in whose worker process dies at once."""
    if os.getpid() == _TEST_PID:
        raise AssertionError("exit_in_worker must only run in a pool worker")
    os._exit(17)
