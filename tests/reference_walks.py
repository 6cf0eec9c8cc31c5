"""Slow references for the two input walks that ``model_core._walk`` now
makes: the ring sizes of ``ModelParams`` and the ratios of a ring-size
solve, each written out as its own loop, as the constructor and
``_solver_inputs`` walked them before they shared one helper.

``reference_ring_sizes(n, a, K, P)`` is the ``K`` that
``ModelParams(n, a, K, P)`` stores, and ``reference_solver_inputs`` is what
``_solver_inputs`` returns; both raise the same ``InvalidParamsError``
messages, naming the first rule broken.  The tests require the shared walk
to return the same tuples and refuse with the same class and message.
"""

from __future__ import annotations

import math

from rigraph import InvalidParamsError
from rigraph.model_core import _as_float, _as_int, _model_inputs


def reference_ring_sizes(n, a, K, P) -> tuple[int, ...]:
    n, a, P = _model_inputs(n, a, P)
    sizes = []
    ordered = True  # every K_i in [1, P] and none below the one before
    low = 1
    try:
        for k in K:
            if type(k) is not int:
                k = _as_int("every K_i", k)
            if not low <= k <= P:
                ordered = False
            low = k
            sizes.append(k)
    except TypeError:  # ``K`` is not iterable
        raise InvalidParamsError(f"K must be a sequence of ring sizes, got {K!r}") from None
    K = tuple(sizes)
    if len(a) != len(K):
        raise InvalidParamsError(f"a and K must be equally long, got {len(a)} and {len(K)}")
    if not ordered:  # name the first rule broken, range before order
        for i, k in enumerate(K):
            if k < 1 or k > P:
                raise InvalidParamsError(f"need 1 <= K_{i + 1} <= P, got K={K}, P={P}")
        raise InvalidParamsError(f"ring sizes must be nondecreasing, got {K}")
    return K


def reference_solver_inputs(n, P, a, ratios, target_beta):
    n, a, P = _model_inputs(n, a, P)
    checked = []
    ordered = True  # every ratio finite, none below 1 or the one before
    low = 1.0
    try:
        for r in ratios:
            if type(r) is not float:
                r = _as_float("every ratio", r)
            if not low <= r < math.inf:
                ordered = False
            low = r
            checked.append(r)
    except TypeError:  # ``ratios`` is not iterable
        raise InvalidParamsError(f"ratios must be a sequence of numbers, got {ratios!r}") from None
    ratios = tuple(checked)
    if len(ratios) != len(a):
        raise InvalidParamsError(f"ratios must have one entry per group, got {len(ratios)} for m={len(a)}")
    if not ordered or ratios[0] - 1.0 > 1e-12:  # name the first rule broken
        if not all(math.isfinite(r) for r in ratios):
            raise InvalidParamsError(f"ratios must be finite, got {ratios}")
        if abs(ratios[0] - 1.0) > 1e-12:
            raise InvalidParamsError(f"ratios[0] must be 1, got {ratios[0]!r}")
        if any(r < 1.0 for r in ratios):
            raise InvalidParamsError(f"every ratio must be >= 1, got {ratios}")
        raise InvalidParamsError(f"ratios must be nondecreasing, got {ratios}")
    if type(target_beta) is not float:
        target_beta = _as_float("target beta", target_beta)
    if not -math.inf < target_beta < math.inf:
        raise InvalidParamsError(f"target beta must be finite, got {target_beta!r}")
    return n, P, a, ratios, target_beta
