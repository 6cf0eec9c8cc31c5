"""A fixed reference kernel that measures how fast the host is running now.

On a shared host the speed a process gets drifts by a quarter or more over
minutes, which no amount of repetition inside one run averages away.  Each
repetition therefore runs this kernel between its calls, and the benchmark
reports times in reference milliseconds (``ref_ms``): wall milliseconds
scaled to a host on which one kernel run takes exactly ``REF_MS``.  A change
to rigraph cannot move the kernel, so it moves the scaled times exactly as it
moves the wall times; the wall values are printed beside them.

The kernel mixes the two kinds of work the workloads do: an interpreted loop
with dict stores (the scalar sampler, union-find and bisection) and numpy
passes over an array (the vectorized sampler and component search).
"""

from __future__ import annotations

import time

import numpy as np

REF_MS = 10.0
CAL_EVERY_S = 0.2  # calibrate again once this much call time has passed


def kernel() -> float:
    acc = 0
    table: dict[int, int] = {}
    for i in range(50_000):
        acc += i * i
        table[i & 1023] = acc
    x = np.arange(200_000, dtype=np.float64)
    for _ in range(10):
        x = np.sqrt(x * x + 1.0)
    return acc + float(x.sum())


def sample_ms() -> float:
    t = time.perf_counter()
    kernel()
    return (time.perf_counter() - t) * 1e3
