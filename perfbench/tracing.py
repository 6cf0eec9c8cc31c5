"""In-memory spans recorded around calls into rigraph, and self-time arithmetic.

A span is a dict ``{"name", "start", "end", "parent", "id", "attrs"}``.
``name`` is ``<layer>.<call>`` where the layer is a module of ``rigraph``
(``client`` marks the benchmark's own loop), ``parent`` is the index of the
enclosing span in the same list (-1 at the root), and ``id`` names the trial,
query or sweep point the span serves.  Spans are only ever recorded from the
benchmark's files, around public calls; nothing inside ``src/`` is traced.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator


class Tracer:
    """Collects spans in memory; the caller writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, ident: object = None, **attrs: object) -> Iterator[dict]:
        rec = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else -1,
            "id": ident,
            "attrs": dict(attrs),
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    return total + (cur_hi - cur_lo)


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so every value lies in [0, duration].
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, children):
        dur = max(0.0, s["end"] - s["start"])
        out.append(dur - min(dur, _covered(s["start"], s["end"], kids)))
    return out
