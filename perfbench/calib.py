"""Same-run calibration (ROADMAP item 1c).

``host_calibration`` times a fixed pure-Python loop — the operations the
simulator is made of — so host numbers from two machines (or two noisy
moments on one) can be read relative to it; nothing in ``perfbench/``
compares against a constant recorded on another machine.

``wrapper_cost`` times a wrapped no-op with the tracer's own span wrapper,
split into the part the span sees as its own self time (``inner``) and the
part that lands in its parent (``outer``), so traced self times can be
corrected by call counts.
"""

from __future__ import annotations

import heapq
import random
import time

CALIB_OPS = 1_000_000


def host_calibration(ops: int = CALIB_OPS) -> float:
    """Seconds for ``ops`` heap push/pops + gauss draws + dict updates."""
    rng = random.Random(12345)
    started = time.perf_counter()
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(ops):
        push(heap, ((i * 7919) % 1009, i))
        if i & 1:
            pop(heap)
    while heap:
        pop(heap)
    gauss = rng.gauss
    for _ in range(ops):
        gauss(1.0, 0.1)
    table: dict = {}
    for i in range(ops):
        key = i & 1023
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - started


def _noop(a, b):
    return None


def wrapper_cost(calls: int = 200_000) -> dict:
    """Per-call cost of one span wrapper in nanoseconds."""
    from perfbench.spans import SpanTracer

    tracer = SpanTracer()
    wrapped = tracer.span(_noop, "calib:noop")
    clock = time.perf_counter

    def loop(fn) -> float:
        started = clock()
        for _ in range(calls):
            fn(1, 2)
        return clock() - started

    loop(wrapped)  # warm both paths
    bare = min(loop(_noop) for _ in range(3)) / calls
    acc = tracer.acc["calib:noop"]
    best_total, best_self = None, None
    for _ in range(3):
        acc[1] = 0.0
        total = loop(wrapped) / calls
        if best_total is None or total < best_total:
            best_total, best_self = total, acc[1] / calls
    return {
        "total_ns": (best_total - bare) * 1e9,
        "inner_ns": max(0.0, best_self - bare) * 1e9,
        "outer_ns": max(0.0, best_total - best_self) * 1e9,
    }
