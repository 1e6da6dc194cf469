"""``--profile`` support for the benchmark and experiment CLIs.

Wraps a run in :mod:`cProfile` and prints the top functions by total time
alongside the event-loop hot counters (simulated events fired, heap
compactions), which contextualize the profile: the loop's events/sec is
the simulator's core speed metric (see ``docs/PERFORMANCE.md`` and the
``bench_simspeed`` baseline).

Worker processes spawned with ``--jobs N`` are not profiled — the profile
covers the parent process only, so profile with ``--jobs 1`` (the
default) when hunting hot spots.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from contextlib import contextmanager
from typing import Iterator

from repro.sim.clock import EventLoop


@contextmanager
def maybe_profiled(enabled: bool, label: str = "run", top: int = 20) -> Iterator[None]:
    """Profile the enclosed block when ``enabled``; no-op otherwise."""
    if not enabled:
        yield
        return
    events_before = EventLoop.total_events_fired
    batched_before = EventLoop.total_events_batched
    compactions_before = EventLoop.total_compactions
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        wall = time.perf_counter() - started
        events = EventLoop.total_events_fired - events_before
        batched = EventLoop.total_events_batched - batched_before
        compactions = EventLoop.total_compactions - compactions_before
        print()
        print(f"--- profile: {label} ---")
        print(
            f"wall {wall:.2f}s | {events:,} simulated events "
            f"({events / wall:,.0f} events/s, {batched:,} batch-drained) | "
            f"{compactions} heap compaction(s)"
        )
        stats = pstats.Stats(profiler)
        stats.sort_stats("tottime").print_stats(top)
