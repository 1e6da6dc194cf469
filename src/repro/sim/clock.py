"""Virtual clock and event loop.

The entire empirical prong of the reproduction runs on virtual time: one
:class:`EventLoop` per simulation, a heap of pending events, and a
monotonically advancing clock.  All times are in **seconds** of virtual time.

Determinism: events scheduled for the same instant fire in scheduling order
(a per-loop sequence number breaks ties), so a fixed seed yields a bit-for-bit
identical run.

Performance notes (see ``docs/PERFORMANCE.md``): scheduling allocates one
object (the heap entry is the :class:`EventHandle`), ``now`` is a plain
attribute, the run loops bind hot attributes to locals, the cyclic collector
is paced while a loop drains (``_GC_GEN0_THRESHOLD``), cancelled events are
counted and the heap is compacted when cancellations dominate (client retry
timers are cancelled on nearly every reply, so an uncompacted heap would
grow with *issued* requests rather than *outstanding* ones), and dispatch
order is pinned by ``(when, seq)`` alone — compaction reheapifies the same
entries and therefore cannot reorder anything.
"""

from __future__ import annotations

import gc
import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

# Sentinel used to mark cancelled events without rebuilding the heap.
_CANCELLED = object()
# Sentinel stamped onto entries as they fire, so a late ``cancel()`` (e.g. a
# client cancelling a retry timer that already went off) is a no-op instead
# of corrupting the cancelled-entry count that drives compaction.
_FIRED = object()

# Compact the heap when cancelled entries outnumber live ones by this
# factor (and there are enough of them to matter).  Compaction is O(n),
# amortized O(1) per cancellation because at least half the heap is
# removed each time it runs.
_COMPACT_RATIO = 2
_COMPACT_MIN = 512

# Generation-0 threshold while a loop drains (CPython's default is 700).  A
# run retains a large heap that holds no cycles — logs, version chains, the
# operation history — and every collection the allocation counter triggers
# rescans part of it to free next to nothing.  Collection still runs, 70x
# less often; the caller's thresholds come back when the drain returns.
_GC_GEN0_THRESHOLD = 50_000


def _pace_gc() -> tuple[int, int, int]:
    """Raise the generation-0 threshold for the duration of a drain and
    return the thresholds to restore.  A caller that has switched the
    collector off, or already set a higher threshold, keeps its setting."""
    thresholds = gc.get_threshold()
    if 0 < thresholds[0] < _GC_GEN0_THRESHOLD:
        gc.set_threshold(_GC_GEN0_THRESHOLD, *thresholds[1:])
    return thresholds


class EventHandle(list):
    """A scheduled event, cancellable: the heap entry itself,
    ``[when, seq, loop, args, fn]``.

    Scheduling allocates this one object.  The heap orders entries by their
    ``(when, seq)`` prefix (``seq`` is unique per loop, so comparison never
    reaches the rest), and the last slot holds the callback until the event
    fires or is cancelled.

    To its holder a handle is an opaque token: ``cancel()``, ``cancelled``
    and ``time``, nothing else.  It hashes by identity, so timers can be
    kept in a set or as dict keys, and since ``(when, seq, loop)`` is unique
    two distinct handles never compare equal.  The inherited ``list``
    mutators act on a live heap entry and must not be used.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice (or cancelling
        an event that already fired) is a no-op."""
        state = self[4]
        if state is not _CANCELLED and state is not _FIRED:
            self[4] = _CANCELLED
            self[2]._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self[4] is _CANCELLED

    @property
    def time(self) -> float:
        """Virtual time at which the event is (or was) due to fire."""
        return self[0]


class EventLoop:
    """A discrete-event scheduler over virtual time.

    Usage::

        loop = EventLoop()
        loop.call_at(1.5, handler, arg)
        loop.call_after(0.25, handler2)
        loop.run_until(10.0)
    """

    # Process-wide tallies across every loop instance, so ``--profile``
    # reports (repro.bench.profiling) can show simulated-event throughput
    # without holding references to the loops an experiment created.
    total_events_fired = 0
    total_events_batched = 0
    total_compactions = 0

    def __init__(self) -> None:
        #: Current virtual time in seconds.  A plain attribute, read several
        #: times per event; only the run loops below assign it.
        self.now = 0.0
        self._heap: list[EventHandle] = []
        self._seq = itertools.count()
        self._events_fired = 0
        self._events_batched = 0
        self._stopped = False
        self._cancelled = 0  # cancelled entries still sitting in the heap
        self._compactions = 0

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for instrumentation)."""
        return self._events_fired

    @property
    def events_batched(self) -> int:
        """Events fired through the same-timestamp batch drain (i.e. after
        the first event of a multi-event instant), for instrumentation."""
        return self._events_batched

    @property
    def compactions(self) -> int:
        """Number of heap compactions performed (for instrumentation)."""
        return self._compactions

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at virtual time ``when``.

        ``when`` must not be in the past; scheduling at exactly ``now`` is
        allowed and fires in FIFO order relative to other events at ``now``.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event at t={when:.9f} before now={self.now:.9f}"
            )
        handle = EventHandle((when, next(self._seq), self, args, fn))
        heappush(self._heap, handle)
        return handle

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.call_at(self.now + delay, fn, *args)

    def stop(self) -> None:
        """Request the current ``run``/``run_until`` call to return."""
        self._stopped = True

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        cancelled = self._cancelled
        if cancelled >= _COMPACT_MIN and cancelled > (
            len(self._heap) - cancelled
        ) * _COMPACT_RATIO:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Heap order is a function of each entry's ``(when, seq)`` prefix
        only, so rebuilding the heap from the live entries cannot change
        dispatch order — it just frees the memory and skips the pops.
        """
        self._heap = [entry for entry in self._heap if entry[4] is not _CANCELLED]
        heapify(self._heap)
        self._cancelled = 0
        self._compactions += 1
        EventLoop.total_compactions += 1

    def run_until(self, deadline: float) -> None:
        """Execute events in time order until ``deadline`` (inclusive).

        The clock is left at ``deadline`` even if the heap drains earlier, so
        repeated calls advance time monotonically.
        """
        self._stopped = False
        heap = self._heap
        cancelled_sentinel = _CANCELLED
        fired_sentinel = _FIRED
        fired = 0
        batched = 0
        gc_thresholds = _pace_gc()
        try:
            while heap and not self._stopped:
                when = heap[0][0]
                if when > deadline:
                    break
                entry = heappop(heap)
                fn = entry[4]
                if fn is cancelled_sentinel:
                    self._cancelled -= 1
                    continue
                self.now = when
                entry[4] = fired_sentinel
                fired += 1
                fn(*entry[3])
                if heap is not self._heap:  # compaction swapped the list
                    heap = self._heap
                # Batch-drain every event sharing this exact instant: they
                # are all already due and the clock cannot move, so the
                # deadline check is paid once per instant instead of once
                # per event.  The heap's (when, seq) order — including for
                # events a handler just scheduled *at* this instant — is
                # identical to the one-at-a-time loop's, so dispatch order
                # (and therefore every simulated outcome) is unchanged.
                while heap and heap[0][0] == when and not self._stopped:
                    entry = heappop(heap)
                    fn = entry[4]
                    if fn is cancelled_sentinel:
                        self._cancelled -= 1
                        continue
                    entry[4] = fired_sentinel
                    fired += 1
                    batched += 1
                    fn(*entry[3])
                    if heap is not self._heap:
                        heap = self._heap
        finally:
            gc.set_threshold(*gc_thresholds)
            self._events_fired += fired
            self._events_batched += batched
            EventLoop.total_events_fired += fired
            EventLoop.total_events_batched += batched
        if not self._stopped and self.now < deadline:
            self.now = deadline

    def run(self, max_events: int | None = None) -> None:
        """Execute events until the heap is empty (or ``max_events`` fire)."""
        self._stopped = False
        heap = self._heap
        cancelled_sentinel = _CANCELLED
        fired_sentinel = _FIRED
        fired = 0
        batched = 0
        gc_thresholds = _pace_gc()
        try:
            while heap and not self._stopped:
                if max_events is not None and fired >= max_events:
                    return
                when = heap[0][0]
                entry = heappop(heap)
                fn = entry[4]
                if fn is cancelled_sentinel:
                    self._cancelled -= 1
                    continue
                self.now = when
                entry[4] = fired_sentinel
                fired += 1
                fn(*entry[3])
                if heap is not self._heap:
                    heap = self._heap
                # Same-instant batch drain; see run_until.  The max_events
                # bound still holds exactly: the drain re-checks it per
                # event, it just skips the outer loop's pop/compare cycle.
                while (
                    heap
                    and heap[0][0] == when
                    and not self._stopped
                    and (max_events is None or fired < max_events)
                ):
                    entry = heappop(heap)
                    fn = entry[4]
                    if fn is cancelled_sentinel:
                        self._cancelled -= 1
                        continue
                    entry[4] = fired_sentinel
                    fired += 1
                    batched += 1
                    fn(*entry[3])
                    if heap is not self._heap:
                        heap = self._heap
        finally:
            gc.set_threshold(*gc_thresholds)
            self._events_fired += fired
            self._events_batched += batched
            EventLoop.total_events_fired += fired
            EventLoop.total_events_batched += batched

    def next_time(self) -> float | None:
        """Virtual time of the earliest live event, or None if the heap is
        drained.  Pops cancelled heads on the way, so repeated peeks stay
        O(1) amortized.  The conservative lockstep scheduler in
        :mod:`repro.shard.cluster` uses this to decide which of several
        loops holds the globally-next event.
        """
        heap = self._heap
        while heap and heap[0][4] is _CANCELLED:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return len(self._heap)

    def live_pending(self) -> int:
        """Number of queued events that will actually fire (cancelled
        entries excluded)."""
        return len(self._heap) - self._cancelled


class NodeClock:
    """A node's local wall clock: virtual time plus a per-node offset.

    Lease-based protocols reason about *durations* read off local clocks
    ("do not grant to anyone else for the next L seconds").  Those
    arguments only hold if clocks drift by a bounded amount, so the
    simulator models each node's clock as the global virtual clock plus
    an adjustable offset.  A ``skew`` fault (see :mod:`repro.bench.nemesis`)
    jumps the offset mid-run — the adversarial case for lease safety,
    because a duration measured across the jump is wrong by the jump size.

    Offsets never affect event scheduling: timers still run on the loop's
    virtual time.  Only code that explicitly reads ``clock.now`` (the
    lease machinery) observes the skew, mirroring how real systems
    schedule on monotonic clocks but compare lease timestamps across
    machines.
    """

    __slots__ = ("_loop", "offset")

    def __init__(self, loop: EventLoop, offset: float = 0.0) -> None:
        self._loop = loop
        self.offset = offset

    @property
    def now(self) -> float:
        """This node's local reading of the current time."""
        return self._loop.now + self.offset

    def skew(self, delta: float) -> None:
        """Jump the local clock by ``delta`` seconds (may be negative)."""
        self.offset += delta
