"""Simulated machine: a single CPU+NIC processing queue.

The paper's model (section 3.2) treats each node as *one* FIFO queue through
which every incoming and outgoing message passes, combining CPU and NIC into
a single server.  This module implements exactly that abstraction for the
empirical prong, which is what makes the simulator and the analytic model
directly comparable.

Costs are charged per message:

- an incoming message costs ``t_in`` of CPU plus ``size/bandwidth`` of NIC,
- an outgoing unicast costs ``t_out`` plus ``size/bandwidth``,
- an outgoing broadcast costs ``t_out`` **once** (the CPU serializes the
  message a single time, as the paper notes) plus one NIC transmission per
  destination.

Fault injection: ``freeze(duration)`` models the paper's ``Crash(t)`` client
command — the node stops draining its queue for ``duration`` seconds; queued
work is not lost.  ``freeze(None)`` is a permanent crash-stop.  A *reboot*
is harsher: :meth:`Server.power_off` kills queued and in-service jobs
outright (their completions never fire), and :meth:`Server.power_on`
resumes with an empty queue — volatile state does not survive; only
:mod:`repro.sim.storage` contents do.

Gray failures: :meth:`Server.set_slow_factor` multiplies the service cost
of every subsequently submitted job — the node is alive (heartbeats still
flow, timers still fire) but drains its queue at ``1/factor`` of the
healthy rate.  This is the *fail-slow* CPU fault that crash-stop testing
never exercises.  A factor of ``1.0`` (the default) is bit-identical to
the pre-fault code path.

Priority lane: :meth:`Server.submit_priority` enqueues onto a separate
control-plane queue drained strictly before the FIFO data queue, so
protocol-internal traffic (heartbeats, elections, catch-up) is never stuck
behind a saturated client backlog.  Unused, the lane costs one empty-deque
check per job start and changes no accounting.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.clock import EventLoop


@dataclass(frozen=True)
class ServiceProfile:
    """Per-node processing costs (all in seconds / bytes-per-second).

    Defaults are calibrated so that a 9-node single-leader Paxos saturates
    around 8,000 rounds/s, the figure the paper reports for m5.large
    instances (Figure 7): ``ts = 2*t_out + N*t_in + 2*N*size/bandwidth``
    = 2*10us + 9*10us + 18*0.8us = 124.4 us -> ~8,040 rounds/s.

    A replica (``repro.paxi.node``) charges its queue
    ``t_in*weight + size/bandwidth`` for a received message and
    ``t_out*weight + copies*(size/bandwidth)`` for one sent to ``copies``
    peers: serialization once, NIC time per copy.
    """

    t_in: float = 10e-6
    t_out: float = 10e-6
    bandwidth_bps: float = 1e9 / 8.0  # 1 Gb/s expressed in bytes per second
    default_message_bytes: int = 100


@dataclass(slots=True)
class ServerStats:
    """Aggregate occupancy statistics for one server."""

    jobs_completed: int = 0
    busy_seconds: float = 0.0
    wait_seconds: float = 0.0
    max_queue_length: int = 0
    queue_area: float = 0.0  # time-integral of queue length (jobs x seconds)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the server spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed)

    def mean_wait(self) -> float:
        """Average queueing delay (seconds) across completed jobs."""
        if self.jobs_completed == 0:
            return 0.0
        return self.wait_seconds / self.jobs_completed

    def mean_queue_depth(self, elapsed: float) -> float:
        """Time-averaged number of jobs in the system (queued + in service),
        the L in Little's law."""
        if elapsed <= 0:
            return 0.0
        return self.queue_area / elapsed


class Server:
    """A FIFO single-server work queue on virtual time.

    ``submit(cost, fn, *args)`` enqueues a job that will occupy the server
    for ``cost`` seconds once it reaches the head of the queue, then invoke
    ``fn(*args)``.
    """

    def __init__(self, loop: EventLoop, name: str = "server") -> None:
        self._loop = loop
        self.name = name
        self._queue: deque[tuple[float, float, Callable[..., Any], tuple]] = deque()
        # Control-plane lane, drained strictly before ``_queue``; empty (and
        # cost-free) unless submit_priority is ever used.
        self._priority: deque[tuple[float, float, Callable[..., Any], tuple]] = deque()
        self._busy = False
        self._frozen_until = 0.0
        # Fail-slow degradation: every submitted job's cost is multiplied by
        # this factor.  1.0 (healthy) leaves the hot path untouched.
        self._slow_factor = 1.0
        self._epoch = 0  # bumped by power_off to orphan in-service jobs
        self._area_at = loop.now
        # Sum of the costs of all *queued* (not in-service) jobs: the time a
        # new arrival would wait behind the backlog.  Maintained
        # incrementally so admission control can read it in O(1).
        self._queued_cost = 0.0
        self.stats = ServerStats()

    @property
    def queue_length(self) -> int:
        return len(self._queue) + len(self._priority) + (1 if self._busy else 0)

    @property
    def slow_factor(self) -> float:
        """Current fail-slow service-cost multiplier (1.0 = healthy)."""
        return self._slow_factor

    def set_slow_factor(self, factor: float) -> None:
        """Degrade (or restore) the node's service rate.

        Every job submitted while the factor is ``f`` costs ``f`` times its
        healthy service time; jobs already queued keep the cost they were
        charged on arrival.  The factor survives freezes and reboots — a
        fail-slow machine stays slow until the fault is lifted.
        """
        if factor <= 0:
            raise SimulationError(f"slow factor must be positive, got {factor!r}")
        self._slow_factor = factor

    @property
    def frozen(self) -> bool:
        return self._loop.now < self._frozen_until

    @property
    def backlog_seconds(self) -> float:
        """Seconds of queued (not yet in service) work a new arrival would
        wait behind.  The in-service job's remaining time is not included,
        so this slightly underestimates true wait — good enough for
        deadline-based admission control, and O(1) to read."""
        return self._queued_cost

    def touch_queue_area(self) -> None:
        """Accrue the queue-length time-integral up to the current instant.
        Called before every queue-length change and by metric snapshots."""
        now = self._loop.now
        self.stats.queue_area += self.queue_length * (now - self._area_at)
        self._area_at = now

    def submit(self, cost: float, fn: Callable[..., Any], *args: Any) -> None:
        """Enqueue a job costing ``cost`` seconds, completing with ``fn``."""
        if cost < 0:
            raise SimulationError(f"negative job cost {cost!r}")
        if self._slow_factor != 1.0:
            cost *= self._slow_factor
        loop = self._loop
        now = loop.now
        stats = self.stats
        queue = self._queue
        if not (self._busy or queue or self._priority or now < self._frozen_until):
            # Idle server: the job starts now.  This is what a round trip
            # through the queue would leave behind — an empty system adds
            # nothing to ``queue_area``, the job waited ``now - now``, and
            # ``_queued_cost`` is 0.0 whenever both lanes are empty.
            self._area_at = now
            if not stats.max_queue_length:
                stats.max_queue_length = 1
            self._busy = True
            loop.call_at(now + cost, self._complete, self._epoch, cost, fn, args)
            return
        # Inlined touch_queue_area + max-depth update: submit runs for
        # every message hop, so the hot path avoids the extra calls and
        # property lookups.
        queued = len(queue) + len(self._priority) + (1 if self._busy else 0)
        stats.queue_area += queued * (now - self._area_at)
        self._area_at = now
        queue.append((now, cost, fn, args))
        self._queued_cost += cost
        queued += 1
        if queued > stats.max_queue_length:
            stats.max_queue_length = queued
        if not self._busy:
            self._maybe_start()

    def submit_priority(self, cost: float, fn: Callable[..., Any], *args: Any) -> None:
        """Enqueue a control-plane job onto the priority lane.

        Priority jobs share the single server (one job in service at a
        time, full cost charged) but are drained strictly before the FIFO
        data queue, so a heartbeat arriving behind 10k queued client
        requests is answered after at most one in-service job, not after
        the whole backlog.
        """
        if cost < 0:
            raise SimulationError(f"negative job cost {cost!r}")
        if self._slow_factor != 1.0:
            cost *= self._slow_factor
        now = self._loop.now
        stats = self.stats
        queued = len(self._queue) + len(self._priority) + (1 if self._busy else 0)
        stats.queue_area += queued * (now - self._area_at)
        self._area_at = now
        self._priority.append((now, cost, fn, args))
        self._queued_cost += cost
        queued += 1
        if queued > stats.max_queue_length:
            stats.max_queue_length = queued
        if not self._busy:
            self._maybe_start()

    def freeze(self, duration: float | None) -> None:
        """Stop draining the queue for ``duration`` seconds (Crash(t)).

        ``duration=None`` is a permanent crash-stop: the node never drains
        again (no wake event is scheduled, so a drained event loop is not
        held open by a dead node).
        """
        if duration is None:
            self._frozen_until = math.inf
            return
        if duration < 0:
            raise SimulationError(f"negative freeze duration {duration!r}")
        self._frozen_until = max(self._frozen_until, self._loop.now + duration)
        if not self._busy and not math.isinf(self._frozen_until):
            # Re-check the queue once the freeze lifts.
            self._loop.call_at(self._frozen_until, self._maybe_start)

    def power_off(self) -> None:
        """Reboot, phase 1: lose all queued and in-service work.

        In-service jobs are orphaned via the epoch guard — their
        already-scheduled completion events fire but do nothing.  The
        server stays down (permanently frozen) until :meth:`power_on`.
        """
        self.touch_queue_area()
        self._queue.clear()
        self._priority.clear()
        self._queued_cost = 0.0
        self._epoch += 1
        self._busy = False
        self._frozen_until = math.inf

    def power_on(self) -> None:
        """Reboot, phase 2: resume draining with an empty queue."""
        self._frozen_until = self._loop.now
        self._maybe_start()

    def _maybe_start(self) -> None:
        """Start the next queued job unless busy, empty or frozen (then a
        wake-up is armed for the thaw)."""
        if self._busy or not (self._queue or self._priority):
            return
        loop = self._loop
        now = loop.now
        if now < self._frozen_until:
            if not math.isinf(self._frozen_until):
                loop.call_at(self._frozen_until, self._maybe_start)
            return
        lane = self._priority if self._priority else self._queue
        enqueued_at, cost, fn, args = lane.popleft()
        self._queued_cost -= cost
        if not self._queue and not self._priority:
            self._queued_cost = 0.0  # re-zero so float drift never accumulates
        self._busy = True
        self.stats.wait_seconds += now - enqueued_at
        loop.call_at(now + cost, self._complete, self._epoch, cost, fn, args)

    def evict_oldest(
        self, match: Callable[[Callable[..., Any], tuple], bool]
    ) -> tuple[float, float, Callable[..., Any], tuple] | None:
        """Remove and return the oldest queued job satisfying ``match(fn,
        args)``, or None if no queued job matches.  The in-service job is
        never evicted (its completion event is already scheduled).

        This is the ``shed_policy="drop_oldest"`` primitive: O(queue) scan,
        but it only runs when the queue is over its admission limit, i.e.
        exactly when the node is otherwise about to melt down.
        """
        for index, job in enumerate(self._queue):
            if match(job[2], job[3]):
                self.touch_queue_area()
                del self._queue[index]
                self._queued_cost -= job[1]
                if not self._queue:
                    self._queued_cost = 0.0
                return job
        return None

    def _complete(self, epoch: int, cost: float, fn: Callable[..., Any], args: tuple) -> None:
        if epoch != self._epoch:
            return  # job belonged to a powered-off incarnation
        now = self._loop.now
        stats = self.stats
        stats.queue_area += (len(self._queue) + len(self._priority) + 1) * (now - self._area_at)
        self._area_at = now
        self._busy = False
        stats.jobs_completed += 1
        stats.busy_seconds += cost
        fn(*args)
        if self._queue or self._priority:
            self._maybe_start()
