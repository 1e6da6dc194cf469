"""Per-node metric counters and gauges.

Counters are fed by :meth:`repro.sim.network.Network.transit` (one call per
message, a few dict updates — cheap enough to stay always-on), gauges are
read from each node's :class:`~repro.sim.server.Server`:

==========================  ====================================================
metric                      meaning
==========================  ====================================================
``sent[type]``              messages of ``type`` put on the wire by this node
``received[type]``          messages of ``type`` delivered to this node
``dropped[type]``           messages lost to faults (charged to the sender)
``bytes_sent/received``     NIC byte counters (same attribution)
``busy_seconds``            CPU+NIC queue occupancy (utilization = busy/window)
``jobs_completed``          jobs drained from the CPU+NIC queue
``mean_wait_s``             average queueing delay across those jobs
``mean_queue_depth``        time-averaged CPU+NIC queue length
``max_queue_depth``         high-water queue length
``queue_samples``           ``(t, depth)`` series, recorded while sampling
==========================  ====================================================

Message counts are keyed by the message dataclass name (``"P2a"``,
``"ClientRequest"``, ...), which is what makes the Table-2 role accounting
assertable: the per-request delta of ``sent``/``received`` at the busiest
node must match :class:`repro.core.service.RoundWork`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:
    from repro.sim.clock import EventLoop
    from repro.sim.server import Server


class NodeMetrics:
    """Counters and gauges for one network endpoint."""

    __slots__ = (
        "sent",
        "received",
        "dropped",
        "bytes_sent",
        "bytes_received",
        "queue_samples",
    )

    def __init__(self) -> None:
        self.sent: Counter = Counter()
        self.received: Counter = Counter()
        self.dropped: Counter = Counter()
        self.bytes_sent = 0
        self.bytes_received = 0
        self.queue_samples: list[tuple[float, int]] = []

    def messages_sent(self) -> int:
        return sum(self.sent.values())

    def messages_received(self) -> int:
        return sum(self.received.values())

    def to_dict(self) -> dict:
        return {
            "sent": dict(self.sent),
            "received": dict(self.received),
            "dropped": dict(self.dropped),
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


class MetricsHub:
    """All per-node metrics of one cluster, keyed by endpoint address."""

    def __init__(self) -> None:
        self._nodes: dict[Hashable, NodeMetrics] = {}
        self._servers: dict[Hashable, "Server"] = {}

    def node(self, address: Hashable) -> NodeMetrics:
        metrics = self._nodes.get(address)
        if metrics is None:
            metrics = NodeMetrics()
            self._nodes[address] = metrics
        return metrics

    @property
    def nodes(self) -> dict[Hashable, NodeMetrics]:
        return dict(self._nodes)

    def attach_server(self, address: Hashable, server: "Server") -> None:
        """Let the hub read busy-time and queue gauges for ``address``."""
        self._servers[address] = server

    def server_of(self, address: Hashable) -> "Server | None":
        return self._servers.get(address)

    # -- network feed (called once per message) -------------------------

    def on_sent(self, src: Hashable, type_name: str, size_bytes: int) -> None:
        try:
            metrics = self._nodes[src]
        except KeyError:
            metrics = self.node(src)
        metrics.sent[type_name] += 1
        metrics.bytes_sent += size_bytes

    def on_received(self, dst: Hashable, type_name: str, size_bytes: int) -> None:
        try:
            metrics = self._nodes[dst]
        except KeyError:
            metrics = self.node(dst)
        metrics.received[type_name] += 1
        metrics.bytes_received += size_bytes

    def on_dropped(self, src: Hashable, type_name: str, size_bytes: int) -> None:
        self.node(src).dropped[type_name] += 1

    # -- gauges ----------------------------------------------------------

    def sample_queues(self, now: float) -> None:
        """Record ``(now, queue depth)`` for every attached server."""
        for address, server in self._servers.items():
            self.node(address).queue_samples.append((now, server.queue_length))

    def busy_seconds(self) -> dict[Hashable, float]:
        """Current cumulative busy-time per attached server."""
        return {addr: srv.stats.busy_seconds for addr, srv in self._servers.items()}

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready per-node dump (cumulative since cluster start)."""
        out: dict = {}
        for address in set(self._nodes) | set(self._servers):
            entry = (
                self._nodes[address].to_dict() if address in self._nodes else NodeMetrics().to_dict()
            )
            server = self._servers.get(address)
            if server is not None:
                stats = server.stats
                entry.update(
                    busy_seconds=stats.busy_seconds,
                    jobs_completed=stats.jobs_completed,
                    mean_wait_s=stats.mean_wait(),
                    max_queue_depth=stats.max_queue_length,
                )
            out[str(address)] = entry
        return out


class WindowObservation:
    """Measurement-window view of a hub: utilization and queue depth.

    Benchmarks arm one of these before running: at ``warmup_end`` it
    snapshots each server's cumulative busy-time and queue-area integral
    (via :meth:`repro.sim.server.ServerStats.queue_area`), and — when
    ``samples > 0`` — schedules periodic queue-depth sampling across the
    window.  After the run, :meth:`snapshot` reports per-node utilization
    ``rho`` and mean queue depth *for the window only*, which is what the
    M/D/1 cross-checks need.
    """

    def __init__(
        self,
        hub: MetricsHub,
        loop: "EventLoop",
        warmup_end: float,
        end: float,
        samples: int = 0,
    ) -> None:
        self.hub = hub
        self.warmup_end = warmup_end
        self.end = end
        self._busy_base: dict[Hashable, float] = {}
        self._area_base: dict[Hashable, float] = {}
        loop.call_at(warmup_end, self._capture_baseline)
        if samples > 0 and end > warmup_end:
            step = (end - warmup_end) / samples
            for i in range(1, samples + 1):
                at = warmup_end + i * step
                loop.call_at(at, self._sample, at)

    def _capture_baseline(self) -> None:
        for address, server in self.hub._servers.items():
            server.touch_queue_area()
            self._busy_base[address] = server.stats.busy_seconds
            self._area_base[address] = server.stats.queue_area

    def _sample(self, at: float) -> None:
        self.hub.sample_queues(at)

    def snapshot(self) -> dict:
        """Per-node window metrics plus the cumulative counters."""
        window = max(self.end - self.warmup_end, 1e-12)
        out = self.hub.snapshot()
        for address, server in self.hub._servers.items():
            server.touch_queue_area()
            stats = server.stats
            busy = stats.busy_seconds - self._busy_base.get(address, 0.0)
            area = stats.queue_area - self._area_base.get(address, 0.0)
            entry = out.setdefault(str(address), {})
            entry["window_s"] = window
            entry["utilization"] = min(1.0, max(0.0, busy / window))
            entry["mean_queue_depth"] = max(0.0, area / window)
            samples = self.hub.node(address).queue_samples
            if samples:
                entry["queue_samples"] = [(t, d) for t, d in samples]
        return out

    def utilization(self, address: Hashable) -> float:
        server = self.hub.server_of(address)
        if server is None:
            return 0.0
        window = max(self.end - self.warmup_end, 1e-12)
        busy = server.stats.busy_seconds - self._busy_base.get(address, 0.0)
        return busy / window
