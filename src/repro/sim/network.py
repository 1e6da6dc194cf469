"""Simulated network: latency sampling and fault injection.

One :class:`Network` instance carries every message in a simulation.  Each
endpoint (replica or client) registers an address, a site, and a delivery
callback.  Transit delay between two endpoints is sampled from the one-way
version of the topology's site-pair RTT distribution, so intra-site traffic
follows the paper's Figure-3 normal distribution and WAN traffic follows the
AWS inter-region matrix.

Fault injection implements the paper's four client-library commands
(section 4.2, "Availability"):

- ``Crash(node, t)`` — handled by :meth:`repro.sim.server.Server.freeze`,
- ``Drop(i, j, t)`` — drop every message from ``i`` to ``j``,
- ``Slow(i, j, t)`` — delay messages by a random extra amount,
- ``Flaky(i, j, t)`` — drop messages with some probability,

plus network partitions, which the paper lists as a hard-to-produce failure
that a simulated transport makes trivial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.core.topology import Topology
from repro.errors import SimulationError
from repro.sim.clock import EventLoop
from repro.sim.random import RandomStreams, resample_above, truncated_normal

Address = Hashable


@dataclass(slots=True)
class _FaultRule:
    """One active fault: a predicate plus an effect on matching messages."""

    kind: str  # "drop" | "flaky" | "slow" | "partition"
    src: Address | None
    dst: Address | None
    start: float
    end: float
    probability: float = 1.0
    extra_delay_mean: float = 0.0
    extra_delay_sigma: float = 0.0
    groups: tuple[frozenset, ...] = ()

    def matches(self, now: float, src: Address, dst: Address) -> bool:
        if not (self.start <= now < self.end):
            return False
        if self.kind == "partition":
            src_group = next((g for g in self.groups if src in g), None)
            dst_group = next((g for g in self.groups if dst in g), None)
            return src_group is not None and dst_group is not None and src_group is not dst_group
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return True


class FaultPlan:
    """A schedule of network faults, evaluated per message.

    The plan keeps the union ``[earliest start, latest end)`` of all its
    rules' windows so the per-message hot path (:meth:`Network.transit`)
    can skip rule matching entirely — with zero allocations — whenever the
    current time cannot fall inside any rule's window.  Rules are only ever
    added, so the envelope only widens.
    """

    def __init__(self) -> None:
        self._rules: list[_FaultRule] = []
        self._window_start = float("inf")
        self._window_end = float("-inf")

    def _note_window(self, start: float, end: float) -> None:
        if start < self._window_start:
            self._window_start = start
        if end > self._window_end:
            self._window_end = end

    def possibly_active(self, now: float) -> bool:
        """False when no rule's window can contain ``now``."""
        return self._window_start <= now < self._window_end

    def drop(self, src: Address | None, dst: Address | None, start: float, duration: float) -> None:
        """Drop every message from ``src`` to ``dst`` during the window."""
        self._rules.append(_FaultRule("drop", src, dst, start, start + duration))
        self._note_window(start, start + duration)

    def flaky(
        self,
        src: Address | None,
        dst: Address | None,
        start: float,
        duration: float,
        probability: float = 0.5,
    ) -> None:
        """Drop messages with ``probability`` during the window."""
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(f"flaky probability {probability!r} outside [0, 1]")
        self._rules.append(
            _FaultRule("flaky", src, dst, start, start + duration, probability=probability)
        )
        self._note_window(start, start + duration)

    def slow(
        self,
        src: Address | None,
        dst: Address | None,
        start: float,
        duration: float,
        extra_delay_mean: float = 0.05,
        extra_delay_sigma: float = 0.01,
    ) -> None:
        """Add a random extra delay to messages during the window."""
        self._rules.append(
            _FaultRule(
                "slow",
                src,
                dst,
                start,
                start + duration,
                extra_delay_mean=extra_delay_mean,
                extra_delay_sigma=extra_delay_sigma,
            )
        )
        self._note_window(start, start + duration)

    def partition(self, groups: list[set], start: float, duration: float) -> None:
        """Disconnect the given endpoint groups from each other."""
        frozen = tuple(frozenset(g) for g in groups)
        self._rules.append(
            _FaultRule("partition", None, None, start, start + duration, groups=frozen)
        )
        self._note_window(start, start + duration)

    def active_rules(self, now: float, src: Address, dst: Address) -> list[_FaultRule]:
        return [rule for rule in self._rules if rule.matches(now, src, dst)]


@dataclass(slots=True)
class NetworkStats:
    messages_sent: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    # Message count per (src_site, dst_site) pair.  A Counter so the hot
    # path can use ``+= 1`` without a get/default dance; it compares equal
    # to (and iterates like) a plain dict for existing consumers.
    per_link: Counter[tuple[str, str]] = field(default_factory=Counter)


class Network:
    """Delivers messages between registered endpoints with sampled delays."""

    def __init__(
        self,
        loop: EventLoop,
        topology: Topology,
        streams: RandomStreams,
        faults: FaultPlan | None = None,
        metrics: Any | None = None,
    ) -> None:
        self._loop = loop
        self._topology = topology
        self._rng = streams.stream("network")
        self.faults = faults if faults is not None else FaultPlan()
        self._sites: dict[Address, str] = {}
        self._receivers: dict[Address, Callable[[Address, Any, int], None]] = {}
        # Addresses whose receiver is currently a reboot/wipe sink: messages
        # still transit (and pay their sender-side costs) but nothing is
        # listening, so delivery must not be charged to the receiver.
        self._down: set[Address] = set()
        self.stats = NetworkStats()
        # Per-(src, dst) route cache: the one-way delay distribution's
        # (mean_ms, sigma_ms) and the interned (src_site, dst_site) link
        # key.  Sites are fixed at registration and the topology's RTT
        # matrix is immutable, so entries never invalidate; caching spares
        # the hot path two site lookups, a distribution construction, and
        # a fresh link tuple per message.
        self._routes: dict[tuple[Address, Address], tuple[float, float, tuple[str, str]]] = {}
        # type(message) -> interned __name__, shared by sent/received/
        # dropped accounting.
        self._type_names: dict[type, str] = {}
        # Per-node message counters (repro.obs.MetricsHub); the network is
        # the one chokepoint every message crosses, so counting here keeps
        # the replica hot path untouched.
        self.metrics = metrics

    @property
    def topology(self) -> Topology:
        return self._topology

    def register(
        self,
        address: Address,
        site: str,
        on_receive: Callable[[Address, Any, int], None],
    ) -> None:
        """Attach an endpoint.  ``on_receive(src, message, size)`` fires on
        delivery (the receiver is responsible for charging its own queue)."""
        if site not in self._topology.sites:
            raise SimulationError(f"site {site!r} not in topology {self._topology.sites!r}")
        if address in self._receivers:
            raise SimulationError(f"address {address!r} already registered")
        self._sites[address] = site
        self._receivers[address] = on_receive

    def replace_receiver(
        self,
        address: Address,
        on_receive: Callable[[Address, Any, int], None],
        down: bool = False,
    ) -> None:
        """Swap the delivery callback of an already-registered endpoint.

        Used by reboot/wipe fault injection: while a node is down its
        address stays routable (peers keep sending; delays and fault rules
        still apply) but deliveries land in a sink, and after restart the
        fresh replica instance takes over the address.  ``down=True`` marks
        the new callback as such a sink, so deliveries into it are not
        counted as received by the node.
        """
        if address not in self._receivers:
            raise SimulationError(f"address {address!r} not registered")
        self._receivers[address] = on_receive
        if down:
            self._down.add(address)
        else:
            self._down.discard(address)

    def site_of(self, address: Address) -> str:
        return self._sites[address]

    def _route(self, src: Address, dst: Address) -> tuple[float, float, tuple[str, str]]:
        route = self._routes.get((src, dst))
        if route is None:
            src_site = self._sites[src]
            dst_site = self._sites[dst]
            dist = self._topology.site_rtt(src_site, dst_site).one_way()
            route = (dist.mean_ms, dist.sigma_ms, (src_site, dst_site))
            self._routes[(src, dst)] = route
        return route

    def one_way_delay(self, src: Address, dst: Address) -> float:
        """Sample a one-way transit delay in **seconds**."""
        mean_ms, sigma_ms, _link = self._route(src, dst)
        delay_ms = truncated_normal(self._rng, mean_ms, sigma_ms, floor=0.0)
        return delay_ms / 1e3

    def _type_name(self, message: Any) -> str:
        cls = type(message)
        name = self._type_names.get(cls)
        if name is None:
            name = self._type_names[cls] = cls.__name__
        return name

    def transit_all(
        self, src: Address, targets: list, message: Any, size_bytes: int
    ) -> None:
        """Carry one broadcast to every target: ``transit`` per target, in order."""
        for dst in targets:
            self.transit(src, dst, message, size_bytes)

    def transit(self, src: Address, dst: Address, message: Any, size_bytes: int) -> None:
        """Carry ``message`` from ``src`` to ``dst``, applying faults."""
        try:
            receiver = self._receivers[dst]
        except KeyError:
            raise SimulationError(f"unknown destination {dst!r}") from None
        # Delay is sampled before fault matching so a dropped message still
        # consumes exactly one delay draw — keeping the RNG stream, and
        # therefore every later sample in the run, identical with and
        # without the early-out below.
        rng = self._rng
        try:
            mean_ms, sigma_ms, link = self._routes[(src, dst)]
        except KeyError:
            mean_ms, sigma_ms, link = self._route(src, dst)
        delay_ms = rng.gauss(mean_ms, sigma_ms)
        if delay_ms <= 0.0:
            delay_ms = resample_above(rng, mean_ms, sigma_ms, 0.0)
        delay = delay_ms / 1e3
        loop = self._loop
        now = loop.now
        faults = self.faults
        if faults._window_start <= now < faults._window_end:
            for rule in faults._rules:
                if not rule.matches(now, src, dst):
                    continue
                kind = rule.kind
                if kind == "drop" or kind == "partition":
                    self.stats.messages_dropped += 1
                    if self.metrics is not None:
                        self.metrics.on_dropped(src, self._type_name(message), size_bytes)
                    return
                if kind == "flaky":
                    if rng.random() < rule.probability:
                        self.stats.messages_dropped += 1
                        if self.metrics is not None:
                            self.metrics.on_dropped(src, self._type_name(message), size_bytes)
                        return
                else:  # slow
                    extra = rng.gauss(rule.extra_delay_mean, rule.extra_delay_sigma)
                    if extra <= 0.0:
                        extra = resample_above(
                            rng, rule.extra_delay_mean, rule.extra_delay_sigma, 0.0
                        )
                    delay += abs(extra)
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent += size_bytes
        stats.per_link[link] += 1
        try:
            type_name = self._type_names[type(message)]
        except KeyError:
            type_name = self._type_name(message)
        metrics = self.metrics
        if metrics is not None:
            metrics.on_sent(src, type_name, size_bytes)
        loop.call_at(
            now + delay,
            self._deliver,
            receiver,
            src,
            dst,
            message,
            size_bytes,
            type_name,
        )

    def _deliver(
        self,
        receiver: Callable[[Address, Any, int], None],
        src: Address,
        dst: Address,
        message: Any,
        size_bytes: int,
        type_name: str,
    ) -> None:
        """Hand a message to its (send-time) receiver callback.

        The receive counter is charged here — at delivery time — and only
        when the destination is not currently a reboot/wipe sink, so
        messages that vanish into a down node never count as received.
        """
        if self.metrics is not None and dst not in self._down:
            self.metrics.on_received(dst, type_name, size_bytes)
        receiver(src, message, size_bytes)
