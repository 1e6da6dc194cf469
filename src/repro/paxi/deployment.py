"""Deployment: wires a protocol onto a simulated cluster.

A :class:`Deployment` owns the :class:`~repro.sim.cluster.Cluster`, builds
one replica per configured node via a protocol factory, creates clients, and
collects the global operation history for the checkers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable

from repro.errors import ConfigError, SimulationError
from repro.paxi.config import Config
from repro.paxi.history import HistoryRecorder
from repro.paxi.ids import NodeID
from repro.sim.clock import EventLoop, NodeClock
from repro.sim.cluster import Cluster
from repro.sim.network import FaultPlan
from repro.sim.server import Server
from repro.sim.storage import Disk, DiskProfile

if TYPE_CHECKING:
    from repro.paxi.client import Client
    from repro.paxi.node import Replica
    from repro.paxi.session import Session, SessionOptions

ReplicaFactory = Callable[["Deployment", NodeID], "Replica"]


def _down_sink(src: Hashable, message: object, size_bytes: int) -> None:
    """Receiver installed while a node is down: deliveries vanish."""


class Deployment:
    """A running (simulated) cluster of protocol replicas plus clients."""

    def __init__(
        self,
        config: Config,
        faults: FaultPlan | None = None,
        loop: "EventLoop | None" = None,
    ) -> None:
        self.config = config
        self.cluster = Cluster(
            config.topology,
            seed=config.seed,
            profile=config.profile,
            faults=faults,
            loop=loop,
        )
        self.history = HistoryRecorder()
        #: One append-only version chain per key for the whole group: each
        #: replica's store holds a prefix of it (or forks off it when its
        #: state machine diverges), see :mod:`repro.paxi.kvstore`.
        self.book: dict[Hashable, list] = {}
        self.replicas: dict[NodeID, "Replica"] = {}
        self.clients: list["Client"] = []
        #: Open-loop workload engines driving this deployment register here
        #: so rate-affecting faults find them: a Nemesis ``"burst"`` event
        #: calls ``apply_burst(at, duration, multiplier)`` on each entry
        #: (no-op when empty, e.g. under closed-loop load).
        self.rate_controllers: list = []
        self._client_seq = 0
        self._pending_attach: NodeID | None = None
        self._factory: ReplicaFactory | None = None
        # Disks survive replica restarts, so they live here, not on the
        # replica.  Keyed lazily: empty unless the config is durable.
        self._disks: dict[NodeID, Disk] = {}
        # Per-node wall clocks (lease machinery reads these): skew applied
        # to a node must survive its restarts, so clocks also live here.
        self._clocks: dict[NodeID, NodeClock] = {}
        self._down: dict[NodeID, str] = {}  # node -> "reboot" | "wipe" while down
        self._restart_reason: dict[NodeID, str] = {}  # visible during rebuild
        # Per-key version chains migrated INTO this group by a shard
        # rebalance (repro.shard).  Kept here so replicas rebuilt after a
        # reboot/wipe re-adopt them before replaying their own log: the
        # migrated prefix predates every local log entry for those keys.
        self._seeded_chains: dict[Hashable, list] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def start(self, factory: ReplicaFactory) -> "Deployment":
        """Instantiate one replica per configured node."""
        if self.replicas:
            raise SimulationError("deployment already started")
        self._factory = factory
        for node_id in self.config.node_ids:
            replica = factory(self, node_id)
            if node_id not in self.replicas:
                raise SimulationError(
                    f"factory for {node_id} did not attach its replica"
                )
            if self.replicas[node_id] is not replica:
                raise SimulationError(f"replica mismatch at {node_id}")
        return self

    def attach_replica(self, replica: "Replica") -> Server:
        """Called from ``Replica.__init__``: create the machine and register
        the replica as its network endpoint.

        After a reboot/wipe the machine already exists — the fresh replica
        instance takes over the existing server and network address.
        """
        node_id = replica.id
        if node_id not in self.config.node_ids:
            raise ConfigError(f"{node_id} is not in the configuration")
        if node_id in self.replicas:
            raise SimulationError(f"replica {node_id} already attached")
        self.replicas[node_id] = replica
        for key, values in self._seeded_chains.items():
            replica.store.adopt(key, values)
        site = self.config.site_of(node_id)
        if node_id in self.cluster.servers:
            self.cluster.replace_receiver(node_id, replica.on_network_receive)
            return self.cluster.server(node_id)
        return self.cluster.add_server(node_id, site, replica.on_network_receive)

    def seed_chain(self, key: Hashable, values: list) -> None:
        """Adopt ``key``'s committed version chain into every replica of
        this group (and into replicas rebuilt later).

        This is the receiving half of a shard rebalance: the chain was
        decided by another consensus group, so it arrives as state, not as
        log entries — exactly like WanKeeper token transfer / Vertical
        Paxos reassignment splice migrated history via ``store.adopt``.
        """
        self._seeded_chains[key] = list(values)
        for replica in self.replicas.values():
            replica.store.adopt(key, values)

    def disk_for(self, node_id: NodeID) -> Disk | None:
        """The node's durable disk (created on first use), or None for
        in-memory deployments."""
        if not self.config.durable:
            return None
        disk = self._disks.get(node_id)
        if disk is None:
            disk = Disk(self.config.disk_profile)
            self._disks[node_id] = disk
        return disk

    def clock_for(self, node_id: NodeID) -> NodeClock:
        """The node's local wall clock (created on first use).  Like disks,
        clocks outlive replica restarts: a skewed clock stays skewed across
        a reboot."""
        clock = self._clocks.get(node_id)
        if clock is None:
            clock = NodeClock(self.cluster.loop)
            self._clocks[node_id] = clock
        return clock

    def restart_context(self, node_id: NodeID) -> str | None:
        """Why a replica is being rebuilt right now: ``"reboot"``,
        ``"wipe"``, or None for the initial construction."""
        return self._restart_reason.get(node_id)

    def new_client(self, site: str | None = None, zone: int | None = None) -> "Client":
        """Create a client co-located with the replicas of ``site``/``zone``.

        With neither given, clients round-robin across sites, mirroring the
        paper's benchmarker spreading load over regions.
        """
        from repro.paxi.client import Client

        if site is None and zone is not None:
            site = self.config.zone_site(zone)
        if site is None:
            sites = self.config.topology.sites
            site = sites[self._client_seq % len(sites)]
        if site not in self.config.topology.sites:
            raise ConfigError(f"unknown client site {site!r}")
        self._client_seq += 1
        client = Client(self, ("client", self._client_seq), site)
        self.clients.append(client)
        return client

    def new_session(
        self,
        options: "SessionOptions | None" = None,
        site: str | None = None,
        zone: int | None = None,
        max_wait: float | None = None,
        consistency: str | None = None,
    ) -> "Session":
        """Create a typed :class:`~repro.paxi.session.Session` facade.

        Sessions are the only supported way to issue individual commands:
        ``session.put(k, v)`` returns a :class:`~repro.paxi.session.Result`
        carrying the value, latency, and replying replica, and
        ``session.txn(...)`` runs a multi-key transaction.  Configure via a
        :class:`~repro.paxi.session.SessionOptions` (or the keyword
        shorthands, which build one) — e.g. ``consistency`` sets the
        session's default read path (``"lease"``, ``"quorum"``, ``"local"``,
        or ``None`` for the leader round; see ``docs/READS.md``).
        """
        from repro.paxi.session import Session

        return Session(
            self,
            options,
            site=site,
            zone=zone,
            max_wait=max_wait,
            consistency=consistency,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def replica(self, node_id: NodeID) -> "Replica":
        return self.replicas[node_id]

    def nearest_nodes(self, site: str) -> list[NodeID]:
        """Replica IDs sorted nearest-first from ``site``."""
        topo = self.config.topology
        return sorted(
            self.config.node_ids,
            key=lambda nid: (topo.site_rtt_mean_ms(site, self.config.site_of(nid)), nid),
        )

    # ------------------------------------------------------------------
    # Execution and fault injection passthroughs
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.cluster.now

    def run_for(self, seconds: float) -> None:
        self.cluster.run_for(seconds)

    def run_until(self, deadline: float) -> None:
        self.cluster.run_until(deadline)

    def drain(self, max_events: int | None = None) -> None:
        self.cluster.drain(max_events)

    def verify(self) -> tuple[bool, bool]:
        """Run the paper's two correctness checkers over this deployment.

        Returns ``(linearizable, consensus_ok)`` — the Paxi benchmarker's
        "LinearizabilityCheck" option (Table 3) plus the consensus checker.
        """
        from repro.checkers.consensus import check_deployment
        from repro.checkers.linearizability import check_history

        return (
            check_history(self.history.snapshot()).ok,
            check_deployment(self).ok,
        )

    def crash(
        self, node_id: NodeID, duration: float | None = None, at: float | None = None
    ) -> None:
        """Freeze ``node_id`` for ``duration`` seconds — the paper's
        ``Crash(t)``: volatile state survives, queued work resumes on thaw.
        ``duration=None`` is a permanent crash-stop."""
        self.cluster.crash(node_id, duration, at)

    def reboot(
        self, node_id: NodeID, downtime: float = 0.05, at: float | None = None
    ) -> None:
        """Power-cycle ``node_id``: volatile state (log, quorum tallies,
        timers, queued work, unsynced WAL records) is lost; disk contents
        survive.  After ``downtime`` seconds a fresh replica instance is
        built via the protocol factory and recovers from its WAL."""
        self._schedule_outage(node_id, "reboot", downtime, at)

    def wipe(
        self, node_id: NodeID, downtime: float = 0.05, at: float | None = None
    ) -> None:
        """Like :meth:`reboot`, but the disk is destroyed too: the node
        restarts empty and must rejoin via snapshot state transfer."""
        self._schedule_outage(node_id, "wipe", downtime, at)

    def _schedule_outage(
        self, node_id: NodeID, mode: str, downtime: float, at: float | None
    ) -> None:
        if node_id not in self.config.node_ids:
            raise ConfigError(f"{node_id} is not in the configuration")
        if downtime < 0:
            raise SimulationError(f"negative downtime {downtime!r}")
        when = self.now if at is None else at
        self.cluster.loop.call_at(when, self._take_down, node_id, mode, downtime)

    def _take_down(self, node_id: NodeID, mode: str, downtime: float) -> None:
        if node_id in self._down:
            # Already down; a wipe arriving during a reboot still destroys
            # the disk, otherwise overlapping outages are a no-op.
            if mode == "wipe":
                self._down[node_id] = "wipe"
                disk = self._disks.get(node_id)
                if disk is not None:
                    disk.wipe()
            return
        replica = self.replicas.pop(node_id, None)
        if replica is None:
            return
        self._down[node_id] = mode
        replica.halt()
        self.cluster.server(node_id).power_off()
        self.cluster.replace_receiver(node_id, _down_sink, down=True)
        disk = self._disks.get(node_id)
        if disk is not None and mode == "wipe":
            disk.wipe()
        self.cluster.loop.call_after(downtime, self._bring_up, node_id)

    def _bring_up(self, node_id: NodeID) -> None:
        mode = self._down.pop(node_id, None)
        if mode is None:
            return
        if self._factory is None:
            raise SimulationError("cannot restart a replica before start()")
        self.cluster.server(node_id).power_on()
        self._restart_reason[node_id] = mode
        try:
            # The factory re-runs Replica.__init__, which re-attaches the
            # replica to the existing server/address and (via the
            # protocol's recovery path) replays its WAL or starts catch-up.
            self._factory(self, node_id)
        finally:
            self._restart_reason.pop(node_id, None)

    def fail_slow(
        self,
        node_id: NodeID,
        duration: float,
        cpu_factor: float = 1.0,
        disk_profile: DiskProfile | None = None,
        nic_loss: float = 0.0,
        nic_jitter: float = 0.0,
        at: float | None = None,
    ) -> None:
        """Degrade ``node_id`` without taking it down — the *gray failure*
        crash-stop testing never exercises.  The node keeps serving (and
        heartbeating), just badly, for ``duration`` seconds:

        - ``cpu_factor`` multiplies the service cost of every job on the
          node's CPU+NIC queue (a straggling core, a noisy neighbor);
        - ``disk_profile`` temporarily replaces the node's disk profile (a
          degraded volume: fsync latency spikes, bandwidth collapse) —
          ignored for in-memory deployments;
        - ``nic_loss`` drops each packet to/from the node with the given
          probability; ``nic_jitter`` adds a lognormal-ish extra delay of
          that mean to every surviving packet (a flapping NIC).

        Not an outage: the node never counts against quorum bookkeeping,
        which is exactly what makes fail-slow nodes hard — every fixed
        timeout keeps being fed just in time.
        """
        if node_id not in self.config.node_ids:
            raise ConfigError(f"{node_id} is not in the configuration")
        if duration <= 0:
            raise SimulationError(f"fail_slow needs a positive duration, got {duration!r}")
        if cpu_factor <= 0:
            raise SimulationError(f"cpu_factor must be positive, got {cpu_factor!r}")
        if not 0.0 <= nic_loss < 1.0:
            raise SimulationError(f"nic_loss must be in [0, 1), got {nic_loss!r}")
        start = self.now if at is None else at
        loop = self.cluster.loop
        if cpu_factor != 1.0:
            server = self.cluster.server(node_id)
            loop.call_at(start, server.set_slow_factor, cpu_factor)
            loop.call_at(start + duration, server.set_slow_factor, 1.0)
        if disk_profile is not None and self.config.durable:
            loop.call_at(start, self._swap_disk_profile, node_id, disk_profile)
            loop.call_at(
                start + duration,
                self._swap_disk_profile,
                node_id,
                self.config.disk_profile,
            )
        if nic_loss > 0.0:
            self.cluster.flaky(node_id, None, duration, nic_loss, at=start)
            self.cluster.flaky(None, node_id, duration, nic_loss, at=start)
        if nic_jitter > 0.0:
            for src, dst in ((node_id, None), (None, node_id)):
                self.cluster.faults.slow(
                    src, dst, start, duration, nic_jitter, nic_jitter / 4.0
                )

    def _swap_disk_profile(self, node_id: NodeID, profile: DiskProfile) -> None:
        disk = self.disk_for(node_id)
        if disk is not None:
            disk.profile = profile

    def partial_partition(
        self,
        victim: NodeID,
        sources,
        duration: float,
        at: float | None = None,
    ) -> None:
        """Asymmetric (one-way) link failure: traffic from every address in
        ``sources`` to ``victim`` is dropped; ``victim``'s own outbound
        traffic still flows.  This is the classic gray-failure network
        fault — the victim believes the cluster is healthy (its sends
        succeed) while part of the cluster can no longer reach it.
        """
        if victim not in self.config.node_ids:
            raise ConfigError(f"{victim} is not in the configuration")
        if duration <= 0:
            raise SimulationError(
                f"partial_partition needs a positive duration, got {duration!r}"
            )
        for src in sources:
            if src == victim:
                continue
            self.cluster.drop(src, victim, duration, at)

    def skew(self, node_id: NodeID, delta: float, at: float | None = None) -> None:
        """Jump ``node_id``'s local clock by ``delta`` seconds (may be
        negative).  Scheduling is unaffected — only lease timestamp
        comparisons observe the jump."""
        if node_id not in self.config.node_ids:
            raise ConfigError(f"{node_id} is not in the configuration")
        when = self.now if at is None else at
        self.cluster.loop.call_at(when, self.clock_for(node_id).skew, delta)

    def drop(self, src: Hashable, dst: Hashable, duration: float, at: float | None = None) -> None:
        self.cluster.drop(src, dst, duration, at)

    def slow(self, src: Hashable, dst: Hashable, duration: float, at: float | None = None) -> None:
        self.cluster.slow(src, dst, duration, at)

    def flaky(
        self,
        src: Hashable,
        dst: Hashable,
        duration: float,
        probability: float = 0.5,
        at: float | None = None,
    ) -> None:
        self.cluster.flaky(src, dst, duration, probability, at)
