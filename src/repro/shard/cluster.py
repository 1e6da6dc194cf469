"""The sharded multi-group runtime: N deployments, one key space.

A :class:`ShardedCluster` instantiates one full
:class:`~repro.paxi.deployment.Deployment` per shard — each an independent
consensus group with its own replicas, network, and seeded randomness
(``Config.for_shard`` derives the per-group config, spreading initial
leaders across node positions) — while every group schedules on **one
shared event loop**, so all groups advance on a single virtual-time axis
and the merged operation history carries globally comparable timestamps.

Commands route through a pluggable key→shard placement map
(:mod:`repro.shard.placement`); clients and sessions created here are
routing facades that lazily open one real per-group client per shard they
touch.  Cross-shard multi-key transactions are layered on top by
:mod:`repro.shard.txn`; bucket rebalancing migrates a hash slot between
groups at runtime (freeze → drain → copy chains → flip placement →
flush), mirroring slot migration in production hash-sharded stores.

See ``docs/SHARDING.md`` for the full architecture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Hashable

from repro.errors import ConfigError, PlacementError
from repro.paxi.deployment import Deployment, ReplicaFactory
from repro.paxi.history import HistoryView
from repro.paxi.message import Command
from repro.sim.clock import EventLoop
from repro.shard.placement import HashPlacement, ShardSpec
from repro.shard.txn import recover_transactions

if TYPE_CHECKING:
    from repro.paxi.client import Client
    from repro.paxi.ids import NodeID
    from repro.paxi.session import SessionOptions
    from repro.shard.session import ShardedSession


class _RoutedClient:
    """A `Client`-shaped facade that routes each command to its key's shard.

    Sessions and the benchmarker treat it exactly like a
    :class:`~repro.paxi.client.Client` — ``invoke`` / ``attempts`` /
    ``abandoned`` / ``completed`` / ``failed`` — while underneath it lazily
    opens one real per-group client (co-located at the same site) per shard
    it touches.  With one shard it degenerates to a passthrough around a
    single group client.
    """

    def __init__(self, cluster: "ShardedCluster", site: str, zone: int | None) -> None:
        self.cluster = cluster
        self.site = site
        self._zone = zone
        self.address = ("shard-client", next(cluster._client_ids))
        self._per_shard: dict[int, "Client"] = {}
        # Requests in flight, retried or failed (the rule ``Client`` keeps);
        # one neither here nor deferred succeeded at once: 1 / False / None.
        self._issued: dict[int, tuple["Client", int]] = {}
        self._next_request_id = 0
        self._retry_timeout: float | None = None
        self._max_attempts: int | None = None

    # Retry knobs: the benchmarker/session set them once; forward to every
    # per-shard client, including ones opened later.
    @property
    def retry_timeout(self) -> float | None:
        return self._retry_timeout

    @retry_timeout.setter
    def retry_timeout(self, value: float | None) -> None:
        self._retry_timeout = value
        for client in self._per_shard.values():
            client.retry_timeout = value

    @property
    def max_attempts(self) -> int | None:
        return self._max_attempts

    @max_attempts.setter
    def max_attempts(self, value: int | None) -> None:
        self._max_attempts = value
        for client in self._per_shard.values():
            client.max_attempts = value

    def client_for_shard(self, shard: int) -> "Client":
        client = self._per_shard.get(shard)
        if client is None:
            client = self.cluster.group(shard).new_client(site=self.site)
            client.retry_timeout = self._retry_timeout
            client.max_attempts = self._max_attempts
            self._per_shard[shard] = client
        return client

    def invoke(
        self,
        command: Command,
        target: "NodeID | None" = None,
        on_done=None,
        record: bool = True,
        on_fail=None,
        deadline: float | None = None,
    ) -> int:
        self._next_request_id += 1
        request_id = self._next_request_id
        self.cluster._route_invoke(
            self, request_id, command, target, on_done, record, on_fail, deadline
        )
        return request_id

    def _replied(self, request_id: int, client: "Client", underlying: int) -> None:
        if client.attempts(underlying) == 1:  # the defaults: forget it
            self._issued.pop(request_id, None)

    def attempts(self, request_id: int) -> int:
        issued = self._issued.get(request_id)
        if issued is None:
            return 1  # deferred behind a migrating bucket, or forgotten
        client, underlying = issued
        return client.attempts(underlying)

    def abandoned(self, request_id: int) -> bool:
        issued = self._issued.get(request_id)
        if issued is None:
            return False
        client, underlying = issued
        return client.abandoned(underlying)

    def abandon(self, request_id: int) -> None:
        """Give up on ``request_id`` (see :meth:`Client.abandon`).  A request
        still deferred behind a migrating bucket was never transmitted; it
        is dropped so the flush after the flip does not issue it (a no-op
        for a forgotten one, which has concluded)."""
        issued = self._issued.get(request_id)
        if issued is None:
            self.cluster._drop_deferred(self, request_id)
            return
        client, underlying = issued
        client.abandon(underlying)

    def failure_reason(self, request_id: int) -> str | None:
        issued = self._issued.get(request_id)
        if issued is None:
            return None  # deferred behind a migrating bucket, or forgotten
        client, underlying = issued
        return client.failure_reason(underlying)

    @property
    def completed(self) -> int:
        return sum(c.completed for c in self._per_shard.values())

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self._per_shard.values())

    @property
    def outstanding(self) -> int:
        return sum(c.outstanding for c in self._per_shard.values())

    # Fault-command passthroughs (the Session facade calls these through
    # ``deployment.crash`` etc., which ShardedCluster also provides).

    def shards_touched(self) -> list[int]:
        return sorted(self._per_shard)


class _MergedHistory:
    """Read-only union of the per-group operation histories.

    All groups share one event loop, so ``invoked_at`` / ``returned_at``
    are globally comparable and the merged history is a sound input for
    the (per-key) linearizability checker: every key's operations all come
    from whichever group(s) owned it.  The views are the groups' views one
    after another, in group order; no row is copied or sorted.
    """

    def __init__(self, cluster: "ShardedCluster") -> None:
        self._cluster = cluster

    def _recorders(self):
        return [group.history for group in self._cluster.groups]

    @property
    def operations(self) -> HistoryView:
        return HistoryView.concat(recorder.operations for recorder in self._recorders())

    def snapshot(self) -> HistoryView:
        return HistoryView.concat(recorder.snapshot() for recorder in self._recorders())

    @property
    def in_flight(self) -> int:
        return sum(r.in_flight for r in self._recorders())

    def __len__(self) -> int:
        return sum(len(r) for r in self._recorders())


@dataclass
class _Migration:
    """One in-flight bucket rebalance."""

    bucket: int
    src: int
    dst: int
    started_at: float
    deferred: list[tuple] = field(default_factory=list)
    deadline_handle: Any = None
    forced: bool = False


@dataclass(frozen=True)
class RebalanceRecord:
    """A completed bucket move, for tests and traces."""

    bucket: int
    src: int
    dst: int
    started_at: float
    finished_at: float
    keys_moved: int
    deferred_ops: int
    forced: bool


class ShardedCluster:
    """N consensus groups behind one routed key space."""

    def __init__(self, config, spec: ShardSpec | None = None) -> None:
        if spec is not None:
            config = replace(config, shards=spec)
        self.spec = config.shards if config.shards is not None else ShardSpec()
        if config.shards is None:
            config = replace(config, shards=self.spec)
        self.config = config
        self.placement = self.spec.build()
        self.loop = EventLoop()
        self.groups = [
            Deployment(config.for_shard(index), loop=self.loop)
            for index in range(self.spec.count)
        ]
        self._client_ids = itertools.count(1)
        self._client_seq = 0
        self._txn_ids = itertools.count(1)
        #: Coordinator write-ahead logs: txn_id -> list of records.  Owned
        #: here (not by any one group) because the coordinator is a client
        #: and its durable log must survive the coordinator's crash.
        self.txn_wal: dict[str, list[tuple]] = {}
        self._migrations: dict[int, _Migration] = {}
        self._inflight: dict[int, set[tuple["Client", int]]] = {}
        # Only hash-style placements can rebalance, and a single group has
        # nowhere to move a bucket — skip in-flight tracking entirely then
        # (keeps the one-shard fast path identical to a plain deployment).
        self._track = self.spec.count > 1 and isinstance(self.placement, HashPlacement)
        self.rebalances: list[RebalanceRecord] = []

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------

    def start(self, factory: ReplicaFactory) -> "ShardedCluster":
        for group in self.groups:
            group.start(factory)
        return self

    @property
    def shard_count(self) -> int:
        return self.spec.count

    def group(self, shard: int) -> Deployment:
        if not 0 <= shard < len(self.groups):
            raise PlacementError(
                f"unknown shard {shard}; this cluster has shards "
                f"0..{len(self.groups) - 1}"
            )
        return self.groups[shard]

    def shard_of(self, key: Hashable) -> int:
        return self.placement.shard_of(key)

    #: The benchmarker reaches ``deployment.cluster`` for the loop, seeded
    #: streams, and observability; group 0 is the representative (the loop
    #: is shared with every other group anyway).
    @property
    def cluster(self):
        return self.groups[0].cluster

    @property
    def history(self) -> _MergedHistory:
        return _MergedHistory(self)

    # ------------------------------------------------------------------
    # Clients and sessions
    # ------------------------------------------------------------------

    def new_client(self, site: str | None = None, zone: int | None = None) -> _RoutedClient:
        """A routing client facade (see :class:`_RoutedClient`)."""
        if site is None and zone is not None:
            site = self.config.zone_site(zone)
        if site is None:
            sites = self.config.topology.sites
            site = sites[self._client_seq % len(sites)]
        if site not in self.config.topology.sites:
            raise ConfigError(f"unknown client site {site!r}")
        self._client_seq += 1
        return _RoutedClient(self, site, zone)

    def new_session(
        self,
        options: "SessionOptions | None" = None,
        site: str | None = None,
        zone: int | None = None,
        max_wait: float | None = None,
        consistency: str | None = None,
    ) -> "ShardedSession":
        from repro.shard.session import ShardedSession

        return ShardedSession(
            self,
            options,
            site=site,
            zone=zone,
            max_wait=max_wait,
            consistency=consistency,
        )

    def next_txn_id(self) -> str:
        txn_id = f"txn-{next(self._txn_ids)}"
        self.txn_wal[txn_id] = []
        return txn_id

    # ------------------------------------------------------------------
    # Routing (with migration freeze/defer)
    # ------------------------------------------------------------------

    def _route_invoke(
        self, rc, request_id, command, target, on_done, record,
        on_fail=None, deadline=None,
    ) -> None:
        if self._migrations:
            migration = self._migrations.get(self.placement.bucket_of(command.key))
            if migration is not None:
                # The key's bucket is mid-move: admit nothing new until the
                # flip, then replay in arrival order.  Costs latency, never
                # correctness.
                migration.deferred.append(
                    (rc, request_id, command, target, on_done, record, on_fail, deadline)
                )
                return
        self._issue(rc, request_id, command, target, on_done, record, on_fail, deadline)

    def _drop_deferred(self, rc, request_id) -> None:
        for migration in self._migrations.values():
            migration.deferred[:] = [
                d for d in migration.deferred if (d[0], d[1]) != (rc, request_id)
            ]

    def _issue(
        self, rc, request_id, command, target, on_done, record,
        on_fail=None, deadline=None,
    ) -> None:
        shard = self.placement.shard_of(command.key)
        client = rc.client_for_shard(shard)
        if not self._track:
            def replied(reply, latency):
                rc._replied(request_id, client, reply.request_id)
                if on_done is not None:
                    on_done(reply, latency)

            underlying = client.invoke(
                command, target, replied, record, on_fail=on_fail, deadline=deadline
            )
            rc._issued[request_id] = (client, underlying)
            return
        bucket = self.placement.bucket_of(command.key)
        entry: list = [client, None]

        def done(reply, latency):
            self._inflight.get(bucket, set()).discard((entry[0], entry[1]))
            rc._replied(request_id, client, reply.request_id)
            if on_done is not None:
                on_done(reply, latency)
            migration = self._migrations.get(bucket)
            if migration is not None and not self._inflight.get(bucket):
                self._finish_rebalance(bucket)

        def failed(reason, latency):
            self._inflight.get(bucket, set()).discard((entry[0], entry[1]))
            if on_fail is not None:
                on_fail(reason, latency)
            migration = self._migrations.get(bucket)
            if migration is not None and not self._inflight.get(bucket):
                self._finish_rebalance(bucket)

        underlying = client.invoke(
            command, target, done, record, on_fail=failed, deadline=deadline
        )
        entry[1] = underlying
        rc._issued[request_id] = (client, underlying)
        self._inflight.setdefault(bucket, set()).add((client, underlying))

    # ------------------------------------------------------------------
    # Bucket rebalancing
    # ------------------------------------------------------------------

    def rebalance(
        self,
        bucket: int,
        dst: int,
        at: float | None = None,
        drain_timeout: float = 0.25,
    ) -> None:
        """Move hash ``bucket`` (and every key in it) to shard ``dst``.

        Freeze → drain → copy → flip → flush: new operations for the
        bucket are deferred, in-flight ones get ``drain_timeout`` virtual
        seconds to finish (stragglers are abandoned — their open-interval
        history records keep the checker sound), then each key's longest
        committed chain is adopted into the destination group
        (``Deployment.seed_chain``), the placement map flips, and deferred
        operations replay in order against the new owner.
        """
        if not isinstance(self.placement, HashPlacement):
            raise PlacementError(
                f"{type(self.placement).__name__} cannot rebalance buckets; "
                "use hash or ownership placement"
            )
        if not 0 <= bucket < self.spec.buckets:
            raise PlacementError(
                f"bucket {bucket} out of range: the ring has {self.spec.buckets} buckets"
            )
        self.spec._check_shard(dst, f"rebalance of bucket {bucket}")
        when = self.now if at is None else at
        self.loop.call_at(when, self._begin_rebalance, bucket, dst, drain_timeout)

    def _begin_rebalance(self, bucket: int, dst: int, drain_timeout: float) -> None:
        if bucket in self._migrations:
            return  # already moving; a second request is a no-op
        src = self.placement.shard_of_bucket(bucket)
        if src == dst:
            return
        migration = _Migration(bucket, src, dst, started_at=self.now)
        self._migrations[bucket] = migration
        if not self._inflight.get(bucket):
            self._finish_rebalance(bucket)
            return
        migration.deadline_handle = self.loop.call_after(
            drain_timeout, self._force_rebalance, bucket
        )

    def _force_rebalance(self, bucket: int) -> None:
        migration = self._migrations.get(bucket)
        if migration is None:
            return
        migration.forced = True
        for client, underlying in list(self._inflight.get(bucket, ())):
            client.abandon(underlying)
        self._inflight[bucket] = set()
        self._finish_rebalance(bucket)

    def _finish_rebalance(self, bucket: int) -> None:
        migration = self._migrations.get(bucket)
        if migration is None:
            return
        if migration.deadline_handle is not None:
            migration.deadline_handle.cancel()
            migration.deadline_handle = None
        src_group = self.groups[migration.src]
        dst_group = self.groups[migration.dst]
        # Longest committed chain per key across the source replicas: the
        # chain a quorum decided is on every up-to-date replica; laggards
        # have prefixes, so "longest" is the decided history.
        chains: dict[Hashable, list] = {}
        for replica in src_group.replicas.values():
            for key in replica.store.keys():
                if self.placement.bucket_of(key) != bucket:
                    continue
                values = replica.store.history(key)
                if len(values) > len(chains.get(key, ())):
                    chains[key] = values
        for key, values in chains.items():
            dst_group.seed_chain(key, values)
        self.placement.move_bucket(bucket, migration.dst)
        del self._migrations[bucket]
        self.rebalances.append(
            RebalanceRecord(
                bucket=bucket,
                src=migration.src,
                dst=migration.dst,
                started_at=migration.started_at,
                finished_at=self.now,
                keys_moved=len(chains),
                deferred_ops=len(migration.deferred),
                forced=migration.forced,
            )
        )
        for deferred in migration.deferred:
            self._route_invoke(*deferred)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def recover_txns(self, max_wait: float = 5.0) -> list[tuple[str, str]]:
        """Finish orphaned transactions after a coordinator crash (see
        :func:`repro.shard.txn.recover_transactions`)."""
        recovery_client = self.new_client()

        def issue(command, cb, record=True):
            return recovery_client.invoke(command, on_done=cb, record=record)

        return recover_transactions(
            self.txn_wal, issue, self.run_for, lambda: self.now, max_wait=max_wait
        )

    # ------------------------------------------------------------------
    # Execution and verification
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.loop.now

    def run_for(self, seconds: float) -> None:
        self.loop.run_until(self.loop.now + seconds)

    def run_until(self, deadline: float) -> None:
        self.loop.run_until(deadline)

    def drain(self, max_events: int | None = None) -> None:
        self.loop.run(max_events)

    def verify(self) -> tuple[bool, bool]:
        """Linearizability over the merged history + per-group consensus.

        Transaction atomicity is checked separately:
        :func:`repro.checkers.txn.check_txn_atomicity`.
        """
        from repro.checkers.consensus import check_deployment
        from repro.checkers.linearizability import check_history

        linearizable = check_history(self.history.snapshot()).ok
        consensus_ok = all(check_deployment(group).ok for group in self.groups)
        return (linearizable, consensus_ok)

    # ------------------------------------------------------------------
    # Fault injection: Session passthroughs address shard 0 by default;
    # the shard Nemesis targets groups directly via ``group(i)``.
    # ------------------------------------------------------------------

    def crash(self, node, duration=None, at=None, shard: int = 0) -> None:
        self.group(shard).crash(node, duration, at)

    def reboot(self, node, downtime: float = 0.05, at=None, shard: int = 0) -> None:
        self.group(shard).reboot(node, downtime, at)

    def wipe(self, node, downtime: float = 0.05, at=None, shard: int = 0) -> None:
        self.group(shard).wipe(node, downtime, at)

    def drop(self, src, dst, duration, at=None, shard: int = 0) -> None:
        self.group(shard).drop(src, dst, duration, at)

    def slow(self, src, dst, duration, at=None, shard: int = 0) -> None:
        self.group(shard).slow(src, dst, duration, at)

    def flaky(self, src, dst, duration, probability: float = 0.5, at=None, shard: int = 0) -> None:
        self.group(shard).flaky(src, dst, duration, probability, at)
