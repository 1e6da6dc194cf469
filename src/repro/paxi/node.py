"""Replica runtime: event-handler registration and message passing.

Paxi deliberately avoids blocking primitives: every protocol is a set of
event handlers over a ``Send / Broadcast / Multicast`` message-passing
interface (paper section 4.1, "Networking").  :class:`Replica` provides that
interface on top of the simulated machine and network:

- every received message is charged ``t_in`` (scaled by the message type's
  ``WEIGHT``) plus NIC time on the replica's single CPU+NIC queue before its
  handler runs;
- every send is charged ``t_out`` plus NIC time; a broadcast pays ``t_out``
  once and NIC time per copy, matching the paper's accounting.

Protocol implementations subclass :class:`Replica`, call :meth:`register`
for each of their message dataclasses, and use ``send`` / ``broadcast`` /
``set_timer`` — nothing else.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

from repro.errors import ProtocolError
from repro.paxi.ids import NodeID
from repro.paxi.kvstore import MultiVersionStore
from repro.paxi.message import Batch, ClientReply, ClientRequest, Rejected
from repro.sim.clock import EventHandle
from repro.sim.storage import WAL_RECORD_BYTES, Snapshot, WalRecord, WalWriter

if TYPE_CHECKING:
    from repro.paxi.deployment import Deployment


class _ClassTraits(dict):
    """Per-message-class traits: ``(WEIGHT, SIZE_BYTES, has wire_size())``.
    All three are class-level declarations on the message dataclasses, so
    they are resolved once per class (on the first miss) instead of via
    getattr on every message."""

    def __missing__(self, cls: type) -> tuple[float, int, bool]:
        traits = self[cls] = (
            getattr(cls, "WEIGHT", 1.0),
            getattr(cls, "SIZE_BYTES", 100),
            callable(getattr(cls, "wire_size", None)),
        )
        return traits


_CLASS_TRAITS = _ClassTraits()


#: One int object per distinct batched-record size (above the small-int
#: cache), so the records of one size share it instead of holding an int
#: each.  Bounded by the number of distinct batch lengths.
_RECORD_SIZES: dict[int, int] = {}


def wal_record_bytes(command: Any) -> int:
    """WAL record size for a log entry carrying ``command``.

    Batched entries write every command's payload, so their records grow
    with the batch — this is what lets group commit amortize one fsync
    over a whole batch without under-charging disk bandwidth.
    """
    if isinstance(command, Batch):
        size = WAL_RECORD_BYTES + command.extra_bytes()
        return _RECORD_SIZES.setdefault(size, size)
    return WAL_RECORD_BYTES


class Batcher:
    """Coalesces pending client requests into multi-command proposals.

    A replica (usually the leader) feeds every admitted :class:`ClientRequest`
    through :meth:`add`.  The batcher flushes — invoking ``flush_fn`` with the
    buffered requests — as soon as ``max_size`` requests have accumulated, or
    when ``window`` seconds of virtual time elapse after the first request of
    the batch, whichever comes first.  A ``window`` of zero still coalesces
    same-instant arrivals: the flush timer fires after the current event
    cascade drains, so a burst delivered at one timestamp forms one batch.

    The batcher never reorders: requests leave in arrival order, and the
    protocol replicates each flushed group as a single log entry (a
    :class:`~repro.paxi.message.Batch`), fanning replies out per command at
    execution.
    """

    def __init__(
        self,
        replica: "Replica",
        flush_fn: Callable[[list[ClientRequest]], None],
        window: float,
        max_size: int,
    ) -> None:
        if window < 0:
            raise ProtocolError(f"batch window must be >= 0, got {window!r}")
        if max_size < 1:
            raise ProtocolError(f"batch max_size must be >= 1, got {max_size!r}")
        self.replica = replica
        self._flush_fn = flush_fn
        self.window = window
        self.max_size = max_size
        self._pending: list[ClientRequest] = []
        self._timer: EventHandle | None = None
        self.batches_flushed = 0
        self.commands_flushed = 0

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def mean_batch_size(self) -> float:
        """Average commands per flushed batch (0.0 before the first flush)."""
        if self.batches_flushed == 0:
            return 0.0
        return self.commands_flushed / self.batches_flushed

    def add(self, request: ClientRequest) -> None:
        """Buffer ``request``; flush if the batch is full, else arm the window."""
        self._pending.append(request)
        if len(self._pending) >= self.max_size:
            self.flush()
        elif self._timer is None:
            self._timer = self.replica.set_timer(self.window, self._on_window)

    def _on_window(self) -> None:
        self._timer = None
        self.flush()

    def flush(self) -> None:
        """Emit the pending batch (if any) through ``flush_fn`` now."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        group, self._pending = self._pending, []
        self.batches_flushed += 1
        self.commands_flushed += len(group)
        self._flush_fn(group)

    def drain(self) -> list[ClientRequest]:
        """Return pending requests without flushing (leadership handoff)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        group, self._pending = self._pending, []
        return group


class _AdmissionState:
    """Per-replica admission-control bookkeeping (exists only when the
    config enables a gate, so the default ingress path stays untouched)."""

    __slots__ = ("queue_limit", "max_inflight", "policy", "inflight", "shed", "shed_by_reason")

    def __init__(self, queue_limit: int | None, max_inflight: int | None, policy: str) -> None:
        self.queue_limit = queue_limit
        self.max_inflight = max_inflight
        self.policy = policy
        #: Admitted-but-unanswered client requests: (client, request_id) ->
        #: deadline (inf when the request carries none).  Entries clear when
        #: the reply (or a forward to another replica) leaves this node, or
        #: lazily once their deadline passes.
        self.inflight: dict[tuple, float] = {}
        self.shed = 0
        self.shed_by_reason: dict[str, int] = {}


class Replica:
    """Base class for protocol replicas."""

    def __init__(self, deployment: "Deployment", node_id: NodeID) -> None:
        self.deployment = deployment
        self.id = node_id
        self.config = deployment.config
        self.store = MultiVersionStore(deployment.book)
        self._handlers: dict[type, Callable[[Hashable, Any], None]] = {}
        self._server = deployment.attach_replica(self)
        self.loop = deployment.cluster.loop
        #: This node's local wall clock (loop time + skew offset).  Lease
        #: validity is judged against this, never against ``loop.now``.
        self.clock = deployment.clock_for(node_id)
        self._network = deployment.cluster.network
        self._profile = deployment.config.profile
        self._tracer = deployment.cluster.obs.tracer
        self._halted = False
        # Durable storage (None when durability == "none"): the Disk lives
        # on the Deployment and survives restarts; the WalWriter is this
        # incarnation's volatile write path.
        self.disk = deployment.disk_for(node_id)
        self._wal_writer = (
            WalWriter(self._server, self.disk, self.config.durability)
            if self.disk is not None
            else None
        )
        self._snapshot_inflight = False
        # Admission control / load shedding: None unless the config sets a
        # gate, so the hot receive path pays one attribute test.
        self._admission = (
            _AdmissionState(
                self.config.queue_limit, self.config.max_inflight, self.config.shed_policy
            )
            if self.config.admission_enabled
            else None
        )
        # Priority lane (param priority_lanes=True): protocol-internal
        # messages drain before queued client requests, so a saturated
        # replica still answers heartbeats / Phase-1 / catch-up promptly
        # instead of starving them behind the data-plane backlog.
        self._priority_lanes = bool(self.config.param("priority_lanes"))
        #: Why this incarnation exists: None for a fresh start,
        #: "reboot" (disk intact) or "wipe" (disk lost) after a restart.
        self.restart_reason = deployment.restart_context(node_id)

    # ------------------------------------------------------------------
    # Identity and membership
    # ------------------------------------------------------------------

    @property
    def peers(self) -> list[NodeID]:
        """Every other replica in the deployment."""
        return [nid for nid in self.config.node_ids if nid != self.id]

    @property
    def site(self) -> str:
        return self.config.site_of(self.id)

    def zone_peers(self, zone: int | None = None) -> list[NodeID]:
        """Replicas in ``zone`` (default: this replica's zone), self excluded."""
        z = self.id.zone if zone is None else zone
        return [nid for nid in self.config.ids_in_zone(z) if nid != self.id]

    # ------------------------------------------------------------------
    # Handler registration and dispatch
    # ------------------------------------------------------------------

    def register(self, message_type: type, handler: Callable[[Hashable, Any], None]) -> None:
        """Route messages of exactly ``message_type`` to ``handler(src, msg)``."""
        if message_type in self._handlers:
            raise ProtocolError(
                f"{self.id}: handler for {message_type.__name__} already registered"
            )
        self._handlers[message_type] = handler

    def on_network_receive(self, src: Hashable, message: Any, size_bytes: int) -> None:
        """Entry point from the network: charge the queue, then dispatch."""
        if self._halted:
            return  # a dead incarnation's NIC: packets fall on the floor
        if self._admission is not None and type(message) is ClientRequest:
            if not self._admit(message):
                return
        weight = _CLASS_TRAITS[type(message)][0]
        # The receive cost (see ServiceProfile).
        profile = self._profile
        cost = profile.t_in * weight + size_bytes / profile.bandwidth_bps
        if self._priority_lanes and not isinstance(message, ClientRequest):
            # Everything that is not client ingress is the control plane
            # relative to admission: it was already paid for upstream, and
            # delaying it (heartbeats, votes, commits, catch-up) turns an
            # overloaded replica into a falsely-suspected one.
            self._server.submit_priority(cost, self._dispatch, src, message)
            return
        if self._tracer.enabled and type(message) is ClientRequest:
            span_key = (message.client, message.request_id)
            self._tracer.event(span_key, "server_enqueue", self.loop.now, self.id)
            self._server.submit(cost, self._dispatch_traced, src, message, span_key, cost)
            return
        self._server.submit(cost, self._dispatch, src, message)

    def _dispatch_traced(
        self, src: Hashable, message: Any, span_key: tuple, cost: float
    ) -> None:
        # The job just finished occupying the queue for ``cost`` seconds,
        # so wQ for this hop is handler.t - enqueue.t - cost.
        self._tracer.event(span_key, "handler", self.now, self.id, service=cost)
        self._dispatch(src, message)

    def _dispatch(self, src: Hashable, message: Any) -> None:
        try:
            handler = self._handlers[type(message)]
        except KeyError:
            raise ProtocolError(
                f"{self.id}: no handler for {type(message).__name__}"
            ) from None
        handler(src, message)

    # ------------------------------------------------------------------
    # Admission control / load shedding
    # ------------------------------------------------------------------

    def _admit(self, message: ClientRequest) -> bool:
        """Gate a client request at the NIC, before any CPU is spent on it.

        Rejections bypass the server queue entirely: the :class:`Rejected`
        reply is pushed straight onto the wire, which is what makes
        shedding cheap — a melting-down replica must not pay ``t_in`` +
        ``t_out`` per request it refuses.  (SYN-cookie-style early demux;
        the NIC hardware can classify and bounce without waking the CPU.)
        """
        adm = self._admission
        now = self.loop.now
        server = self._server
        if (
            adm.policy == "deadline"
            and message.deadline is not None
            and now + server.backlog_seconds > message.deadline
        ):
            # The reply could not possibly make it back in time: the
            # issuer's patience is already consumed by queued work.
            self._reject(message, "deadline")
            return False
        limit = adm.queue_limit
        if limit is not None and server.queue_length >= limit:
            if adm.policy == "drop_oldest":
                evicted = server.evict_oldest(self._is_client_request_job)
                if evicted is not None:
                    victim: ClientRequest = evicted[3][1]
                    adm.inflight.pop((victim.client, victim.request_id), None)
                    self._reject(victim, "queue_full")
                    # fall through: the fresh arrival takes the freed slot
                else:
                    self._reject(message, "queue_full")
                    return False
            else:
                self._reject(message, "queue_full")
                return False
        if adm.max_inflight is not None:
            inflight = adm.inflight
            key = (message.client, message.request_id)
            if len(inflight) >= adm.max_inflight and key not in inflight:
                # Purge slots whose issuer has given up before refusing new
                # work for their sake.
                expired = [k for k, d in inflight.items() if d < now]
                for k in expired:
                    del inflight[k]
                if len(inflight) >= adm.max_inflight:
                    self._reject(message, "inflight")
                    return False
            inflight[key] = message.deadline if message.deadline is not None else math.inf
        return True

    def _is_client_request_job(self, fn: Callable[..., Any], args: tuple) -> bool:
        """Eviction predicate: a queued-but-unserved client request job."""
        # Bound-method access creates a fresh object, so compare the
        # underlying function, not the wrapper's identity.
        func = getattr(fn, "__func__", None)
        return (
            (func is Replica._dispatch or func is Replica._dispatch_traced)
            and getattr(fn, "__self__", None) is self
            and type(args[1]) is ClientRequest
        )

    def _reject(self, request: ClientRequest, reason: str) -> None:
        adm = self._admission
        adm.shed += 1
        adm.shed_by_reason[reason] = adm.shed_by_reason.get(reason, 0) + 1
        reply = Rejected(request_id=request.request_id, replied_by=self.id, reason=reason)
        self._network.transit(self.id, request.client, reply, Rejected.SIZE_BYTES)

    @property
    def shed_count(self) -> int:
        """Client requests this replica refused via admission control."""
        return self._admission.shed if self._admission is not None else 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(self, dst: Hashable, message: Any) -> None:
        """Send one message; charges ``t_out`` + one NIC transmission."""
        if self._admission is not None and self._admission.max_inflight is not None:
            # Whatever leaves this node on a request's behalf frees its
            # admission slot: the reply ends it here, a forward makes it the
            # next replica's problem.
            mtype = type(message)
            if mtype is ClientReply:
                self._admission.inflight.pop((dst, message.request_id), None)
            elif mtype is ClientRequest:
                self._admission.inflight.pop((message.client, message.request_id), None)
        weight, size, has_wire = _CLASS_TRAITS[type(message)]
        if has_wire:
            size = message.wire_size()
        # The send cost for one copy (see ServiceProfile).
        profile = self._profile
        cost = profile.t_out * weight + size / profile.bandwidth_bps
        if self._tracer.enabled and type(message) is ClientReply:
            self._server.submit(cost, self._traced_reply_transit, dst, message, size)
            return
        self._server.submit(cost, self._network.transit, self.id, dst, message, size)

    def _traced_reply_transit(self, dst: Hashable, message: Any, size: int) -> None:
        # Stamped when the reply actually hits the wire, so DL stays pure
        # wire time and the reply's outgoing queueing is attributed to ts.
        self._tracer.event((dst, message.request_id), "reply_sent", self.now, self.id)
        self._network.transit(self.id, dst, message, size)

    def multicast(self, dsts: Iterable[Hashable], message: Any) -> None:
        """Send to several peers; serialization is paid once."""
        targets = [d for d in dsts if d != self.id]
        if not targets:
            return
        weight, size, has_wire = _CLASS_TRAITS[type(message)]
        if has_wire:
            size = message.wire_size()
        # The send cost: t_out once, NIC time per copy (see ServiceProfile).
        profile = self._profile
        cost = profile.t_out * weight + len(targets) * (size / profile.bandwidth_bps)
        self._server.submit(cost, self._network.transit_all, self.id, targets, message, size)

    def broadcast(self, message: Any) -> None:
        """Send to every other replica."""
        self.multicast(self.peers, message)

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def trace_mark(self, request: Any, name: str = "quorum") -> None:
        """Annotate ``request``'s span (protocol commit points call this
        with their ``RequestInfo``/``ClientRequest``).  No-op when tracing
        is off or the slot carries no client request (no-ops, heartbeats).
        """
        if request is None or not self._tracer.enabled:
            return
        self._tracer.event((request.client, request.request_id), name, self.now, self.id)

    # ------------------------------------------------------------------
    # Timers and local work
    # ------------------------------------------------------------------

    def set_timer(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` seconds unless cancelled.

        Timers die with the replica: once :meth:`halt` has run (reboot /
        wipe fault injection) a pending timer fires into the void, so a
        dead incarnation can never send messages or mutate ghost state.
        """
        loop = self.loop
        return loop.call_at(loop.now + delay, self._guarded_timer, fn, args)

    def _guarded_timer(self, fn: Callable[..., Any], args: tuple) -> None:
        if self._halted:
            return
        fn(*args)

    def local_work(self, cost: float, fn: Callable[..., Any], *args: Any) -> None:
        """Charge ``cost`` seconds of CPU on this replica, then run ``fn``."""
        self._server.submit(cost, fn, *args)

    def halt(self) -> None:
        """Permanently silence this replica instance (its node went down).

        Queued server jobs are killed separately by
        :meth:`repro.sim.server.Server.power_off`; this flag covers event
        -loop timers and in-flight network deliveries that still reference
        the old instance.  Nothing dispatches to a halted replica, so its
        handler table goes too: the bound methods in it are a reference
        cycle that would keep the whole dead incarnation (log, quorums,
        store) waiting for a full garbage collection.
        """
        self._halted = True
        self._handlers.clear()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def persist(
        self,
        kind: str,
        data: Any,
        *,
        slot: int | None = None,
        command: Any = None,
        then: Callable[..., None] | None = None,
        args: tuple = (),
    ) -> None:
        """Append a WAL record and run ``then(*args)`` once it is durable.

        With durability off this *is* the seed's in-memory behavior:
        ``then(*args)`` runs synchronously and nothing else happens — no
        record is built, no job is submitted, no cost is charged.  With
        durability on, the record goes through the node's
        :class:`~repro.sim.storage.WalWriter` (fsync-per-record or group
        commit per :attr:`Config.durability`) and ``then(*args)`` fires
        only when the covering fsync completes.  ``command`` is the log
        entry's command (or batch) the record carries; it sizes the record
        (:func:`wal_record_bytes`).
        """
        if self._wal_writer is None:
            if then is not None:
                then(*args)
            return
        record = WalRecord(kind, slot, data, wal_record_bytes(command))
        self._wal_writer.persist(record, then, args)

    def maybe_snapshot(self, executed_upto: int) -> None:
        """Write a periodic disk snapshot if the configured interval has
        passed, then truncate the WAL below it.  The snapshot write is
        charged through the node's queue like any other disk work."""
        interval = self.config.snapshot_interval
        if self.disk is None or interval is None or self._snapshot_inflight:
            return
        last = self.disk.snapshot.upto if self.disk.snapshot is not None else 0
        if executed_upto - last < interval:
            return
        payload, size_bytes = self.snapshot_payload(executed_upto)
        snap = Snapshot(executed_upto, payload, size_bytes)
        self._snapshot_inflight = True
        cost = self.disk.profile.sync_cost(size_bytes)
        self._server.submit(cost, self._install_snapshot, snap)

    def _install_snapshot(self, snap: Snapshot) -> None:
        self._snapshot_inflight = False
        assert self.disk is not None
        self.disk.install_snapshot(snap)

    def snapshot_payload(self, executed_upto: int) -> tuple[Any, int]:
        """Protocol hook: the opaque state-machine payload (and its size in
        bytes) covering every slot up to ``executed_upto``.  Protocols with
        recovery support override this."""
        raise ProtocolError(
            f"{type(self).__name__} does not implement snapshot_payload()"
        )

    @property
    def now(self) -> float:
        return self.loop.now

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.id}>"
