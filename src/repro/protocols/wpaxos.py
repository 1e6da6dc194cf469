"""WPaxos (Ailijiang et al. 2017): multi-leader WAN Paxos (paper section 2).

Every designated leader node can *own* objects and run phase-2 on them
independently; ownership moves between leaders by running phase-1 **per
object** over the WAN (object stealing), so no external master is needed.
Quorums are flexible grids over the ``zones x nodes_per_zone`` deployment:

- phase-1 (stealing): ``R - f`` acks in each of ``Z - fz`` zones,
- phase-2 (replication): ``f + 1`` acks in each of ``fz + 1`` zones,

so with ``fz = 0`` commands commit entirely inside the owner's zone, and
with ``fz = 1`` they additionally reach the nearest other zone (tolerating
a full region failure).

Per the paper's evaluation setup, only one node per zone acts as a leader
(matching WanKeeper's deployment), commands are replicated to **all** nodes
(full replication), and ownership moves under the "simple three-consecutive
access policy": a leader steals an object after serving three consecutive
non-owned requests for it, otherwise it forwards to the current owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.errors import ConfigError
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, ClientRequest, Command, Message
from repro.paxi.protocol import Protocol
from repro.paxi.quorum import GridQuorum, Quorum
from repro.protocols.ballot import Ballot, ZERO
from repro.protocols.log import (
    FLUSH_INTERVAL,
    RETRANSMIT_TIMEOUT,
    Acceptor,
    CommandLog,
    Entry,
    EntrySnapshot,
    RequestInfo,
)


@dataclass(frozen=True, slots=True)
class WP1a(Message):
    """Per-object phase-1: steal ownership of ``key`` with ``ballot``."""

    key: Hashable = None
    ballot: Ballot = ZERO
    commit_upto: int = 0


@dataclass(frozen=True, slots=True)
class WP1b(Message):
    SIZE_BYTES = 300

    key: Hashable = None
    ballot: Ballot = ZERO
    ok: bool = True
    entries: tuple[EntrySnapshot, ...] = ()


@dataclass(frozen=True, slots=True)
class WP2a(Message):
    key: Hashable = None
    ballot: Ballot = ZERO
    slot: int = 0
    command: Command | None = None
    request: RequestInfo | None = None
    commit_upto: int = 0


@dataclass(frozen=True, slots=True)
class WP2b(Message):
    key: Hashable = None
    ballot: Ballot = ZERO
    slot: int = 0
    ok: bool = True


@dataclass(frozen=True, slots=True)
class WFlush(Message):
    """Batched per-object commit watermarks (piggybacked commit phase)."""

    SIZE_BYTES = 200

    watermarks: tuple[tuple[Hashable, int], ...] = ()


@dataclass(frozen=True, slots=True)
class WFillRequest(Message):
    key: Hashable = None
    slots: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class WFillReply(Message):
    SIZE_BYTES = 300

    key: Hashable = None
    entries: tuple[EntrySnapshot, ...] = ()


@dataclass
class _ObjectState(Acceptor):
    """Everything one replica knows about one object: its acceptor
    (``active`` while this node owns it) and log, and the stealing state."""

    owner: NodeID | None = None
    log: CommandLog = field(default_factory=CommandLog)
    pending: list[ClientRequest] = field(default_factory=list)
    steal_streak: int = 0
    forwarded: set = field(default_factory=set)  # (client, request_id) we forwarded
    # Flush countdown: re-broadcast the watermark for a few intervals so a
    # single lost WFlush cannot strand a follower (decremented per tick).
    dirty_watermark: int = 0


class WPaxos(Protocol):
    """A WPaxos replica.

    Config params (:data:`repro.paxi.config.PARAMS`): ``fz`` and ``f``,
    the zone and per-zone fault tolerance the grid quorums are built for;
    ``steal_threshold``, the consecutive non-owned accesses before a
    leader steals an object; ``leaders_per_zone``.
    """

    def __init__(self, deployment: Deployment, node_id: NodeID) -> None:
        super().__init__(deployment, node_id)
        zones = len(self.config.zones)
        per_zone = self.config.n // zones
        if zones * per_zone != self.config.n:
            raise ConfigError("WPaxos needs a rectangular zone grid")
        self.fz: int = self.config.param("fz")
        f = self.config.param("f")
        self.f: int = (per_zone - 1) // 2 if f is None else f
        self.steal_threshold: int = self.config.param("steal_threshold")
        self.leaders_per_zone: int = self.config.param("leaders_per_zone")
        self.objects: dict[Hashable, _ObjectState] = {}

        self.register(WP1a, self.on_p1a)
        self.register(WP1b, self.on_p1b)
        self.register(WP2a, self.on_p2a)
        self.register(WP2b, self.on_p2b)
        self.register(WFlush, self.on_flush)
        self.register(WFillRequest, self.on_fill_request)
        self.register(WFillReply, self.on_fill_reply)

        if self.is_leader_node:
            self.set_timer(FLUSH_INTERVAL, self._flush_tick)

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------

    @property
    def is_leader_node(self) -> bool:
        """Per the paper's setup, only the first ``leaders_per_zone`` nodes
        of each zone act as leaders."""
        return self.id.node <= self.leaders_per_zone

    @property
    def zone_leader(self) -> NodeID:
        return NodeID(self.id.zone, 1)

    def _object(self, key: Hashable) -> _ObjectState:
        state = self.objects.get(key)
        if state is None:
            state = _ObjectState()
            self.objects[key] = state
        return state

    def _phase1_quorum(self) -> Quorum:
        return GridQuorum(self.config.node_ids, phase=1, f=self.f, fz=self.fz)

    def _phase2_quorum(self) -> Quorum:
        return GridQuorum(self.config.node_ids, phase=2, f=self.f, fz=self.fz)

    # ------------------------------------------------------------------
    # Client requests: own, steal, or forward
    # ------------------------------------------------------------------

    def on_request(self, src: Hashable, m: ClientRequest) -> None:
        if self.answer_duplicate(m):
            return
        if not self.is_leader_node:
            self.send(self.zone_leader, m)
            return
        state = self._object(m.command.key)
        if state.active:
            self._propose(m.command.key, state, m.command, RequestInfo.of(m))
            return
        if state.p1_quorum is not None:
            state.pending.append(m)  # steal already in flight
            return
        if state.owner is None:
            self._start_steal(m.command.key, state, m)
            return
        state.steal_streak += 1
        if state.steal_streak >= self.steal_threshold:
            self._start_steal(m.command.key, state, m)
        else:
            state.forwarded.add((m.client, m.request_id))
            self.send(state.owner, m)

    # ------------------------------------------------------------------
    # Phase 1: object stealing
    # ------------------------------------------------------------------

    def _start_steal(self, key: Hashable, state: _ObjectState, request: ClientRequest) -> None:
        state.steal_streak = 0
        state.pending.append(request)
        state.owner = self.id
        won = state.campaign(self.id, self._phase1_quorum(), state.log)
        self.broadcast(WP1a(key=key, ballot=state.ballot, commit_upto=state.log.commit_upto()))
        if won:
            self._acquire(key, state)

    def _adopt(self, state: _ObjectState, ballot: Ballot) -> None:
        """Adopt ``ballot`` for the object, which a rule of its acceptor let
        in: the one place an object's promise rises or ownership moves.  A
        steal it beats re-routes everything buffered for it to the winner."""
        ended = state.adopt(ballot, self.id)
        state.owner = ballot.owner
        if ended:
            pending, state.pending = state.pending, []
            for request in pending:
                self.send(state.owner, request)

    def on_p1a(self, src: Hashable, m: WP1a) -> None:
        state = self._object(m.key)
        if state.promises(m.ballot, m.commit_upto, state.log):
            self._adopt(state, m.ballot)
            suffix = state.log.snapshots(above=m.commit_upto)
            self.send(src, WP1b(key=m.key, ballot=m.ballot, ok=True, entries=suffix))
        else:
            self.send(src, WP1b(key=m.key, ballot=state.promised, ok=False))

    def on_p1b(self, src: Hashable, m: WP1b) -> None:
        state = self._object(m.key)
        if not m.ok:
            if state.outranked(m.ballot):
                self._adopt(state, m.ballot)
        elif state.tally(src, m.ballot, m.entries):
            self._acquire(m.key, state)

    def _acquire(self, key: Hashable, state: _ObjectState) -> None:
        for slot, command, request in state.win(state.log):
            self._propose(key, state, command, request, slot)
        self._advance_execution(state)
        pending, state.pending = state.pending, []
        for request in pending:
            self.on_request(request.client, request)

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------

    def _propose(
        self,
        key: Hashable,
        state: _ObjectState,
        command: Command | None,
        request: RequestInfo | None,
        slot: int | None = None,
    ) -> None:
        """Replicate ``command`` in the object's next free slot, or
        re-propose it in ``slot`` after a steal."""
        quorum = self._phase2_quorum()
        quorum.ack(self.id)
        slot = state.log.propose(state.ballot, command, request, quorum, now=self.now, slot=slot)
        self.broadcast(
            WP2a(
                key=key,
                ballot=state.ballot,
                slot=slot,
                command=command,
                request=request,
                commit_upto=state.log.commit_upto(),
            )
        )
        if quorum.satisfied():
            self._commit_slot(state, slot)

    def on_p2a(self, src: Hashable, m: WP2a) -> None:
        state = self._object(m.key)
        if state.accepts(m.ballot):
            self._adopt(state, m.ballot)
            state.log.accept(m.slot, m.ballot, m.command, m.request)
            if self.is_leader_node and m.ballot.owner != self.id:
                # A command we forwarded ourselves still counts toward our
                # streak; anyone else's access breaks the "consecutive" run.
                request_key = (
                    (m.request.client, m.request.request_id)
                    if m.request is not None
                    else None
                )
                if request_key is not None and request_key in state.forwarded:
                    state.forwarded.discard(request_key)
                else:
                    state.steal_streak = 0
            self.send(src, WP2b(key=m.key, ballot=m.ballot, slot=m.slot, ok=True))
            self._on_watermark(m.key, state, m.commit_upto, src)
        else:
            self.send(src, WP2b(key=m.key, ballot=state.promised, slot=m.slot, ok=False))

    def on_p2b(self, src: Hashable, m: WP2b) -> None:
        state = self._object(m.key)
        if not m.ok:
            if state.outranked(m.ballot):
                self._adopt(state, m.ballot)
            return
        if state.active and m.ballot == state.ballot and state.log.ack(m.slot, src):
            self._commit_slot(state, m.slot)

    def _commit_slot(self, state: _ObjectState, slot: int) -> None:
        state.log.commit(slot)
        self.trace_mark(state.log.entries[slot].request)
        state.dirty_watermark = 3
        self._advance_execution(state)

    # ------------------------------------------------------------------
    # Commit watermarks, gap filling, execution
    # ------------------------------------------------------------------

    def _flush_tick(self) -> None:
        dirty: list[tuple[Hashable, int]] = []
        for key, state in self.objects.items():
            if state.active and state.dirty_watermark > 0:
                dirty.append((key, state.log.commit_upto()))
                state.dirty_watermark -= 1
        if dirty:
            self.broadcast(WFlush(watermarks=tuple(dirty)))
        # Re-send what lost its race with the network, object by object (an
        # object stolen away holds its proposals under an older ballot, and
        # the scan drops them).
        now = self.now
        for key, state in self.objects.items():
            for slot, entry, behind in state.log.due(now, RETRANSMIT_TIMEOUT, self.peers, state.promised):
                self.multicast(
                    behind,
                    WP2a(
                        key=key,
                        ballot=state.ballot,
                        slot=slot,
                        command=entry.command,
                        request=entry.request,
                        commit_upto=state.log.commit_upto(),
                    ),
                )
        self.set_timer(FLUSH_INTERVAL, self._flush_tick)

    def on_flush(self, src: Hashable, m: WFlush) -> None:
        for key, upto in m.watermarks:
            self._on_watermark(key, self._object(key), upto, src)

    def _on_watermark(self, key: Hashable, state: _ObjectState, upto: int, origin: Hashable) -> None:
        # Only the owner's watermark certifies values chosen under its
        # ballot; one from anyone else commits nothing (CommandLog's rule).
        ballot = state.promised if state.promised.owner == origin else None
        need = state.log.apply_watermark(upto, ballot, self.now, RETRANSMIT_TIMEOUT)
        if need:
            self.send(origin, WFillRequest(key=key, slots=need))
        self._advance_execution(state)

    def on_fill_request(self, src: Hashable, m: WFillRequest) -> None:
        entries = self._object(m.key).log.snapshots(m.slots)
        self.send(src, WFillReply(key=m.key, entries=entries))

    def on_fill_reply(self, src: Hashable, m: WFillReply) -> None:
        state = self._object(m.key)
        state.log.adopt(m.entries)
        self._advance_execution(state)

    def _advance_execution(self, state: _ObjectState) -> None:
        state.log.execute(lambda _slot, entry: self._execute(entry, state.active))

    def _execute(self, entry: Entry, active: bool) -> None:
        value = None
        if entry.command is not None:
            value = self.replies.execute(entry.request, self.store.execute, entry.command)
        if entry.request is not None and entry.ballot.owner == self.id and active:
            self.send(
                entry.request.client,
                ClientReply(
                    request_id=entry.request.request_id,
                    ok=True,
                    value=value,
                    replied_by=self.id,
                ),
            )
