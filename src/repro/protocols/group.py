"""Embedded per-zone Paxos group replication.

WanKeeper and Vertical Paxos both run an ordinary multi-decree Paxos
*inside* each zone (level-1) and coordinate *between* zones at a higher
level.  :class:`GroupEngine` provides that inner layer once for both:

- a fixed, stable group leader (the first node of the zone) proposes items
  into a zone-local slot sequence;
- group members accept and acknowledge; a majority of the group commits;
- commit watermarks are piggybacked on subsequent proposals and flushed
  periodically, and every member executes items in slot order through a
  caller-supplied ``on_execute`` callback.

Items are opaque to the engine; the owning protocol encodes commands,
history adoptions, and token bookkeeping in them.  Leader failover within a
zone is not modeled (the paper's WanKeeper/VPaxos experiments exercise the
failure-free path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.paxi.ids import NodeID
from repro.paxi.message import Message
from repro.paxi.node import Replica
from repro.paxi.quorum import GroupQuorum


@dataclass(frozen=True, slots=True)
class GAccept(Message):
    zone: int = 0
    slot: int = 0
    item: Any = None
    commit_upto: int = 0


@dataclass(frozen=True, slots=True)
class GAck(Message):
    zone: int = 0
    slot: int = 0


@dataclass(frozen=True, slots=True)
class GFlush(Message):
    zone: int = 0
    commit_upto: int = 0


@dataclass(frozen=True, slots=True)
class GFillRequest(Message):
    """A member asks the leader for slots it never received."""

    zone: int = 0
    slots: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class GFillReply(Message):
    SIZE_BYTES = 300

    zone: int = 0
    entries: tuple[tuple[int, Any], ...] = ()  # (slot, item), committed only


RETRANSMIT_GRACE = 0.3  # seconds before an unacked accept is re-sent


@dataclass(slots=True)
class _GroupSlot:
    item: Any
    quorum: GroupQuorum | None = None
    committed: bool = False
    executed: bool = False
    sent_at: float = 0.0


class GroupEngine:
    """One zone's replication engine, embedded in a protocol replica."""

    def __init__(
        self,
        replica: Replica,
        members: list[NodeID],
        on_execute: Callable[[Any, bool], None],
        flush_interval: float = 0.02,
    ) -> None:
        """``on_execute(item, is_leader)`` runs in slot order on every
        member once the slot is committed."""
        self.replica = replica
        self.members = list(members)
        self.zone = replica.id.zone
        self.leader = min(self.members)
        self.is_leader = replica.id == self.leader
        self.on_execute = on_execute
        self.flush_interval = flush_interval
        self._slots: dict[int, _GroupSlot] = {}
        self._next_slot = 1
        self._execute_index = 1
        self._dirty = False
        self._fill_outstanding = False
        replica.register(GAccept, self._on_accept)
        replica.register(GAck, self._on_ack)
        replica.register(GFlush, self._on_flush)
        replica.register(GFillRequest, self._on_fill_request)
        replica.register(GFillReply, self._on_fill_reply)
        if self.is_leader and flush_interval is not None:
            replica.set_timer(flush_interval, self._flush_tick)

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------

    def propose(self, item: Any) -> None:
        """Replicate ``item`` to the group (leader only)."""
        assert self.is_leader, "only the group leader proposes"
        slot = self._next_slot
        self._next_slot += 1
        quorum = GroupQuorum(self.members)
        quorum.ack(self.replica.id)
        self._slots[slot] = _GroupSlot(item, quorum, sent_at=self.replica.now)
        peers = [m for m in self.members if m != self.replica.id]
        if peers:
            self.replica.multicast(
                peers,
                GAccept(zone=self.zone, slot=slot, item=item, commit_upto=self._commit_upto()),
            )
        if quorum.satisfied():  # single-member group
            self._commit(slot)

    def _on_ack(self, src: Hashable, m: GAck) -> None:
        if m.zone != self.zone or not self.is_leader:
            return
        slot = self._slots.get(m.slot)
        if slot is None or slot.quorum is None or slot.committed:
            return
        slot.quorum.ack(src)
        if slot.quorum.satisfied():
            self._commit(m.slot)

    def _commit(self, slot: int) -> None:
        entry = self._slots[slot]
        entry.committed = True
        entry.quorum = None  # commitment is final: the votes are spent
        self._mark_quorum(entry.item)
        self._dirty = True
        self._advance()

    def _mark_quorum(self, item: Any) -> None:
        """Trace the quorum point of the client request carried by ``item``
        (protocols propose ``(tag, ..., RequestInfo)`` tuples)."""
        if not isinstance(item, tuple):
            return
        for part in item:
            if hasattr(part, "client") and hasattr(part, "request_id"):
                self.replica.trace_mark(part)
                return

    # ------------------------------------------------------------------
    # Member side
    # ------------------------------------------------------------------

    def _on_accept(self, src: Hashable, m: GAccept) -> None:
        if m.zone != self.zone:
            return
        if m.slot not in self._slots:
            self._slots[m.slot] = _GroupSlot(m.item)
        self._next_slot = max(self._next_slot, m.slot + 1)
        self.replica.send(src, GAck(zone=self.zone, slot=m.slot))
        self._apply_watermark(m.commit_upto)

    def _on_flush(self, src: Hashable, m: GFlush) -> None:
        if m.zone != self.zone:
            return
        self._apply_watermark(m.commit_upto)

    def _apply_watermark(self, upto: int) -> None:
        missing = []
        for slot in range(self._execute_index, upto + 1):
            entry = self._slots.get(slot)
            if entry is not None:
                entry.committed = True
            else:
                missing.append(slot)
        if missing and not self._fill_outstanding and not self.is_leader:
            self._fill_outstanding = True
            self.replica.send(
                self.leader, GFillRequest(zone=self.zone, slots=tuple(missing[:64]))
            )
        self._advance()

    def _on_fill_request(self, src: Hashable, m: GFillRequest) -> None:
        if m.zone != self.zone:
            return
        entries = tuple(
            (slot, self._slots[slot].item)
            for slot in m.slots
            if slot in self._slots and self._slots[slot].committed
        )
        self.replica.send(src, GFillReply(zone=self.zone, entries=entries))

    def _on_fill_reply(self, src: Hashable, m: GFillReply) -> None:
        if m.zone != self.zone:
            return
        self._fill_outstanding = False
        for slot, item in m.entries:
            if slot not in self._slots:
                self._slots[slot] = _GroupSlot(item, committed=True)
            else:
                self._slots[slot].committed = True
        self._advance()

    # ------------------------------------------------------------------
    # Commit propagation and execution
    # ------------------------------------------------------------------

    def _commit_upto(self) -> int:
        upto = self._execute_index - 1
        while upto + 1 in self._slots and self._slots[upto + 1].committed:
            upto += 1
        return upto

    def _flush_tick(self) -> None:
        # The watermark broadcast is unconditional (one small message per
        # interval): it doubles as the repair signal for members that lost
        # accepts or earlier flushes.
        upto_now = self._commit_upto()
        if upto_now > 0:
            self._dirty = False
            peers = [m for m in self.members if m != self.replica.id]
            if peers:
                self.replica.multicast(peers, GFlush(zone=self.zone, commit_upto=upto_now))
        # Retransmit accepts that lost their race with the network: under
        # normal operation slots commit well within one flush interval, so
        # this only fires after drops.
        upto = self._commit_upto()
        now = self.replica.now
        for slot, entry in self._slots.items():
            if entry.committed or entry.quorum is None:
                continue
            if now - entry.sent_at < RETRANSMIT_GRACE:
                continue  # acks plausibly still in flight
            entry.sent_at = now
            behind = [
                m
                for m in self.members
                if m != self.replica.id and m not in entry.quorum.acks
            ]
            if behind:
                self.replica.multicast(
                    behind,
                    GAccept(zone=self.zone, slot=slot, item=entry.item, commit_upto=upto),
                )
        self.replica.set_timer(self.flush_interval, self._flush_tick)

    def _advance(self) -> None:
        while True:
            entry = self._slots.get(self._execute_index)
            if entry is None or not entry.committed or entry.executed:
                break
            entry.executed = True
            self._execute_index += 1
            self.on_execute(entry.item, self.is_leader)
