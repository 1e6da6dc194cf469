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

from dataclasses import dataclass
from typing import Any, Callable, Hashable

from repro.paxi.ids import NodeID
from repro.paxi.message import Message
from repro.paxi.node import Replica
from repro.paxi.quorum import GroupQuorum
from repro.protocols.ballot import ZERO
from repro.protocols.log import CommandLog, EntrySnapshot


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
    entries: tuple[EntrySnapshot, ...] = ()


RETRANSMIT_GRACE = 0.3  # seconds before an unacked accept is re-sent
#: The group has one fixed leader, so every slot is accepted under one
#: ballot and every watermark certifies every entry it covers.
GROUP_BALLOT = ZERO


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
        self.log = CommandLog()  # items ride in Entry.command
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
        quorum = GroupQuorum(self.members)
        quorum.ack(self.replica.id)
        slot = self.log.propose(GROUP_BALLOT, item, quorum=quorum, now=self.replica.now)
        peers = [m for m in self.members if m != self.replica.id]
        if peers:
            self.replica.multicast(
                peers,
                GAccept(zone=self.zone, slot=slot, item=item, commit_upto=self.log.commit_upto()),
            )
        if quorum.satisfied():  # single-member group
            self._commit(slot)

    def _on_ack(self, src: Hashable, m: GAck) -> None:
        if m.zone == self.zone and self.is_leader and self.log.ack(m.slot, src):
            self._commit(m.slot)

    def _commit(self, slot: int) -> None:
        self.log.commit(slot)
        self._mark_quorum(self.log.entries[slot].command)
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
        self.log.accept(m.slot, GROUP_BALLOT, m.item)
        self.replica.send(src, GAck(zone=self.zone, slot=m.slot))
        self._on_watermark(m.commit_upto)

    def _on_flush(self, src: Hashable, m: GFlush) -> None:
        if m.zone != self.zone:
            return
        self._on_watermark(m.commit_upto)

    def _on_watermark(self, upto: int) -> None:
        need = self.log.apply_watermark(upto, GROUP_BALLOT, self.replica.now, RETRANSMIT_GRACE)
        if need:
            self.replica.send(self.leader, GFillRequest(zone=self.zone, slots=need))
        self._advance()

    def _on_fill_request(self, src: Hashable, m: GFillRequest) -> None:
        if m.zone != self.zone:
            return
        self.replica.send(src, GFillReply(zone=self.zone, entries=self.log.snapshots(m.slots)))

    def _on_fill_reply(self, src: Hashable, m: GFillReply) -> None:
        if m.zone != self.zone:
            return
        self.log.adopt(m.entries)
        self._advance()

    # ------------------------------------------------------------------
    # Commit propagation and execution
    # ------------------------------------------------------------------

    def _flush_tick(self) -> None:
        # The watermark broadcast is unconditional (one small message per
        # interval): it doubles as the repair signal for members that lost
        # accepts or earlier flushes.
        upto = self.log.commit_upto()
        peers = [m for m in self.members if m != self.replica.id]
        if upto > 0 and peers:
            self.replica.multicast(peers, GFlush(zone=self.zone, commit_upto=upto))
        # Re-send what lost its race with the network (drops, partitions).
        for slot, entry, behind in self.log.due(self.replica.now, RETRANSMIT_GRACE, peers, GROUP_BALLOT):
            self.replica.multicast(
                behind, GAccept(zone=self.zone, slot=slot, item=entry.command, commit_upto=upto)
            )
        self.replica.set_timer(self.flush_interval, self._flush_tick)

    def _advance(self) -> None:
        self.log.execute(lambda _slot, entry: self.on_execute(entry.command, self.is_leader))
