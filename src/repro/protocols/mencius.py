"""Mencius (Mao, Junqueira, Marzullo, OSDI 2008): rotating-leader consensus.

The paper cites Mencius among the works that observed the single-leader
bottleneck (section 5.2) and closes by anticipating that its framework
"will lead the way to the development of new protocols".  This module is
that demonstration: a complete additional protocol built on the same Paxi
building blocks, used to contrast the *rotating* multi-leader design point
with WPaxos's *locality* -based one.

Design (simplified Mencius):

- the slot space is partitioned round-robin: node ``i`` of ``N`` owns slots
  ``i, i+N, i+2N, ...`` and is the pre-agreed leader for them, so commands
  commit in one phase-2 round from any node — no single leader;
- when a node sees another node's accept for slot ``s``, it **skips** all
  of its own unused slots below ``s`` (broadcasting a skip range) so the
  shared log keeps advancing even for idle nodes;
- execution is strictly in slot order, so a command's latency includes
  waiting for every other node's skips — the known Mencius trade-off: the
  slowest/most distant replica paces everyone (unlike EPaxos, which only
  waits for a fast quorum, or WPaxos, which commits locally).

Like the paper's EPaxos evaluation, this implements the failure-free path
(no revocation of a crashed node's slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, ClientRequest, Command, Message
from repro.paxi.protocol import Protocol
from repro.paxi.quorum import MajorityQuorum
from repro.protocols.ballot import ZERO
from repro.protocols.log import CommandLog, Entry, RequestInfo


@dataclass(frozen=True, slots=True)
class MAccept(Message):
    """Accept for a slot its sender owns (phase-2 only, by construction)."""

    slot: int = 0
    command: Command | None = None
    request: RequestInfo | None = None


@dataclass(frozen=True, slots=True)
class MAcceptAck(Message):
    slot: int = 0


@dataclass(frozen=True, slots=True)
class MCommit(Message):
    slot: int = 0
    command: Command | None = None
    request: RequestInfo | None = None


@dataclass(frozen=True, slots=True)
class MSkip(Message):
    """``owner`` skips every slot it owns in ``[from_slot, below)``."""

    from_slot: int = 0
    below: int = 0


class Mencius(Protocol):
    """A Mencius replica.

    Recognized config params:

    - ``skip_flush_interval``: the retransmit tick (default 0.02 s).
      Each tick re-sends the accepts still short of a majority after
      ``retransmit_timeout``; skips are announced when they happen, not on
      this tick;
    - ``retransmit_timeout``: how long an accept waits for its votes
      before it is re-sent (default 0.3 s).
    """

    def __init__(self, deployment: Deployment, node_id: NodeID) -> None:
        super().__init__(deployment, node_id)
        self.order = list(self.config.node_ids)
        self.index = self.order.index(node_id)
        self.n = len(self.order)
        self.flush_interval: float = self.config.param("skip_flush_interval", 0.02)
        # Slots are 0-based (index, index+N, ... are ours) and need no
        # ballots: each has one pre-agreed proposer.  A skipped slot is a
        # committed no-op (``command is None``).
        self.log = CommandLog(execute_index=0)
        self.next_own_slot = self.index
        self.retransmit_timeout: float = self.config.param("retransmit_timeout", 0.3)

        self.register(MAccept, self.on_accept)
        self.register(MAcceptAck, self.on_accept_ack)
        self.register(MCommit, self.on_commit)
        self.register(MSkip, self.on_skip)
        self.set_timer(self.flush_interval, self._flush_tick)

    # ------------------------------------------------------------------
    # Slot arithmetic
    # ------------------------------------------------------------------

    def owner_of(self, slot: int) -> int:
        return slot % self.n

    def _own_unused_below(self, below: int) -> tuple[int, int] | None:
        """Range of this node's unused own slots strictly below ``below``."""
        if self.next_own_slot >= below:
            return None
        start = self.next_own_slot
        # Advance our own frontier past the skipped range.
        while self.next_own_slot < below:
            self.next_own_slot += self.n
        return (start, below)

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------

    def on_request(self, src: Hashable, m: ClientRequest) -> None:
        if self.answer_duplicate(m):
            return
        slot = self.next_own_slot
        self.next_own_slot += self.n
        quorum = MajorityQuorum(self.config.node_ids)
        quorum.ack(self.id)
        request = RequestInfo.of(m)
        self.log.propose(ZERO, m.command, request, quorum, now=self.now, slot=slot)
        self.broadcast(MAccept(slot=slot, command=m.command, request=request))

    # ------------------------------------------------------------------
    # Acceptor side
    # ------------------------------------------------------------------

    def on_accept(self, src: Hashable, m: MAccept) -> None:
        self.log.accept(m.slot, ZERO, m.command, m.request)
        self.send(src, MAcceptAck(slot=m.slot))
        self._skip_up_to(m.slot)

    def _skip_up_to(self, slot: int) -> None:
        """Seeing activity at ``slot`` means our own earlier slots would
        block execution: give them up (the Mencius skip rule)."""
        skipped = self._own_unused_below(slot)
        if skipped is not None:
            start, below = skipped
            self._apply_skip(self.index, start, below)
            self.broadcast(MSkip(from_slot=start, below=below))
            self._try_execute()

    def on_skip(self, src: Hashable, m: MSkip) -> None:
        owner = self.order.index(src)
        self._apply_skip(owner, m.from_slot, m.below)
        self._try_execute()

    def _apply_skip(self, owner: int, from_slot: int, below: int) -> None:
        slot = from_slot
        while slot < below:
            if self.owner_of(slot) == owner:
                entry = self.log.entries.setdefault(slot, Entry(ZERO, None))
                if entry.command is None:
                    entry.committed = True  # a no-op
            slot += 1

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def on_accept_ack(self, src: Hashable, m: MAcceptAck) -> None:
        if self.log.ack(m.slot, src):
            self.log.commit(m.slot)
            entry = self.log.entries[m.slot]
            self.trace_mark(entry.request)
            self.broadcast(MCommit(slot=m.slot, command=entry.command, request=entry.request))
            self._try_execute()

    def on_commit(self, src: Hashable, m: MCommit) -> None:
        entry = self.log.entries.setdefault(m.slot, Entry(ZERO, None))
        if entry.command is None:
            entry.command = m.command
            entry.request = m.request
        entry.committed = True
        self._skip_up_to(m.slot)
        self._try_execute()

    # ------------------------------------------------------------------
    # Execution: strict slot order
    # ------------------------------------------------------------------

    def _try_execute(self) -> None:
        self.log.execute(self._execute_slot)

    def _execute_slot(self, slot: int, entry: Entry) -> None:
        value = None
        if entry.command is not None:
            value = self.replies.execute(entry.request, self.store.execute, entry.command)
        if entry.request is not None and self.owner_of(slot) == self.index:
            self.send(
                entry.request.client,
                ClientReply(
                    request_id=entry.request.request_id,
                    ok=True,
                    value=value,
                    replied_by=self.id,
                ),
            )

    # ------------------------------------------------------------------
    # Liveness: idle-skip announcements and retransmission
    # ------------------------------------------------------------------

    def _flush_tick(self) -> None:
        for slot, entry, behind in self.log.due(self.now, self.retransmit_timeout, self.peers, ZERO):
            self.multicast(behind, MAccept(slot=slot, command=entry.command, request=entry.request))
        self.set_timer(self.flush_interval, self._flush_tick)
