"""Replicated command log shared by the Paxos-family protocols.

A :class:`CommandLog` tracks per-slot entries through the accept -> commit ->
execute lifecycle and maintains the highest *contiguous* committed slot,
which is what leaders piggyback onto later messages in place of an explicit
commit phase (the paper's phase-3 optimization, section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.errors import ProtocolError
from repro.paxi.message import Batch, ClientRequest, Command
from repro.paxi.quorum import Quorum
from repro.protocols.ballot import Ballot

# A slot's value is a single command or a batch; its reply routing is a
# single RequestInfo or one per batched command (aligned by position).
EntryCommand = Command | Batch | None
EntryRequest = "RequestInfo | tuple[RequestInfo, ...] | None"


@dataclass(slots=True)
class RequestInfo:
    """Where to send the reply once a command executes.

    ``ack_upto`` rides along from the :class:`ClientRequest` so every
    replica applies the same reply-eviction watermark at the same log
    position (see :mod:`repro.paxi.replies`); 0 evicts nothing.
    """

    client: Hashable
    request_id: int
    ack_upto: int = 0

    @classmethod
    def of(cls, m: ClientRequest) -> "RequestInfo":
        return cls(m.client, m.request_id, m.ack_upto)


def request_infos(request: Any) -> tuple:
    """Normalize an entry's ``request`` field to a tuple of RequestInfos."""
    if request is None:
        return ()
    if isinstance(request, tuple):
        return request
    return (request,)


def entry_pairs(command: EntryCommand, request: Any) -> list[tuple[Command | None, "RequestInfo | None"]]:
    """Fan a slot out into ``(command, request_info)`` pairs, in order.

    A plain command yields one pair; a :class:`Batch` yields one pair per
    contained command, aligned positionally with the entry's request tuple
    (recovered batches may have lost their routing — then infos are None).
    """
    if isinstance(command, Batch):
        requests = request if isinstance(request, tuple) else (None,) * len(command.commands)
        return list(zip(command.commands, requests))
    return [(command, request)]


@dataclass(slots=True)
class Entry:
    """One slot of the replicated log.

    ``command`` may be ``None`` for a no-op proposed to fill a gap during
    leader recovery, or a :class:`~repro.paxi.message.Batch` when the
    leader coalesced several client commands into the slot.  ``quorum``
    is the proposer's vote set and lives only until the slot commits:
    commitment is final, so nobody counts votes for it again.
    """

    ballot: Ballot
    command: EntryCommand
    request: Any = None
    quorum: Quorum | None = None
    committed: bool = False
    executed: bool = False


@dataclass
class CommandLog:
    """Slot-indexed log with commit/execute frontiers (slots are 1-based)."""

    entries: dict[int, Entry] = field(default_factory=dict)
    next_slot: int = 1
    execute_index: int = 1  # next slot to execute
    # Presence frontier: every slot in 1.._contig is present in ``entries``.
    # Advanced lazily by :meth:`missing_slots` so the per-message gap scan
    # is O(new slots) amortized instead of O(upto); reset by :meth:`compact`
    # because compaction removes slot 1 itself.
    _contig: int = field(default=0, repr=False)

    def append(
        self,
        ballot: Ballot,
        command: EntryCommand,
        request: Any = None,
        quorum: Quorum | None = None,
    ) -> int:
        """Leader-side: place a command in the next free slot."""
        slot = self.next_slot
        self.next_slot += 1
        self.entries[slot] = Entry(ballot, command, request, quorum)
        return slot

    def accept(
        self,
        slot: int,
        ballot: Ballot,
        command: EntryCommand,
        request: Any = None,
    ) -> None:
        """Follower-side: record an accepted (slot, ballot, command).

        A committed entry is never overwritten — commitment is final even if
        a laggard leader re-sends with a stale ballot.
        """
        existing = self.entries.get(slot)
        if existing is not None and existing.committed:
            return
        if existing is not None and existing.ballot > ballot:
            return
        self.entries[slot] = Entry(ballot, command, request)
        if slot >= self.next_slot:
            self.next_slot = slot + 1

    def commit(self, slot: int) -> None:
        entry = self.entries.get(slot)
        if entry is None:
            raise ProtocolError(f"commit of unknown slot {slot}")
        entry.committed = True
        entry.quorum = None

    def commit_upto(self) -> int:
        """Highest slot S such that every slot <= S is committed."""
        upto = self.execute_index - 1
        while self.entries.get(upto + 1) is not None and self.entries[upto + 1].committed:
            upto += 1
        return upto

    def executable(self) -> list[tuple[int, Entry]]:
        """Contiguous run of committed-but-unexecuted entries, in order.

        The caller is expected to execute them and then call
        :meth:`mark_executed` for each.
        """
        runnable: list[tuple[int, Entry]] = []
        slot = self.execute_index
        while True:
            entry = self.entries.get(slot)
            if entry is None or not entry.committed or entry.executed:
                break
            runnable.append((slot, entry))
            slot += 1
        return runnable

    def mark_executed(self, slot: int) -> None:
        entry = self.entries.get(slot)
        if entry is None or not entry.committed:
            raise ProtocolError(f"cannot execute uncommitted slot {slot}")
        entry.executed = True
        if slot == self.execute_index:
            while self.entries.get(self.execute_index) is not None and self.entries[
                self.execute_index
            ].executed:
                self.execute_index += 1

    def uncommitted(self) -> dict[int, Entry]:
        """Accepted-but-uncommitted entries (what P1b messages carry)."""
        return {
            slot: entry
            for slot, entry in self.entries.items()
            if not entry.committed
        }

    def compact(self, upto: int) -> None:
        """Drop entries at or below ``upto`` (snapshot installation).

        The presence frontier resets to zero: slot 1 itself is gone, so —
        exactly as with a plain dict scan — compacted slots count as
        "never accepted" until peers re-fill them.
        """
        entries = self.entries
        for slot in [s for s in entries if s <= upto]:
            del entries[slot]
        self._contig = 0

    def missing_slots(self, upto: int) -> list[int]:
        """Slots <= ``upto`` this log has never accepted (gap-fill targets)."""
        entries = self.entries
        contig = self._contig
        while contig + 1 in entries:
            contig += 1
        self._contig = contig
        if upto <= contig:
            return []
        return [slot for slot in range(contig + 1, upto + 1) if slot not in entries]
