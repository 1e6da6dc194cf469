"""Replicated command log shared by the Paxos-family protocols.

A :class:`CommandLog` tracks per-slot entries through the accept -> commit ->
execute -> compact lifecycle and maintains the highest *contiguous*
committed slot, which is what leaders piggyback onto later messages in
place of an explicit commit phase (the paper's phase-3 optimization,
section 2).

It is the one slot log under MultiPaxos (and FPaxos), WPaxos (one per
object), :class:`~repro.protocols.group.GroupEngine` and Mencius: the
watermark rule, gap-fill retry, fill adoption, entry snapshots and the
in-order execute loop live here once, and each host keeps only its
messages and its phase-1 and retransmit policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable

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
    leader recovery (or a slot Mencius skipped), or a
    :class:`~repro.paxi.message.Batch` when the leader coalesced several
    client commands into the slot.  ``quorum`` is the proposer's vote set
    and lives only until the slot commits: commitment is final, so nobody
    counts votes for it again.  Whether a slot has executed is
    ``slot < CommandLog.execute_index``.
    """

    ballot: Ballot
    command: EntryCommand
    request: Any = None
    quorum: Quorum | None = None
    committed: bool = False


# Transferable copy of one log entry: (slot, ballot, command, request, committed).
EntrySnapshot = tuple[int, Ballot, EntryCommand, Any, bool]

#: Most slots one fill request asks for.
FILL_BATCH = 64


def merge_snapshots(into: dict[int, EntrySnapshot], snapshots: Iterable[EntrySnapshot]) -> None:
    """Phase-1 merge: per slot keep a committed value, else the one
    accepted under the highest ballot."""
    for snapshot in snapshots:
        slot, ballot, _command, _request, committed = snapshot
        current = into.get(slot)
        if current is not None and current[4]:
            continue
        if committed or current is None or ballot > current[1]:
            into[slot] = snapshot


@dataclass
class CommandLog:
    """Slot-indexed log with commit/execute frontiers (slots are 1-based
    unless the host starts ``execute_index`` elsewhere)."""

    entries: dict[int, Entry] = field(default_factory=dict)
    next_slot: int = 1
    execute_index: int = 1  # next slot to execute
    floor: int = 0  # every slot at or below is compacted away
    _fill_deadline: float = field(default=0.0, repr=False)  # next fill request, not before
    _executing: bool = field(default=False, repr=False)

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
        if slot <= self.floor:
            return  # compacted: executed everywhere this log can be asked
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

    def apply_watermark(
        self, upto: int, ballot: Ballot | None, now: float, retry_after: float
    ) -> tuple[int, ...]:
        """Commit what a watermark certifies; return the slots to fetch.

        A watermark is a bare slot number, so it certifies only entries
        accepted under its own ``ballot``: an entry accepted under another
        one may have lost its slot to whatever a newer leader adopted (a
        partitioned ex-leader's pipelined accepts are the classic case).
        Such slots, like slots never received, are fill targets; with
        ``ballot=None`` (a watermark from a node not known to lead) every
        uncommitted slot is.  At most :data:`FILL_BATCH` targets come back,
        and only once the last request's deadline has passed — a lost fill
        reply delays gap-fill by ``retry_after`` instead of wedging it.
        """
        entries = self.entries
        targets: list[int] | None = None
        for slot in range(max(self.execute_index, self.floor + 1), upto + 1):
            entry = entries.get(slot)
            if entry is not None:
                if entry.committed:
                    continue
                if entry.ballot == ballot:
                    entry.committed = True
                    entry.quorum = None  # as commit(): the votes are spent
                    continue
            if targets is None:
                targets = [slot]
            elif len(targets) < FILL_BATCH:
                targets.append(slot)
        if targets is None or now < self._fill_deadline:
            return ()
        self._fill_deadline = now + retry_after
        return tuple(targets)

    def adopt(self, snapshots: Iterable[EntrySnapshot]) -> None:
        """Take the committed values a fill reply carries, wholesale: the
        chosen value and its ballot replace whatever this log accepted in
        the slot.  The reply also re-opens gap-fill at once."""
        self._fill_deadline = 0.0
        entries = self.entries
        for slot, ballot, command, request, committed in snapshots:
            if not committed or slot < self.execute_index:
                continue
            local = entries.get(slot)
            if local is None or not local.committed:
                entries[slot] = Entry(ballot, command, request, committed=True)
                self.next_slot = max(self.next_slot, slot + 1)

    def snapshots(self, slots: Iterable[int] | None = None, above: int = 0) -> tuple[EntrySnapshot, ...]:
        """Copies of the entries named in ``slots`` that this log holds (a
        fill reply), or of every entry above ``above`` in slot order (a
        phase-1 suffix)."""
        entries = self.entries
        if slots is None:
            slots = sorted(slot for slot in entries if slot > above)
        return tuple(
            (slot, e.ballot, e.command, e.request, e.committed)
            for slot in slots
            if (e := entries.get(slot)) is not None
        )

    def execute(self, run: Callable[[int, Entry], None]) -> None:
        """Run ``run(slot, entry)`` for each committed slot from
        ``execute_index`` on, in slot order.

        ``execute_index`` passes a slot only once ``run`` returns, so a
        read gated on it never sees half a batch.  A call from inside
        ``run`` (a callback whose proposal commits at once) returns
        immediately; the running loop picks the new slots up in order.
        """
        if self._executing:
            return
        self._executing = True
        entries = self.entries
        try:
            while (entry := entries.get(self.execute_index)) is not None and entry.committed:
                run(self.execute_index, entry)
                self.execute_index += 1
        finally:
            self._executing = False

    def uncommitted(self) -> dict[int, Entry]:
        """Accepted-but-uncommitted entries (what P1b messages carry)."""
        return {
            slot: entry
            for slot, entry in self.entries.items()
            if not entry.committed
        }

    def compact(self, upto: int) -> None:
        """Drop every slot at or below ``upto`` (executed, never asked for
        again).  Costs O(newly compacted)."""
        pop = self.entries.pop
        for slot in range(self.floor + 1, upto + 1):
            pop(slot, None)
        self.floor = max(self.floor, upto)
