"""Replicated command log shared by the Paxos-family protocols.

A :class:`CommandLog` tracks per-slot entries through the accept -> commit ->
execute -> compact lifecycle and maintains the highest *contiguous*
committed slot, which is what leaders piggyback onto later messages in
place of an explicit commit phase (the paper's phase-3 optimization,
section 2).

It is the one slot log under MultiPaxos (and FPaxos), WPaxos (one per
object), :class:`~repro.protocols.group.GroupEngine` and Mencius, on both
sides of phase 2.  The proposer's side: placing a proposal and stamping
when it went out, counting its votes, and the retransmit scan that finds
what is due again.  The acceptor's side: the watermark rule, gap-fill
retry, fill adoption, entry snapshots and the in-order execute loop.  Each
host keeps only its messages, the peers it sends them to, its phase-1
adoption and its flush or heartbeat policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator

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
    #: The proposer's record: slot -> when its accept last went out, for
    #: each slot proposed here that has not committed yet.
    _sent: dict[int, float] = field(default_factory=dict, repr=False)

    def propose(
        self,
        ballot: Ballot,
        command: EntryCommand,
        request: Any = None,
        quorum: Quorum | None = None,
        *,
        now: float,
        slot: int | None = None,
    ) -> int:
        """Leader-side: place a proposal in ``slot`` (by default the next
        free one) with the vote set ``quorum``, stamped as sent at ``now``."""
        if slot is None:
            slot = self.next_slot
        self.entries[slot] = Entry(ballot, command, request, quorum)
        if slot >= self.next_slot:
            self.next_slot = slot + 1
        self._sent[slot] = now
        return slot

    @property
    def in_flight(self) -> int:
        """Proposals not yet committed (what a pipeline bound counts)."""
        return len(self._sent)

    def ack(self, slot: int, voter: Hashable) -> bool:
        """Count ``voter``'s accept of ``slot``; True when the slot's vote
        set is now a quorum (the caller commits it).  A vote for a slot
        that committed, or that this log did not propose, counts for
        nothing."""
        entry = self.entries.get(slot)
        if entry is None or entry.quorum is None or entry.committed:
            return False
        entry.quorum.ack(voter)
        return entry.quorum.satisfied()

    def due(
        self, now: float, timeout: float, targets: list[Hashable], ballot: Ballot
    ) -> Iterator[tuple[int, Entry, list[Hashable]]]:
        """The retransmit scan: yield ``(slot, entry, behind)`` for each
        proposal whose accept went out ``timeout`` or more ago, in slot
        order, and re-stamp it at ``now``; ``behind`` lists the members of
        ``targets`` whose vote it still lacks (a slot with none is not
        yielded).  In a clean run slots commit well inside the timeout, so
        this only fires after drops or partitions.

        A slot leaves the record once it is no longer this proposer's to
        re-send under ``ballot``, the one it proposes under now: it
        committed, was compacted, lost its vote set to a higher ballot's
        accept, or was proposed under another ballot (a leader deposed
        since, or an object stolen away).
        """
        sent = self._sent
        entries = self.entries
        for slot in sorted(sent):
            if now - sent[slot] < timeout:
                continue  # acks are plausibly still in flight
            entry = entries.get(slot)
            if entry is None or entry.committed or entry.quorum is None or entry.ballot != ballot:
                del sent[slot]
                continue
            sent[slot] = now
            acks = entry.quorum.acks
            behind = [p for p in targets if p not in acks]
            if behind:
                yield slot, entry, behind

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
        self._sent.pop(slot, None)

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

    def recover(self, learned: dict[int, EntrySnapshot]) -> Iterator[tuple[int, EntryCommand, Any]]:
        """Phase-1 adoption for a new leader, whose phase-1 quorum taught
        it ``learned`` (merged by :func:`merge_snapshots`).  Walk every
        slot from ``execute_index`` to the highest one learned or held
        here: keep what committed here, take a value learned as committed
        wholesale (as :meth:`adopt` does), and yield ``(slot, command,
        request)`` for the rest, which the leader re-proposes under its
        own ballot (``command`` is None for a gap nobody accepted: a
        no-op).  ``next_slot`` moves past the walk once it is done."""
        top = max(max(learned, default=0), self.next_slot - 1)
        entries = self.entries
        for slot in range(self.execute_index, top + 1):
            local = entries.get(slot)
            if local is not None and local.committed:
                continue
            snapshot = learned.get(slot)
            if snapshot is None:
                yield slot, None, None
            elif snapshot[4]:
                entries[slot] = Entry(snapshot[1], snapshot[2], snapshot[3], committed=True)
                self._sent.pop(slot, None)
            else:
                yield slot, snapshot[2], snapshot[3]
        self.next_slot = max(self.next_slot, top + 1)

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
