"""At-most-once execution: the client table every protocol shares.

A client retransmits a request until it is answered, so a replica must
recognise a command it has already executed — and must keep recognising
it for as long as a delayed copy can still arrive, which is forever.  What
it does *not* have to keep forever is the reply: once the client has
concluded a request it never retransmits it and drops any answer to it.

:class:`ReplyTable` keeps the two apart.  Per client it remembers

- **that** a request executed, exactly and forever: ``upto`` (every id at
  or below it has executed) plus a bitmask of the ids executed above it,
  one bit per id up to the highest executed one.  The mask drains as the
  gaps fill; a gap that never fills (an id served off the log, such as a
  lease, quorum or local read) keeps the bits above it;
- the reply **value** only inside the retransmit window: each request
  carries ``ack_upto``, the highest id below which its client has
  concluded everything (:meth:`repro.paxi.client.Client._transmit`), and
  executing a request drops that client's values at or below it.  A row
  holds one value inline; a dict (``overflow``) holds the others only
  while a pipelined or retransmitting client has more than one.

This is the client-session table of the Raft dissertation (section 6.3)
and Viewstamped Replication's client table, with one difference: a late
duplicate of an evicted id is still *recognised* (and skipped, and answered
with ``value=None`` — the client has concluded it and drops the answer),
where those designs may only assume it never comes.  Forgetting that a
request executed would re-apply an acknowledged write over a newer one.

A *request* below is anything with ``client``, ``request_id`` and
``ack_upto`` attributes: a :class:`~repro.paxi.message.ClientRequest`, or
the ``RequestInfo`` a protocol stores in its log.  Request ids are the
positive integers :class:`~repro.paxi.client.Client` counts out.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

#: What ``inflight`` and ``nonpositive`` start as: most rows never need
#: either (only a proposer admits; clients count ids from 1), and an empty
#: ``set`` is the bulk of a row's footprint.
_EMPTY: frozenset[int] = frozenset()


class _ClientRow:
    """One client's executed ids, retained replies and in-flight marks."""

    __slots__ = (
        "upto", "above", "nonpositive", "reply_id", "reply", "overflow", "acked", "inflight"
    )

    def __init__(self) -> None:
        self.upto = 0  # every id in 1..upto has executed
        self.above = 0  # bit i set: id upto + 1 + i has executed (bit 0 never is)
        self.nonpositive: set[int] | frozenset[int] = _EMPTY  # executed ids <= 0
        self.reply_id = 0  # the one reply for an id > acked kept inline; 0: none
        self.reply: Any = None
        self.overflow: dict[int, Any] | None = None  # the others, only beside it
        self.acked = 0  # highest ack_upto executed for this client
        self.inflight: set[int] | frozenset[int] = _EMPTY  # admitted here, not yet executed

    def seen(self, request_id: int) -> bool:
        offset = request_id - self.upto - 1
        if offset >= 0:
            return (self.above >> offset) & 1 == 1
        return request_id > 0 or request_id in self.nonpositive

    def get(self, request_id: int) -> Any:
        """The retained reply to ``request_id``, or ``None``."""
        if request_id == self.reply_id:
            return self.reply  # None while the slot is empty (id 0 never has one)
        return self.overflow.get(request_id) if self.overflow else None

    def keep(self, request_id: int, value: Any) -> None:
        """Retain the reply to ``request_id`` (> ``acked``), overwriting."""
        if not self.reply_id or self.reply_id == request_id:
            self.reply_id, self.reply = request_id, value
        elif self.overflow is None:
            self.overflow = {request_id: value}
        else:
            self.overflow[request_id] = value

    def record(self, request_id: int, value: Any) -> None:
        """First execution of ``request_id`` (the caller checked ``seen``)."""
        offset = request_id - self.upto - 1
        if offset == 0:
            # The next id in order: drain the run of executed ids above it
            # (a trailing-ones count of the mask shifted past it).
            above = self.above >> 1
            run = (above ^ (above + 1)).bit_length() - 1
            self.upto = request_id + run
            self.above = above >> run
        elif offset > 0:
            self.above |= 1 << offset
        elif self.nonpositive is _EMPTY:
            self.nonpositive = {request_id}
        else:
            self.nonpositive.add(request_id)
        if request_id > self.acked:
            self.keep(request_id, value)
        if self.inflight:
            self.inflight.discard(request_id)

    def evict(self, ack_upto: int) -> None:
        """The client concluded every id <= ``ack_upto``: drop their replies."""
        if ack_upto > self.acked:
            self.acked = ack_upto
            if self.reply_id <= ack_upto:
                self.reply_id, self.reply = 0, None
            overflow = self.overflow
            if overflow is not None:
                for request_id in [r for r in overflow if r <= ack_upto]:
                    del overflow[request_id]
                if overflow and not self.reply_id:  # a survivor moves inline
                    self.reply_id, self.reply = overflow.popitem()
                self.overflow = overflow or None


class ReplyTable:
    """Which client requests this replica has executed, and the replies a
    client may still ask for again."""

    __slots__ = ("_rows", "_recorded")

    def __init__(self) -> None:
        self._rows: dict[Hashable, _ClientRow] = {}
        self._recorded = 0

    def _row(self, client: Hashable) -> _ClientRow:
        row = self._rows.get(client)
        if row is None:
            row = self._rows[client] = _ClientRow()
        return row

    def seen(self, request: Any) -> bool:
        """Whether ``request`` has executed here (exact, never forgotten)."""
        row = self._rows.get(request.client)
        return row is not None and row.seen(request.request_id)

    def value(self, request: Any) -> Any:
        """The reply ``request`` got, or ``None`` once its client has
        acknowledged it (the answer would be dropped on arrival)."""
        row = self._rows.get(request.client)
        return row.get(request.request_id) if row is not None else None

    def execute(self, request: Any, run: Callable[[Any], Any], command: Any) -> Any:
        """``run(command)`` unless ``request`` already executed here; either
        way return its reply and apply the ``ack_upto`` it carries.

        This is the one call a protocol makes per executed command, so it
        fetches the client's row once.  ``request`` may be ``None`` (a
        recovered entry that lost its routing): the command just runs.
        """
        if request is None:
            return run(command)
        row = self._rows.get(request.client)
        if row is None:
            row = self._rows[request.client] = _ClientRow()
        request_id = request.request_id
        ack_upto = request.ack_upto
        # Evicted before storing (an id is above its own ack_upto): inline slot reused.
        if ack_upto > row.acked:
            if row.overflow is not None:
                row.evict(ack_upto)
            else:  # _ClientRow.evict, inlined
                row.acked = ack_upto
                if row.reply_id <= ack_upto:
                    row.reply_id, row.reply = 0, None
        if request_id == row.upto + 1 and not row.above:
            # _ClientRow.record, inlined: ids usually arrive in order.
            value = run(command)
            self._recorded += 1
            row.upto = request_id
            if request_id > row.acked:
                if row.reply_id:
                    row.keep(request_id, value)
                else:
                    row.reply_id, row.reply = request_id, value
            if row.inflight:
                row.inflight.discard(request_id)
        elif row.seen(request_id):
            value = row.get(request_id)
        else:
            value = run(command)
            self._recorded += 1
            row.record(request_id, value)
        return value

    def record(self, request: Any, value: Any) -> None:
        """Note a reply computed outside :meth:`execute` (EPaxos executes
        every instance and caches on the command leader only); a repeat
        overwrites the retained value, as a dict store would."""
        row = self._row(request.client)
        row.evict(request.ack_upto)
        if row.seen(request.request_id):
            if request.request_id > row.acked:
                row.keep(request.request_id, value)
        else:
            row.record(request.request_id, value)
            self._recorded += 1

    def admit(self, request: Any) -> bool:
        """Proposer side: mark ``request`` in flight here.  False means a
        copy is already committing and this one should be dropped."""
        row = self._row(request.client)
        if request.request_id in row.inflight:
            return False
        if row.inflight is _EMPTY:
            row.inflight = {request.request_id}
        else:
            row.inflight.add(request.request_id)
        return True

    def withdraw(self, request: Any) -> None:
        """The proposal was handed elsewhere before it was appended."""
        row = self._rows.get(request.client)
        if row is not None and row.inflight:
            row.inflight.discard(request.request_id)

    def retained(self) -> int:
        """Reply values currently held (bounded by the clients' windows)."""
        return sum((row.reply_id != 0) + len(row.overflow or ()) for row in self._rows.values())

    def __len__(self) -> int:
        """Requests recorded, evicted or not — what an unbounded cache's
        ``len`` would be; snapshots size their modelled payload from it."""
        return self._recorded

    def copy(self) -> "ReplyTable":
        """An independent copy for a snapshot or a state transfer: one row
        per client, without the in-flight marks (those are the proposer's
        own, not applied state)."""
        clone = ReplyTable()
        clone._recorded = self._recorded
        for client, row in self._rows.items():
            twin = clone._rows[client] = _ClientRow()
            twin.upto = row.upto
            twin.above = row.above
            twin.nonpositive = set(row.nonpositive) or _EMPTY
            twin.reply_id, twin.reply = row.reply_id, row.reply
            twin.overflow = dict(row.overflow) if row.overflow else None
            twin.acked = row.acked
        return clone
