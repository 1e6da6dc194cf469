"""Operation history recording for offline correctness checking.

Clients record one operation per completed request — with real (virtual)
invocation and response times — which feeds the linearizability checker
(:mod:`repro.checkers.linearizability`).  Replicas additionally expose
per-key state-machine histories for the consensus checker.

The recorder keeps its rows in columns (:class:`OperationTable`), about a
third of the bytes of one :class:`Operation` object per row; readers get a
:class:`HistoryView`, which builds an :class:`Operation` only for the row
it is asked for.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from operator import index as _as_index
from typing import Any, Hashable, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class Operation:
    """A completed client operation with its real-time interval."""

    client: Hashable
    op: str  # "GET" or "PUT"
    key: Hashable
    value: Any  # the value written (PUT) or None (GET)
    output: Any  # the value returned to the client
    invoked_at: float
    returned_at: float

    def __post_init__(self) -> None:
        if self.returned_at < self.invoked_at:
            raise ValueError(
                f"operation returned at {self.returned_at} before invocation "
                f"at {self.invoked_at}"
            )

    @property
    def latency(self) -> float:
        return self.returned_at - self.invoked_at

    @property
    def is_read(self) -> bool:
        return self.op == "GET"


#: Marks a row whose second datum is the implied one (see OperationTable).
_IMPLIED = object()


class OperationTable:
    """Append-only columns, one row per operation.

    ``times`` interleaves each row's invocation and response (row ``i`` at
    ``2i`` and ``2i + 1``).  ``clients`` indexes ``client_ids`` and
    ``codes`` indexes ``ops``; ``GET`` is code 0, so a row is a read iff its
    code is 0.  ``data`` holds the one datum the linearizability checker
    reads: a read's output, a write's value.  The other datum is implied —
    a read carries no value, a write returns the value it wrote — and the
    rare row where it is not (a failed CAS, say) keeps it in ``extra``.
    """

    __slots__ = (
        "times", "clients", "codes", "keys", "data", "extra",
        "ops", "client_ids", "_op_codes", "_client_indices",
    )  # fmt: skip

    def __init__(self) -> None:
        self.times = array("d")
        self.clients = array("I")
        self.codes = bytearray()
        self.keys: list[Hashable] = []
        self.data: list[Any] = []
        self.extra: dict[int, Any] = {}
        self.ops = ["GET", "PUT"]
        self.client_ids: list[Hashable] = []
        self._op_codes = {"GET": 0, "PUT": 1}
        self._client_indices: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self.codes)

    def append(
        self,
        client: Hashable,
        op: str,
        key: Hashable,
        value: Any,
        output: Any,
        invoked_at: float,
        returned_at: float,
    ) -> None:
        if returned_at < invoked_at:
            raise ValueError(
                f"operation returned at {returned_at} before invocation at {invoked_at}"
            )
        client_index = self._client_indices.get(client)
        if client_index is None:
            client_index = self._client_indices[client] = len(self.client_ids)
            self.client_ids.append(client)
        code = self._op_codes.get(op)
        if code is None:
            code = self._op_codes[op] = len(self.ops)
            self.ops.append(op)
        if code:
            if output is not value:
                self.extra[len(self.codes)] = output
            self.data.append(value)
        else:
            if value is not None:
                self.extra[len(self.codes)] = value
            self.data.append(output)
        self.times.append(invoked_at)
        self.times.append(returned_at)
        self.clients.append(client_index)
        self.codes.append(code)
        self.keys.append(key)

    def extend(self, operations: Iterable[Operation]) -> None:
        for o in operations:
            self.append(o.client, o.op, o.key, o.value, o.output, o.invoked_at, o.returned_at)

    def row(self, i: int) -> Operation:
        """Row ``i`` as an :class:`Operation`."""
        code = self.codes[i]
        datum = self.data[i]
        other = self.extra.get(i, _IMPLIED)
        if code:
            value, output = datum, datum if other is _IMPLIED else other
        else:
            value, output = None if other is _IMPLIED else other, datum
        times = self.times
        return Operation(
            self.client_ids[self.clients[i]],
            self.ops[code],
            self.keys[i],
            value,
            output,
            times[2 * i],
            times[2 * i + 1],
        )


class HistoryView(Sequence):
    """A read-only sequence of operations over table rows.

    ``parts`` holds ``(table, start, stop)`` slices, read in order.  Each
    :class:`Operation` is built when it is accessed and kept by no one, and
    a view never changes: rows appended to a table later are outside it.
    A view equals any list, tuple or view holding equal operations in the
    same order.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[tuple[OperationTable, int, int]]) -> None:
        self.parts = tuple(part for part in parts if part[2] > part[1])

    @classmethod
    def concat(cls, views: Iterable[HistoryView]) -> HistoryView:
        """The views' rows one after another, copying none of them."""
        return cls(part for view in views for part in view.parts)

    def __len__(self) -> int:
        return sum(stop - start for _table, start, stop in self.parts)

    def __getitem__(self, position: int) -> Operation:
        position = _as_index(position)
        if position < 0:
            position += len(self)
        if position >= 0:
            for table, start, stop in self.parts:
                if position < stop - start:
                    return table.row(start + position)
                position -= stop - start
        raise IndexError("history index out of range")

    def __iter__(self) -> Iterator[Operation]:
        for table, start, stop in self.parts:
            row = table.row
            for i in range(start, stop):
                yield row(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (HistoryView, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HistoryView({len(self)} operations)"


class HistoryRecorder:
    """Collects operations from every client in one benchmark run.

    Invocations are registered up front so that operations still in flight
    are not silently dropped: an invoked-but-unacknowledged write may have
    taken effect, and a sound linearizability check must account for it
    (see :meth:`snapshot`).
    """

    def __init__(self) -> None:
        self._table = OperationTable()
        self._pending: dict[int, tuple] = {}
        self._next_token = 0

    def record(self, operation: Operation) -> None:
        """Record an already-completed operation directly."""
        self._table.extend((operation,))

    def begin(self, client: Hashable, op: str, key: Hashable, value: Any, invoked_at: float) -> int:
        """Register an invocation; returns a token for :meth:`complete`."""
        self._next_token += 1
        self._pending[self._next_token] = (client, op, key, value, invoked_at)
        return self._next_token

    def complete(self, token: int, output: Any, returned_at: float) -> None:
        """Mark a pending invocation as completed."""
        client, op, key, value, invoked_at = self._pending.pop(token)
        self._table.append(client, op, key, value, output, invoked_at, returned_at)

    def discard(self, token: int) -> None:
        """Drop a pending invocation that is *known* never to have taken
        effect anywhere — a first-transmission request answered with an
        explicit ``Rejected`` before any replica processed it, or one a
        circuit breaker failed fast without transmitting.

        This is what makes shedding sound for the checkers: a cleanly
        rejected request leaves no trace in the history (rejected ≠ lost),
        whereas :meth:`snapshot` must keep a *maybe-applied* write open
        forever.  Never call this for a request that was retransmitted —
        an earlier copy may still be in flight and could land.
        """
        self._pending.pop(token, None)

    @property
    def operations(self) -> HistoryView:
        """Completed operations only, in completion order."""
        return HistoryView(((self._table, 0, len(self._table)),))

    def snapshot(self) -> HistoryView:
        """Completed operations plus in-flight **writes** (with an open
        response interval, ``returned_at = +inf``) — the sound input for the
        linearizability checker.  In-flight reads constrain nothing and are
        omitted.  The in-flight writes are a short table of their own after
        the completed rows, which are not copied."""
        in_flight = OperationTable()
        for client, op, key, value, invoked_at in self._pending.values():
            if op == "PUT":
                in_flight.append(client, op, key, value, value, invoked_at, math.inf)
        return HistoryView(
            ((self._table, 0, len(self._table)), (in_flight, 0, len(in_flight)))
        )

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def __len__(self) -> int:
        return len(self._table)
