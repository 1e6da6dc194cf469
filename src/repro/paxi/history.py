"""Operation history recording for offline correctness checking.

Clients record one :class:`Operation` per completed request — with real
(virtual) invocation and response times — which feeds the linearizability
checker (:mod:`repro.checkers.linearizability`).  Replicas additionally
expose per-key state-machine histories for the consensus checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable


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


class HistoryRecorder:
    """Collects operations from every client in one benchmark run.

    Invocations are registered up front so that operations still in flight
    are not silently dropped: an invoked-but-unacknowledged write may have
    taken effect, and a sound linearizability check must account for it
    (see :meth:`snapshot`).
    """

    def __init__(self) -> None:
        self._operations: list[Operation] = []
        self._pending: dict[int, tuple] = {}
        self._next_token = 0

    def record(self, operation: Operation) -> None:
        """Record an already-completed operation directly."""
        self._operations.append(operation)

    def begin(self, client: Hashable, op: str, key: Hashable, value: Any, invoked_at: float) -> int:
        """Register an invocation; returns a token for :meth:`complete`."""
        self._next_token += 1
        self._pending[self._next_token] = (client, op, key, value, invoked_at)
        return self._next_token

    def complete(self, token: int, output: Any, returned_at: float) -> Operation:
        """Mark a pending invocation as completed."""
        client, op, key, value, invoked_at = self._pending.pop(token)
        operation = Operation(
            client=client,
            op=op,
            key=key,
            value=value,
            output=output,
            invoked_at=invoked_at,
            returned_at=returned_at,
        )
        self._operations.append(operation)
        return operation

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
    def operations(self) -> list[Operation]:
        """Completed operations only."""
        return list(self._operations)

    def snapshot(self) -> list[Operation]:
        """Completed operations plus in-flight **writes** (with an open
        response interval, ``returned_at = +inf``) — the sound input for the
        linearizability checker.  In-flight reads constrain nothing and are
        omitted."""
        import math

        out = list(self._operations)
        for client, op, key, value, invoked_at in self._pending.values():
            if op == "PUT":
                out.append(
                    Operation(
                        client=client,
                        op=op,
                        key=key,
                        value=value,
                        output=value,
                        invoked_at=invoked_at,
                        returned_at=math.inf,
                    )
                )
        return out

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def __len__(self) -> int:
        return len(self._operations)

    def per_key(self) -> dict[Hashable, list[Operation]]:
        """Operations grouped by key, sorted by invocation time — the input
        format of the paper's linearizability checker."""
        grouped: dict[Hashable, list[Operation]] = {}
        for operation in self._operations:
            grouped.setdefault(operation.key, []).append(operation)
        for ops in grouped.values():
            ops.sort(key=lambda o: o.invoked_at)
        return grouped

    def latencies(self) -> list[float]:
        return [op.latency for op in self._operations]
