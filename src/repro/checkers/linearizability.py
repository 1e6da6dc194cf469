"""Offline read/write linearizability checker (paper section 4.2).

The paper adopts the simple offline checker from Facebook's TAO consistency
study: per key, take all operations sorted by invocation time, maintain a
graph whose vertices are operations and whose edges are ordering
constraints, and report a violation if the graph has a cycle; additionally
report the individual *anomalous reads* — reads that returned a value no
linearizable execution could return.

Assumptions (guaranteed by the workload generator): every write value is
unique per key, and keys are independent registers.

Constraint edges per key:

- **real time**: ``a -> b`` whenever ``a`` returned before ``b`` was invoked;
- **read-from**: ``w(v) -> r`` whenever read ``r`` returned ``v`` written by
  ``w(v)`` (a read of the initial value reads from a virtual write that
  precedes everything);
- **no intervening write**: ``r -> w2`` for every write ``w2`` that
  real-time-follows the write ``r`` read from — if ``w2`` were ordered
  before ``r``, ``r`` could not have returned ``v`` any more.

A cycle then corresponds exactly to a future or stale read.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, count as count_from, islice
from typing import Hashable, Iterable

from repro.errors import CheckerError
from repro.paxi.history import HistoryView, Operation, OperationTable


@dataclass(frozen=True)
class Anomaly:
    """One anomalous read, with the reason it is not linearizable."""

    read: Operation
    kind: str  # "dirty-read" | "future-read" | "stale-read" | "lost-update"
    detail: str


@dataclass
class CheckResult:
    """Outcome of a linearizability check."""

    ok: bool
    anomalies: list[Anomaly] = field(default_factory=list)
    checked_operations: int = 0
    checked_keys: int = 0

    def __bool__(self) -> bool:
        return self.ok


def check_history(operations: Iterable[Operation]) -> CheckResult:
    """Check a full multi-key history; keys are independent registers.

    A :class:`~repro.paxi.history.HistoryView` is read straight from its
    columns; any other iterable is appended to a fresh table first.  An
    :class:`Operation` is built only for an anomalous read.
    """
    if isinstance(operations, HistoryView):
        parts = operations.parts
    else:
        table = OperationTable()
        table.extend(operations)
        parts = ((table, 0, len(table)),)
    # Each key's reads and writes as positions in the parts laid end to end.
    # Arrays are not tracked by the garbage collector, so grouping a long
    # history does not set off collections over the whole heap.
    reads: defaultdict[Hashable, array] = defaultdict(_positions)
    writes: defaultdict[Hashable, array] = defaultdict(_positions)
    firsts = []  # the position of each part's first row
    count = 0
    for table, start, stop in parts:
        firsts.append(count)
        key_column, code_column = islice(table.keys, start, stop), islice(table.codes, start, stop)
        for position, key, code in zip(count_from(count), key_column, code_column):
            (writes if code else reads)[key].append(position)
        count += stop - start

    def first_row(key: Hashable) -> int:
        return min(rows[0] for rows in (reads.get(key), writes.get(key)) if rows)

    no_rows = _positions()
    keys = sorted(reads.keys() | writes.keys(), key=first_row)
    anomalies: list[Anomaly] = []
    for key in keys:
        key_reads = _runs(parts, firsts, reads.get(key, no_rows))
        key_writes = _runs(parts, firsts, writes.get(key, no_rows))
        anomalies.extend(_check_key(key_reads, key_writes))
    return CheckResult(
        ok=not anomalies,
        anomalies=anomalies,
        checked_operations=count,
        checked_keys=len(keys),
    )


def _positions() -> array:
    return array("q")


def _runs(parts, firsts: list[int], positions: array) -> list[tuple[OperationTable, int, array]]:
    """Split sorted ``positions`` by part: ``(table, offset, positions)``
    per part holding some, where ``position + offset`` is the table row."""
    runs = []
    for (table, start, stop), first in zip(parts, firsts):
        lo = bisect_left(positions, first)
        hi = bisect_left(positions, first + stop - start, lo)
        if lo < hi:
            runs.append((table, start - first, positions[lo:hi]))
    return runs


def _check_key(
    reads: list[tuple[OperationTable, int, array]],
    writes: list[tuple[OperationTable, int, array]],
) -> list[Anomaly]:
    """Anomalous-read detection for one key (TAO-style), in O(log W) per read.

    With the key's writes sorted by response time and a running maximum of
    their invocation times, "some write strictly followed the source and
    strictly preceded the read" is one comparison: the latest invocation
    among writes that returned before the read began, against the source's
    response.  The source itself never passes it (it is invoked before it
    returns).
    """
    # value -> (invoked_at, returned_at) of the one write of it
    sources: dict[Hashable, tuple[float, float]] = {}
    by_response: list[tuple[float, float, OperationTable, int]] = []
    for table, offset, positions in writes:
        times, data = table.times, table.data
        for position in positions:
            i = position + offset
            value = data[i]
            if value in sources:
                raise CheckerError(
                    f"duplicate write value {value!r}; the checker needs "
                    "unique write values per key"
                )
            interval = sources[value] = (times[2 * i], times[2 * i + 1])
            by_response.append((interval[1], interval[0], table, i))
    by_response.sort(key=_response)
    returned = [w[0] for w in by_response]
    # latest[j]: the last invocation among by_response[:j + 1]
    latest = list(accumulate((w[1] for w in by_response), max))

    anomalies: list[Anomaly] = []
    for table, offset, positions in reads:
        times, data = table.times, table.data
        for position in positions:
            i = position + offset
            output = data[i]
            invoked_at = times[2 * i]
            if output is None:
                # Reading the initial value: anomalous if any write strictly
                # preceded the read in real time.
                if returned and returned[0] < invoked_at:
                    _ret, _inv, other, row = by_response[0]
                    detail = (
                        f"returned initial value although write of "
                        f"{other.data[row]!r} completed at {_ret:.6f} "
                        f"before the read began at {invoked_at:.6f}"
                    )
                    anomalies.append(_anomaly(table, i, "stale-read", detail))
                continue
            source = sources.get(output)
            if source is None:
                detail = f"returned {output!r}, which no client wrote"
                anomalies.append(_anomaly(table, i, "dirty-read", detail))
            elif source[0] > times[2 * i + 1]:
                detail = (
                    f"returned {output!r} before its write was invoked "
                    f"({source[0]:.6f} > {times[2 * i + 1]:.6f})"
                )
                anomalies.append(_anomaly(table, i, "future-read", detail))
            else:
                before = bisect_left(returned, invoked_at)
                if before and latest[before - 1] > source[1]:
                    _ret, _inv, other, row = max(by_response[:before], key=_invocation)
                    detail = (
                        f"returned {output!r} although {other.data[row]!r} was "
                        f"written strictly in between"
                    )
                    anomalies.append(_anomaly(table, i, "stale-read", detail))
    # Reads in (invoked_at, returned_at) order, ties in input order.
    anomalies.sort(key=lambda a: (a.read.invoked_at, a.read.returned_at))
    return anomalies


def _response(write: tuple[float, float, OperationTable, int]) -> float:
    return write[0]


def _invocation(write: tuple[float, float, OperationTable, int]) -> float:
    return write[1]


def _anomaly(table: OperationTable, row: int, kind: str, detail: str) -> Anomaly:
    return Anomaly(table.row(row), kind, detail)


# ----------------------------------------------------------------------
# Graph form (cycle detection), as described in the paper
# ----------------------------------------------------------------------


def constraint_graph(ops: list[Operation]) -> dict[int, set[int]]:
    """Build the constraint graph for one key's operations.

    Vertices are indices into ``ops``; returns an adjacency mapping.
    """
    ops = sorted(ops, key=lambda o: (o.invoked_at, o.returned_at))
    writes = [(i, op) for i, op in enumerate(ops) if not op.is_read]
    by_value = {op.value: i for i, op in writes}
    edges: dict[int, set[int]] = {i: set() for i in range(len(ops))}
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i != j and a.returned_at < b.invoked_at:
                edges[i].add(j)  # real-time order
    for i, op in enumerate(ops):
        if not op.is_read:
            continue
        if op.output is None:
            # Reads-from the virtual initial write: must precede every write.
            for j, _w in writes:
                edges[i].add(j)
            continue
        source = by_value.get(op.output)
        if source is None:
            continue  # dirty read; caught by check_history
        edges[source].add(i)  # read-from
        for j, w2 in writes:
            if j != source and w2.invoked_at > ops[source].returned_at:
                edges[i].add(j)  # no intervening write
    return edges


def has_cycle(edges: dict[int, set[int]]) -> bool:
    """Iterative three-color DFS cycle detection."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in edges}
    for root in edges:
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(edges[root]))]
        color[root] = GRAY
        while stack:
            vertex, neighbors = stack[-1]
            advanced = False
            for nxt in neighbors:
                if color[nxt] == GRAY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(edges[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[vertex] = BLACK
                stack.pop()
    return False


def check_history_graph(operations: Iterable[Operation]) -> bool:
    """Graph/cycle formulation of the same check: True iff linearizable."""
    per_key: dict[Hashable, list[Operation]] = {}
    for op in operations:
        per_key.setdefault(op.key, []).append(op)
    return all(not has_cycle(constraint_graph(ops)) for ops in per_key.values())
