"""In-memory multi-version key-value store (paper section 4.1, "Data store").

Each replica owns a store used as its deterministic state machine.  Every
write creates a new version, and the full per-key version history is
retained so the consensus checker can compare state-machine histories across
nodes (the paper's consensus checker verifies all nodes' per-record
histories share a common prefix).  A key's chain is the list of the values
written to it, oldest first: version ``n`` is ``chain[n - 1]``.

Correct replicas apply the same values in the same order, so their chains
are prefixes of one another and a group stores each chain once: the
:class:`~repro.paxi.deployment.Deployment` owns the *book*, one append-only
list per key, and a replica's store keeps per key only how many versions it
has applied, ``n``; its chain is ``book[key][:n]``.  A replica writing at
position ``n`` appends to the book when it is the first to get there, and
otherwise finds the value already there and just advances ``n``.  A replica
that writes a different value **forks**: from then on it keeps a private
list for that key, so a divergent replica reaches the checkers with exactly
the chain it built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from repro.paxi.message import CAS, Command


@dataclass(frozen=True)
class CasFailed:
    """Reply value for a compare-and-swap whose expectation did not hold.

    Carries the value the key actually had at execution time, so the caller
    (e.g. the 2PC lock manager) can see who holds a contended lock.  The
    command executes deterministically — every replica computes the same
    outcome at the same log position — so a failed CAS appends nothing and
    state machines stay identical.
    """

    current: Any


class MultiVersionStore:
    """A deterministic multi-version map from keys to version chains, each
    held as a prefix of the group's book (or as a fork of it)."""

    def __init__(self, book: dict[Hashable, list[Any]] | None = None) -> None:
        #: The group's chains, shared by every store built on it; a store
        #: built without one (a unit test) makes a private book.
        self._book: dict[Hashable, list[Any]] = {} if book is None else book
        #: Versions applied per written key, in first-write order.
        self._applied: dict[Hashable, int] = {}
        #: This store's own chain for each key on which it left the book.
        self._forks: dict[Hashable, list[Any]] = {}
        self.executions = 0

    def execute(self, command: Command) -> Any:
        """Apply ``command`` and return the value the client should see.

        Reads return the latest committed value (or ``None`` for a key that
        was never written); writes append a new version and return the value
        they wrote, which lets the linearizability checker treat the reply
        as an acknowledgment.
        """
        self.executions += 1
        key = command.key
        n = self._applied.get(key, 0)
        forks = self._forks
        chain = forks[key] if forks and key in forks else self._book.get(key)
        if command.is_read:
            return chain[n - 1] if n else None
        if command.op == CAS:
            current = chain[n - 1] if n else None
            if current != command.expect:
                return CasFailed(current)
        value = command.value
        if chain is None:
            self._book[key] = [value]
        elif n == len(chain):
            chain.append(value)
        elif chain[n] is not value and chain[n] != value:
            forks[key] = chain[:n] + [value]
        self._applied[key] = n + 1
        return value

    def _values(self, key: Hashable) -> list[Any]:
        """The list this store's chain for a written ``key`` is a prefix of."""
        forks = self._forks
        return forks[key] if forks and key in forks else self._book[key]

    def read(self, key: Hashable) -> Any:
        """Current value of ``key`` without counting as an execution."""
        n = self._applied.get(key)
        return self._values(key)[n - 1] if n else None

    def version(self, key: Hashable) -> int:
        """Number of committed writes to ``key``."""
        return self._applied.get(key, 0)

    def history(self, key: Hashable) -> list[Any]:
        """All values ever written to ``key``, oldest first."""
        n = self._applied.get(key)
        return self._values(key)[:n] if n else []

    def chain(self, key: Hashable) -> Sequence[Any]:
        """:meth:`history` without the copy when this store is not behind
        the list it reads (empty when ``key`` was never written)."""
        n = self._applied.get(key)
        if not n:
            return ()
        values = self._values(key)
        return values if n == len(values) else values[:n]

    def _join(self, key: Hashable, values: Sequence[Any]) -> None:
        """Make ``values`` this store's chain for ``key``: a prefix of the
        book when the two agree (extending it when ``values`` is longer),
        a fork of it otherwise."""
        values = list(values)
        book = self._book.setdefault(key, [])
        shared = min(len(book), len(values))
        self._forks.pop(key, None)
        if book[:shared] == values[:shared]:
            book.extend(values[shared:])
        else:
            self._forks[key] = values
        self._applied[key] = len(values)

    def adopt(self, key: Hashable, values: list[Any]) -> None:
        """Replace ``key``'s chain with ``values`` if it is an extension.

        Used when object ownership migrates between replication groups
        (WanKeeper token transfer, Vertical Paxos reassignment): the new
        group splices in the full committed history so that per-key
        histories remain common-prefix consistent across all nodes.
        A shorter (stale) incoming chain is ignored.
        """
        if len(values) > self.version(key):
            self._join(key, values)

    def dump(self) -> dict[Hashable, list[Any]]:
        """Full per-key histories, for snapshots / state transfer.

        The dump keeps every version (not just the latest value) so a
        restored replica stays common-prefix consistent with its peers
        under the consensus checker.
        """
        return {key: self._values(key)[:n] for key, n in self._applied.items()}

    def restore(self, dump: dict[Hashable, list[Any]]) -> None:
        """Replace the store's contents with a :meth:`dump` (state transfer
        into a wiped or snapshot-restored replica)."""
        self._applied = {}
        self._forks = {}
        for key, values in dump.items():
            self._join(key, values)

    def keys(self) -> list[Hashable]:
        return list(self._applied)

    def __len__(self) -> int:
        return len(self._applied)
