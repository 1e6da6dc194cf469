"""In-memory multi-version key-value store (paper section 4.1, "Data store").

Each replica owns a private store used as its deterministic state machine.
Every write creates a new version, and the full per-key version history is
retained so the consensus checker can compare state-machine histories across
nodes (the paper's consensus checker verifies all nodes' per-record
histories share a common prefix).  A key's chain is the plain list of the
values written to it, oldest first: version ``n`` is ``chain[n - 1]``.
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
    """A deterministic multi-version map from keys to version chains."""

    def __init__(self) -> None:
        self._chains: dict[Hashable, list[Any]] = {}
        self.executions = 0

    def execute(self, command: Command) -> Any:
        """Apply ``command`` and return the value the client should see.

        Reads return the latest committed value (or ``None`` for a key that
        was never written); writes append a new version and return the value
        they wrote, which lets the linearizability checker treat the reply
        as an acknowledgment.
        """
        self.executions += 1
        chain = self._chains.get(command.key)
        if command.is_read:
            return chain[-1] if chain else None
        if command.op == CAS:
            current = chain[-1] if chain else None
            if current != command.expect:
                return CasFailed(current)
        if chain is None:
            chain = []
            self._chains[command.key] = chain
        chain.append(command.value)
        return command.value

    def read(self, key: Hashable) -> Any:
        """Current value of ``key`` without counting as an execution."""
        chain = self._chains.get(key)
        return chain[-1] if chain else None

    def version(self, key: Hashable) -> int:
        """Number of committed writes to ``key``."""
        chain = self._chains.get(key)
        return len(chain) if chain else 0

    def history(self, key: Hashable) -> list[Any]:
        """All values ever written to ``key``, oldest first."""
        return list(self._chains.get(key, ()))

    def chain(self, key: Hashable) -> Sequence[Any]:
        """:meth:`history` without the copy, for readers that only look:
        the live chain (empty when ``key`` was never written)."""
        return self._chains.get(key, ())

    def adopt(self, key: Hashable, values: list[Any]) -> None:
        """Replace ``key``'s chain with ``values`` if it is an extension.

        Used when object ownership migrates between replication groups
        (WanKeeper token transfer, Vertical Paxos reassignment): the new
        group splices in the full committed history so that per-key
        histories remain common-prefix consistent across all nodes.
        A shorter (stale) incoming chain is ignored.
        """
        current = self._chains.get(key, [])
        if len(values) <= len(current):
            return
        self._chains[key] = list(values)

    def dump(self) -> dict[Hashable, list[Any]]:
        """Full per-key histories, for snapshots / state transfer.

        The dump keeps every version (not just the latest value) so a
        restored replica stays common-prefix consistent with its peers
        under the consensus checker.
        """
        return {key: list(chain) for key, chain in self._chains.items()}

    def restore(self, dump: dict[Hashable, list[Any]]) -> None:
        """Replace the store's contents with a :meth:`dump` (state transfer
        into a wiped or snapshot-restored replica)."""
        self._chains = {key: list(values) for key, values in dump.items()}

    def keys(self) -> list[Hashable]:
        return list(self._chains)

    def __len__(self) -> int:
        return len(self._chains)
