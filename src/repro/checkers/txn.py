"""Transaction atomicity checker for the 2PC layer (``repro.shard.txn``).

Complements the per-key linearizability checker: linearizability says each
individual GET/PUT is a correct register operation, this checker says the
*grouping* held — a committed transaction's writes all became durable state
in their owning groups, an aborted transaction's writes never surfaced
anywhere, and no transaction left a lock behind.

The check reads the coordinator WALs (``cluster.txn_wal``) and inspects
replica stores directly — it is an offline whole-cluster audit, like the
consensus checker, not an online client-side property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.shard.placement import lock_key

if TYPE_CHECKING:
    from repro.shard.cluster import ShardedCluster


@dataclass(frozen=True)
class TxnViolation:
    txn_id: str
    kind: str  # "lost-write" | "leaked-write" | "leaked-lock" | "unresolved"
    detail: str


@dataclass
class TxnCheckResult:
    ok: bool
    violations: list[TxnViolation] = field(default_factory=list)
    checked: int = 0


def _visible_anywhere(cluster: "ShardedCluster", key: Hashable, value) -> bool:
    """Is ``value`` in ``key``'s committed chain on any replica of any
    group?  (After a rebalance the chain lives in the new owner, but stale
    copies in the old group are fine — hence "anywhere" for presence and
    for absence checks alike.)  Reads each chain in place."""
    for group in cluster.groups:
        for replica in group.replicas.values():
            if value in replica.store.chain(key):
                return True
    return False


def _lock_holder(cluster: "ShardedCluster", key: Hashable):
    """Current value of ``key``'s lock cell in its owning group (None when
    unlocked or never locked)."""
    group = cluster.group(cluster.shard_of(key))
    for replica in group.replicas.values():
        value = replica.store.read(lock_key(key))
        if value is not None:
            return value
    return None


def check_txn_atomicity(cluster: "ShardedCluster") -> TxnCheckResult:
    """Audit every transaction in the coordinator WALs.

    - **committed** (COMMIT logged): every write value must be present in
      its key's committed chain — all-or-nothing, the "all" half;
    - **aborted** (no COMMIT): no write value may appear in any chain —
      the "nothing" half (aborts happen before any data write is issued);
    - **resolved** (END logged, possibly via ``recover_txns``): the
      transaction may hold no lock;
    - a WAL entry without END is flagged ``unresolved`` — run
      ``cluster.recover_txns()`` before checking.
    """
    violations: list[TxnViolation] = []
    checked = 0
    for txn_id, records in cluster.txn_wal.items():
        if not records:
            continue  # id allocated, transaction never started
        checked += 1
        kinds = [r[0] for r in records]
        begin = records[0]
        writes: dict = begin[2]
        committed = "commit" in kinds
        if "end" not in kinds:
            violations.append(
                TxnViolation(
                    txn_id,
                    "unresolved",
                    "WAL has no END record; run cluster.recover_txns() first",
                )
            )
            continue
        for key, value in writes.items():
            visible = _visible_anywhere(cluster, key, value)
            if committed and not visible:
                violations.append(
                    TxnViolation(
                        txn_id,
                        "lost-write",
                        f"committed write {key!r}={value!r} is in no replica's chain",
                    )
                )
            if not committed and visible:
                violations.append(
                    TxnViolation(
                        txn_id,
                        "leaked-write",
                        f"aborted write {key!r}={value!r} surfaced in a chain",
                    )
                )
        for record in records:
            if record[0] != "locked":
                continue
            holder = _lock_holder(cluster, record[1])
            if holder == txn_id:
                violations.append(
                    TxnViolation(
                        txn_id,
                        "leaked-lock",
                        f"lock on {record[1]!r} still held after END",
                    )
                )
    return TxnCheckResult(ok=not violations, violations=violations, checked=checked)
