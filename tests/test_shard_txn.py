"""Cross-shard 2PC: commit, abort, lock conflicts, coordinator crashes.

Every crash point in ``CRASH_POINTS`` is exercised: the coordinator dies
mid-protocol, ``recover_txns()`` replays its WAL, and the atomicity
checker plus the per-key linearizability checker audit the aftermath.
"""

import pytest

from repro.checkers.txn import check_txn_atomicity
from repro.errors import TxnAborted
from repro.paxi.config import Config
from repro.paxi.kvstore import MultiVersionStore
from repro.protocols.paxos import MultiPaxos
from repro.shard.cluster import ShardedCluster
from repro.shard.placement import ShardSpec, lock_key
from repro.shard.txn import CRASH_POINTS, ShardedTxnRuntime


def make_cluster(seed=17, count=4, buckets=16):
    cluster = ShardedCluster(
        Config.lan(3, 3, seed=seed, shards=ShardSpec(count=count, buckets=buckets))
    ).start(MultiPaxos)
    cluster.run_for(0.3)
    return cluster


def settle(machine, cluster, max_wait=5.0):
    deadline = cluster.now + max_wait
    while machine.finished is None and not machine.dead and cluster.now < deadline:
        cluster.run_for(0.005)
    return machine.finished


class TestCommitAndAbort:
    def test_commit_applies_all_writes_and_releases_locks(self):
        cluster = make_cluster()
        runtime = ShardedTxnRuntime(cluster)
        writes = {f"k{i}": f"v{i}" for i in range(5)}
        result = runtime.run(writes, reads=[])
        assert result.ok
        session = cluster.new_session()
        for key, value in writes.items():
            assert session.get(key).value == value
        check = check_txn_atomicity(cluster)
        assert check.ok and check.checked == 1

    def test_reads_return_snapshot_values_under_locks(self):
        cluster = make_cluster()
        session = cluster.new_session()
        session.put("a", "1")
        session.put("b", "2")
        result = ShardedTxnRuntime(cluster).run({"c": "3"}, reads=["a", "b"])
        assert result.values == {"a": "1", "b": "2"}

    def test_lock_conflict_aborts_the_later_transaction(self):
        cluster = make_cluster()
        first = ShardedTxnRuntime(cluster)
        second = ShardedTxnRuntime(cluster)
        machine_a = first.begin({"x": "a1", "y": "a2"}, [])
        machine_b = second.begin({"y": "b1", "z": "b2"}, [])
        for _ in range(2000):
            if machine_a.finished is not None and machine_b.finished is not None:
                break
            cluster.run_for(0.005)
        outcomes = sorted(
            m.finished.ok for m in (machine_a, machine_b) if m.finished is not None
        )
        assert outcomes == [False, True]  # exactly one wins the overlap
        loser = machine_a if not machine_a.finished.ok else machine_b
        assert "lock-conflict" in loser.finished.reason
        cluster.run_for(0.3)  # let the lock releases replicate everywhere
        check = check_txn_atomicity(cluster)
        assert check.ok, check.violations
        ok, groups_ok = cluster.verify()
        assert ok and groups_ok

    def test_check_reads_chains_in_place(self, monkeypatch):
        """The audit looks every write of a committed and of an aborted
        transaction up in each replica's chain without copying it."""
        cluster = make_cluster()
        machines = [
            ShardedTxnRuntime(cluster).begin(writes, [])
            for writes in ({"x": "a1", "y": "a2"}, {"y": "b1", "z": "b2"})
        ]
        for _ in range(2000):
            if all(m.finished is not None for m in machines):
                break
            cluster.run_for(0.005)
        assert sorted(m.finished.ok for m in machines) == [False, True]
        cluster.run_for(0.3)

        def copied(store, key):
            raise AssertionError("the txn checker copied a chain")

        monkeypatch.setattr(MultiVersionStore, "history", copied)
        check = check_txn_atomicity(cluster)
        assert check.ok and check.checked == 2, check.violations

    def test_sync_runtime_raises_typed_abort(self):
        cluster = make_cluster()
        blocker = ShardedTxnRuntime(cluster)
        machine = blocker.begin({"w": "held"}, [], crash_at="after_locks")
        settle(machine, cluster, max_wait=1.0)
        with pytest.raises(TxnAborted, match="lock-conflict"):
            ShardedTxnRuntime(cluster).run({"w": "mine"}, [])


class TestCoordinatorCrashRecovery:
    @pytest.mark.parametrize("crash_at", CRASH_POINTS)
    def test_every_crash_point_recovers_atomically(self, crash_at):
        cluster = make_cluster(seed=29)
        runtime = ShardedTxnRuntime(cluster)
        writes = {f"c{i}": f"{crash_at}-{i}" for i in range(4)}
        machine = runtime.begin(writes, [], crash_at=crash_at)
        settle(machine, cluster, max_wait=2.0)
        assert machine.dead and machine.finished is None
        # Before recovery the WAL is unresolved.
        assert not check_txn_atomicity(cluster).ok
        actions = cluster.recover_txns()
        assert len(actions) == 1
        txn_id, outcome = actions[0]
        assert txn_id == machine.txn_id
        committed = any(r[0] == "commit" for r in cluster.txn_wal[txn_id])
        assert outcome == ("rolled-forward" if committed else "aborted")
        cluster.run_for(0.3)
        check = check_txn_atomicity(cluster)
        assert check.ok, (crash_at, check.violations)
        session = cluster.new_session()
        for key, value in writes.items():
            observed = session.get(key).value
            assert observed == (value if committed else None), (crash_at, key)
        # Locks are free again: a fresh transaction over the same keys wins.
        assert ShardedTxnRuntime(cluster).run({k: v + "+2" for k, v in writes.items()}, []).ok
        ok, groups_ok = cluster.verify()
        assert ok and groups_ok, crash_at

    def test_recovery_is_idempotent(self):
        cluster = make_cluster(seed=31)
        machine = ShardedTxnRuntime(cluster).begin({"p": "1", "q": "2"}, [], crash_at="after_commit")
        settle(machine, cluster, max_wait=2.0)
        assert cluster.recover_txns()
        assert cluster.recover_txns() == []  # second pass: nothing left

    def test_crash_leaves_lock_visible_until_recovery(self):
        cluster = make_cluster(seed=37)
        machine = ShardedTxnRuntime(cluster).begin({"locked-key": "v"}, [], crash_at="after_locks")
        settle(machine, cluster, max_wait=2.0)
        group = cluster.group(cluster.shard_of("locked-key"))
        holders = {
            replica.store.read(lock_key("locked-key"))
            for replica in group.replicas.values()
        }
        assert machine.txn_id in holders
        cluster.recover_txns()
        cluster.run_for(0.3)
        holders = {
            replica.store.read(lock_key("locked-key"))
            for replica in group.replicas.values()
        }
        assert holders == {None}
