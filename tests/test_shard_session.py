"""ShardedCluster routing + the Session surface over it.

The load-bearing test here is the golden parity check: a single-shard
ShardedCluster must be *byte-identical* to a plain Deployment — same
operation history, same virtual-clock reading — because shard 0 of a
1-shard layout derives the identical configuration and shares the event
loop mechanics of the unsharded runtime.
"""

import pytest

from repro.errors import ConfigError, NoQuorum, PlacementError
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.paxi.session import SessionOptions
from repro.protocols.paxos import MultiPaxos
from repro.shard.cluster import ShardedCluster
from repro.shard.placement import ShardSpec
from repro.shard.session import ShardedSession


def drive_session(runtime):
    """Identical scripted workload against any Session provider."""
    runtime.run_for(0.3)
    session = runtime.new_session()
    out = []
    for i in range(10):
        out.append(session.put(f"key-{i}", f"value-{i}"))
    for i in range(10):
        out.append(session.get(f"key-{i}"))
    runtime.run_for(0.2)
    return out


def history_tuples(runtime):
    return [
        (op.client, op.op, op.key, op.value, op.output, op.invoked_at, op.returned_at)
        for op in runtime.history.operations
    ]


class TestSingleShardParity:
    def test_single_shard_cluster_is_byte_identical_to_deployment(self):
        plain = Deployment(Config.lan(3, 3, seed=11)).start(MultiPaxos)
        single = ShardedCluster(
            Config.lan(3, 3, seed=11, shards=ShardSpec(count=1))
        ).start(MultiPaxos)
        results_plain = drive_session(plain)
        results_single = drive_session(single)
        assert [r.value for r in results_plain] == [r.value for r in results_single]
        assert history_tuples(plain) == history_tuples(single)
        assert plain.now == single.now


class TestRouting:
    def test_commands_spread_over_all_groups_and_read_back(self):
        cluster = ShardedCluster(
            Config.lan(3, 3, seed=3, shards=ShardSpec(count=4, buckets=16))
        ).start(MultiPaxos)
        cluster.run_for(0.3)
        session = cluster.new_session()
        for i in range(40):
            assert session.put(f"k{i}", f"v{i}").ok
        touched = {cluster.shard_of(f"k{i}") for i in range(40)}
        assert touched == {0, 1, 2, 3}
        for i in range(40):
            assert session.get(f"k{i}").value == f"v{i}"
        ok, groups_ok = cluster.verify()
        assert ok and groups_ok

    def test_each_group_only_sees_its_own_keys(self):
        cluster = ShardedCluster(
            Config.lan(3, 3, seed=3, shards=ShardSpec(count=2, buckets=8))
        ).start(MultiPaxos)
        cluster.run_for(0.3)
        session = cluster.new_session()
        keys = [f"k{i}" for i in range(20)]
        for key in keys:
            session.put(key, key + "!")
        cluster.run_for(0.2)
        for key in keys:
            owner = cluster.shard_of(key)
            other = cluster.group(1 - owner)
            for replica in other.replicas.values():
                assert replica.store.read(key) is None

    def test_unknown_site_and_shard_are_actionable(self):
        cluster = ShardedCluster(
            Config.lan(3, 3, seed=3, shards=ShardSpec(count=2, buckets=8))
        ).start(MultiPaxos)
        with pytest.raises(ConfigError):
            cluster.new_client(site="nowhere")
        with pytest.raises(PlacementError, match="shard"):
            cluster.group(7)


class TestShardedSession:
    def test_new_session_returns_sharded_session_with_options(self):
        cluster = ShardedCluster(
            Config.lan(3, 3, seed=13, shards=ShardSpec(count=2, buckets=8))
        ).start(MultiPaxos)
        cluster.run_for(0.3)
        session = cluster.new_session(SessionOptions(max_wait=2.0))
        assert isinstance(session, ShardedSession)
        assert session.put("a", "1").ok

    def test_session_txn_commits_across_groups(self):
        cluster = ShardedCluster(
            Config.lan(3, 3, seed=13, shards=ShardSpec(count=4, buckets=16))
        ).start(MultiPaxos)
        cluster.run_for(0.3)
        session = cluster.new_session()
        keys = [f"t{i}" for i in range(6)]
        assert len({cluster.shard_of(k) for k in keys}) > 1  # genuinely cross-shard
        result = session.txn(writes={k: k.upper() for k in keys})
        assert result.ok
        for k in keys:
            assert session.get(k).value == k.upper()
        ok, groups_ok = cluster.verify()
        assert ok and groups_ok


class TestShardedSessionGivesUp:
    """``Session.execute`` abandons a call that ran out of patience; the
    routing facade must carry that through to the per-group client."""

    def _cluster(self):
        cluster = ShardedCluster(
            Config.lan(3, 3, seed=13, shards=ShardSpec(count=2, buckets=8))
        ).start(MultiPaxos)
        cluster.run_for(0.3)
        return cluster

    def test_timed_out_call_is_abandoned_at_the_group_client(self, monkeypatch):
        cluster = self._cluster()
        shard = cluster.shard_of("x")
        victim = NodeID(3, 3)
        cluster.crash(victim, 0.2, shard=shard)  # frozen, not dead: it answers late
        cluster.run_for(0.01)
        session = cluster.new_session(max_wait=0.05)
        routed = session.client
        network = cluster.group(shard).cluster.network
        replies = []
        transit = network.transit

        def spy(src, dst, message, size_bytes):
            if dst == routed.client_for_shard(shard).address:
                replies.append(message)
            transit(src, dst, message, size_bytes)

        monkeypatch.setattr(network, "transit", spy)
        result = session.execute(Command.put("x", 1), opts=SessionOptions(target=victim))
        assert not result.ok and result.failure == "timeout"
        assert routed.outstanding == 0 and not replies

        completed, failed = routed.completed, routed.failed
        history = cluster.history.snapshot()
        cluster.run_for(0.5)  # the victim thaws, the write commits, the reply comes back
        assert len(replies) == 1  # the late reply
        assert (routed.completed, routed.failed) == (completed, failed)
        assert cluster.history.snapshot() == history
        assert session.put("y", 2).ok

    def test_strict_timeout_still_raises_no_quorum(self):
        cluster = self._cluster()
        victim = NodeID(3, 3)
        cluster.crash(victim, 0.2, shard=cluster.shard_of("x"))
        cluster.run_for(0.01)
        session = cluster.new_session(SessionOptions(max_wait=0.05, strict=True))
        with pytest.raises(NoQuorum):
            session.execute(Command.put("x", 1), opts=SessionOptions(target=victim))
        assert session.client.outstanding == 0

    def test_call_deferred_behind_a_migration_is_never_issued(self):
        cluster = self._cluster()
        src = cluster.shard_of("x")
        bucket = cluster.placement.bucket_of("x")
        victim = NodeID(3, 3)
        cluster.crash(victim, 0.2, shard=src)
        cluster.run_for(0.01)
        # A straggler bound for the frozen node keeps the bucket draining.
        straggler = cluster.new_client()
        straggler.invoke(Command.put("x", 0), target=victim)
        cluster.rebalance(bucket, 1 - src, drain_timeout=1.0)
        cluster.run_for(0.001)
        session = cluster.new_session(max_wait=0.05)
        result = session.put("x", 1)  # deferred for its whole patience
        assert not result.ok and result.failure == "timeout"
        assert not cluster.rebalances

        cluster.run_for(0.5)  # straggler lands, the bucket flips, the flush runs
        (record,) = cluster.rebalances
        assert record.deferred_ops == 0 and not record.forced
        assert session.client.outstanding == 0
        assert session.get("x").value == 0


def _answers(client, request_id):
    return (
        client.attempts(request_id),
        client.abandoned(request_id),
        client.failure_reason(request_id),
    )


class TestRoutedClientAnswers:
    """However a request concluded, and whether or not the routing facade
    still holds it, the facade answers what the group client that carried
    it answers — and ``abandon`` of a concluded request changes nothing."""

    @pytest.fixture(params=[1, 2], ids=["passthrough", "tracked"])
    def cluster(self, request):
        spec = ShardSpec(count=request.param, buckets=8)
        cluster = ShardedCluster(Config.lan(3, 3, seed=13, shards=spec)).start(MultiPaxos)
        cluster.run_for(0.3)
        return cluster

    def _invoke(self, routed, key="x"):
        request_id = routed.invoke(Command.put(key, 1))
        client, underlying = routed._issued[request_id]
        return request_id, client, underlying

    def _cut_off(self, cluster, routed, key, duration):
        """Drop everything the key's group client sends for ``duration``."""
        shard = cluster.shard_of(key)
        client, group = routed.client_for_shard(shard), cluster.group(shard)
        for node in group.config.node_ids:
            group.drop(client.address, node, duration)

    def _assert_same_after_abandon(self, routed, request_id, client, underlying):
        answers, failed = _answers(client, underlying), client.failed
        assert _answers(routed, request_id) == answers
        routed.abandon(request_id)  # concluded: a no-op
        assert _answers(routed, request_id) == _answers(client, underlying) == answers
        assert client.failed == failed
        return answers

    def test_single_attempt_success(self, cluster):
        routed = cluster.new_client()
        request_id, client, underlying = self._invoke(routed)
        cluster.run_for(0.2)
        assert client.completed == 1
        answers = self._assert_same_after_abandon(routed, request_id, client, underlying)
        assert answers == (1, False, None)

    def test_retried_success(self, cluster):
        routed = cluster.new_client()
        routed.retry_timeout = 0.02
        self._cut_off(cluster, routed, "x", 0.03)
        request_id, client, underlying = self._invoke(routed)
        cluster.run_for(0.5)
        assert client.completed == 1
        attempts, abandoned, reason = self._assert_same_after_abandon(
            routed, request_id, client, underlying
        )
        assert attempts > 1 and not abandoned and reason is None

    def test_timed_out_failure(self, cluster):
        routed = cluster.new_client()
        routed.retry_timeout, routed.max_attempts = 0.02, 2
        self._cut_off(cluster, routed, "x", 1.0)
        request_id, client, underlying = self._invoke(routed)
        cluster.run_for(0.5)
        answers = self._assert_same_after_abandon(routed, request_id, client, underlying)
        assert answers == (2, True, "retries_exhausted")

    def test_abandoned_request(self, cluster):
        routed = cluster.new_client()
        request_id, client, underlying = self._invoke(routed)
        routed.abandon(request_id)
        cluster.run_for(0.2)
        answers = self._assert_same_after_abandon(routed, request_id, client, underlying)
        assert answers == (1, True, "abandoned")

    def test_request_deferred_behind_a_rebalance(self):
        spec = ShardSpec(count=2, buckets=8)
        cluster = ShardedCluster(Config.lan(3, 3, seed=13, shards=spec)).start(MultiPaxos)
        cluster.run_for(0.3)
        src, bucket = cluster.shard_of("x"), cluster.placement.bucket_of("x")
        victim = NodeID(3, 3)
        cluster.crash(victim, 0.2, shard=src)
        cluster.run_for(0.01)
        # A straggler bound for the frozen node keeps the bucket draining.
        cluster.new_client().invoke(Command.put("x", 0), target=victim)
        cluster.rebalance(bucket, 1 - src, drain_timeout=1.0)
        cluster.run_for(0.001)
        routed = cluster.new_client()
        request_id = routed.invoke(Command.put("x", 1))
        assert request_id not in routed._issued  # deferred, never transmitted
        assert _answers(routed, request_id) == (1, False, None)

        cluster.run_for(0.5)  # the straggler lands, the bucket flips, the flush runs
        assert len(cluster.rebalances) == 1
        client = routed.client_for_shard(1 - src)
        assert client.completed == 1
        answers = self._assert_same_after_abandon(routed, request_id, client, 1)
        assert answers == (1, False, None)
