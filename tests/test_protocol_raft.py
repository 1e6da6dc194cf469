"""Integration tests for Raft (the etcd stand-in of Figure 7)."""

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.protocols.raft import LEADER, Raft

from tests.conftest import assert_correct, run_protocol


def test_bootstrap_leader_elected(lan9):
    dep = Deployment(lan9).start(Raft)
    dep.run_for(0.05)
    assert dep.replicas[NodeID(1, 1)].state == LEADER
    assert all(r.leader_hint == NodeID(1, 1) for r in dep.replicas.values())


def test_write_read_roundtrip(lan9):
    dep = Deployment(lan9).start(Raft)
    dep.run_for(0.05)
    client = dep.new_client()
    seen = []
    client.invoke(Command.put("x", "v1"), on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.05)
    client.invoke(Command.get("x"), on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.05)
    assert seen == ["v1", "v1"]


def test_log_replication_converges(lan9):
    dep, _res = run_protocol(Raft, lan9, WorkloadSpec(keys=3, write_ratio=1.0), concurrency=2)
    dep.run_for(0.3)
    leader_log = dep.replicas[NodeID(1, 1)].log
    for replica in dep.replicas.values():
        prefix = replica.log[: len(leader_log)]
        assert [rec for _i, rec in prefix] == [rec for _i, rec in leader_log[: len(prefix)]]
    assert_correct(dep)


def test_linearizable_under_contention(lan9):
    dep, res = run_protocol(Raft, lan9, WorkloadSpec(keys=1), concurrency=8)
    assert res.completed > 100
    assert_correct(dep)


def test_leader_crash_triggers_new_term_and_recovery():
    cfg = Config.lan(3, 3, seed=6)
    dep = Deployment(cfg).start(Raft)
    bench = ClosedLoopBenchmark(dep, WorkloadSpec(keys=5), concurrency=4, retry_timeout=0.2)
    dep.crash(NodeID(1, 1), duration=1.5, at=0.3)
    result = bench.run(duration=2.5, warmup=0.0, settle=0.05)
    leaders = [r for r in dep.replicas.values() if r.state == LEADER]
    assert any(r.term > 1 for r in dep.replicas.values())
    late_ops = [op for op in dep.history.operations if op.returned_at > 1.5]
    assert len(late_ops) > 100
    assert result.failed == 0
    assert_correct(dep)


def test_stale_leader_steps_down_after_thaw():
    cfg = Config.lan(3, 3, seed=7)
    dep = Deployment(cfg).start(Raft)
    bench = ClosedLoopBenchmark(dep, WorkloadSpec(keys=5), concurrency=2, retry_timeout=0.2)
    dep.crash(NodeID(1, 1), duration=1.0, at=0.2)
    bench.run(duration=2.5, warmup=0.0, settle=0.05)
    dep.run_for(0.5)
    old = dep.replicas[NodeID(1, 1)]
    leaders = [r.id for r in dep.replicas.values() if r.state == LEADER]
    assert len(leaders) == 1
    assert_correct(dep)


def test_vote_denied_to_stale_log():
    """A candidate with a shorter log must not win (election safety)."""
    dep = Deployment(Config.lan(1, 3, seed=8)).start(Raft)
    dep.run_for(0.05)
    client = dep.new_client()
    for i in range(5):
        client.invoke(Command.put("k", f"v{i}"))
    dep.run_for(0.1)
    a, b, c = dep.config.node_ids
    # Node c misses everything from now on, then campaigns.
    follower = dep.replicas[c]
    follower.log = follower.log[:1]  # amputate its log
    follower.commit_index = min(follower.commit_index, 1)
    follower._campaign()
    dep.run_for(0.1)
    assert follower.state != LEADER


def test_throughput_close_to_paxos(lan9):
    """Figure 7: Paxi/Paxos and Raft converge to similar max throughput."""
    from repro.protocols.paxos import MultiPaxos

    _dp, paxos = run_protocol(MultiPaxos, Config.lan(3, 3, seed=9), concurrency=96, duration=0.3)
    _dr, raft = run_protocol(Raft, Config.lan(3, 3, seed=9), concurrency=96, duration=0.3)
    assert raft.throughput == pytest.approx(paxos.throughput, rel=0.3)
