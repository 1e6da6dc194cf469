"""Integration tests for EPaxos."""

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.protocols.epaxos import EPaxos

from tests.conftest import assert_correct, run_protocol


def _rounds(dep, message_type):
    """Rounds a command leader opened with ``message_type``: every round
    broadcasts one copy to each of the other n - 1 replicas."""
    copies = sum(node.sent[message_type] for node in dep.cluster.obs.metrics.nodes.values())
    assert copies % (dep.config.n - 1) == 0
    return copies // (dep.config.n - 1)


def test_single_command_commits_everywhere(lan9):
    dep = Deployment(lan9).start(EPaxos)
    client = dep.new_client()
    seen = []
    client.invoke(Command.put("x", "v"), on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.05)
    assert seen == ["v"]
    executed = [
        r for r in dep.replicas.values() if r.store.read("x") == "v"
    ]
    assert len(executed) == 9


def test_any_node_can_lead(lan9):
    dep = Deployment(lan9).start(EPaxos)
    seen = []
    for i, target in enumerate(dep.config.node_ids):
        client = dep.new_client()
        client.invoke(Command.put(f"k{i}", i), target=target, on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.1)
    assert sorted(seen) == list(range(9))


def test_fast_path_for_disjoint_keys(lan9):
    """Non-interfering commands commit on the fast path (one round)."""
    dep, res = run_protocol(EPaxos, lan9, WorkloadSpec(keys=100_000), concurrency=4)
    # Every command opens a PreAccept round; the slow path is exactly the
    # Accept round that follows a PreAccept round whose replies changed.
    slow = _rounds(dep, "Accept")
    total = _rounds(dep, "PreAccept")
    assert total > 100
    assert slow / total < 0.05
    assert_correct(dep)


def test_hot_key_takes_slow_path(lan9):
    dep, res = run_protocol(
        EPaxos, lan9, WorkloadSpec(keys=10, conflict_ratio=1.0, write_ratio=1.0), concurrency=6
    )
    slow = _rounds(dep, "Accept")
    assert slow > 20  # interference forces Accept rounds
    assert_correct(dep)


def test_conflict_hurts_latency(lan9):
    _d1, free = run_protocol(EPaxos, lan9, WorkloadSpec(keys=100_000), concurrency=6)
    _d2, hot = run_protocol(
        EPaxos,
        Config.lan(3, 3, seed=43),
        WorkloadSpec(keys=100_000, conflict_ratio=1.0),
        concurrency=6,
    )
    assert hot.latency.mean > free.latency.mean


def test_execution_order_identical_across_replicas(lan9):
    """The SCC executor must order interfering commands identically on
    every replica (the consensus checker's common-prefix property)."""
    dep, _res = run_protocol(
        EPaxos,
        lan9,
        WorkloadSpec(keys=2, write_ratio=1.0, conflict_ratio=0.5),
        concurrency=8,
        duration=0.3,
    )
    dep.run_for(0.3)  # drain commits
    histories = [r.store.history(0) for r in dep.replicas.values()]
    longest = max(histories, key=len)
    for h in histories:
        assert h == longest[: len(h)]
    assert_correct(dep)


def test_reads_see_writes(lan9):
    dep = Deployment(lan9).start(EPaxos)
    client_a = dep.new_client()
    client_b = dep.new_client()
    seen = []
    client_a.invoke(Command.put("k", "first"), target=NodeID(1, 1))
    dep.run_for(0.05)
    client_b.invoke(Command.get("k"), target=NodeID(3, 3), on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.05)
    assert seen == ["first"]


def test_fast_quorum_size_param():
    cfg = Config.lan(3, 3, seed=1, fast_quorum_size=9)
    dep = Deployment(cfg).start(EPaxos)
    assert dep.replicas[NodeID(1, 1)].fast_quorum_size == 9


def test_wan_latency_dominated_by_fast_quorum():
    """In a 3-region 9-node grid the 7-node fast quorum must reach a far
    region, so even conflict-free commands pay a WAN round trip."""
    cfg = Config.wan(("VA", "OH", "CA"), 3, seed=11)
    dep, res = run_protocol(
        EPaxos, cfg, WorkloadSpec(keys=100_000), concurrency=3, duration=0.5, settle=0.3
    )
    assert res.latency.mean > 40  # CA leg ~52-62 ms RTT
    assert_correct(dep)


def test_throughput_lowest_among_lan_protocols():
    """Figure 9: EPaxos performs worst in the Paxi LAN experiments."""
    from repro.protocols.paxos import MultiPaxos

    _de, ep = run_protocol(
        EPaxos, Config.lan(3, 3, seed=12), WorkloadSpec(keys=1000), concurrency=96, duration=0.3
    )
    _dp, paxos = run_protocol(
        MultiPaxos, Config.lan(3, 3, seed=12), WorkloadSpec(keys=1000), concurrency=96, duration=0.3
    )
    assert ep.throughput < paxos.throughput
