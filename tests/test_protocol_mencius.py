"""Integration tests for Mencius (the framework-demonstration protocol)."""

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.protocols.mencius import Mencius

from tests.conftest import assert_correct, run_protocol


def test_round_robin_slot_ownership(lan9):
    dep = Deployment(lan9).start(Mencius)
    first = dep.replicas[NodeID(1, 1)]
    last = dep.replicas[NodeID(3, 3)]
    assert first.owner_of(0) == 0 and first.owner_of(9) == 0
    assert last.owner_of(8) == 8
    assert first.next_own_slot == 0
    assert last.next_own_slot == 8


def test_any_node_commits_in_one_round(lan9):
    dep = Deployment(lan9).start(Mencius)
    seen = []
    for i, target in enumerate(dep.config.node_ids):
        client = dep.new_client()
        client.invoke(Command.put(f"k{i}", i), target=target, on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.2)
    assert sorted(seen) == list(range(9))
    assert_correct(dep)


def test_idle_nodes_skip_their_slots(lan9):
    """One busy node must not stall behind eight idle ones: their slots
    get skipped and the log advances."""
    dep = Deployment(lan9).start(Mencius)
    client = dep.new_client()
    done = []
    for i in range(10):
        client.invoke(Command.put("k", i), target=NodeID(1, 1), on_done=lambda r, l: done.append(l * 1e3))
        dep.run_for(0.1)
    assert len(done) == 10
    assert max(done) < 10  # every commit near-local despite idle peers
    replica = dep.replicas[NodeID(2, 2)]
    assert replica.store.read("k") == 9
    skipped = sum(1 for s in replica.log.entries.values() if s.committed and s.command is None)
    assert skipped > 0
    assert_correct(dep)


def test_execution_is_global_slot_order(lan9):
    """Interleaved proposals from different nodes execute identically
    everywhere (strict slot order)."""
    dep, res = run_protocol(
        Mencius, lan9, WorkloadSpec(keys=2, write_ratio=1.0), concurrency=8, duration=0.3
    )
    dep.run_for(0.3)
    histories = [r.store.history(0) for r in dep.replicas.values()]
    longest = max(histories, key=len)
    for h in histories:
        assert h == longest[: len(h)]
    assert_correct(dep)


def test_no_single_leader_bottleneck(lan9):
    """Rotating ownership clears the ~8k single-leader ceiling."""
    from repro.protocols.paxos import MultiPaxos

    _dm, mencius = run_protocol(
        Mencius, Config.lan(3, 3, seed=83), WorkloadSpec(keys=1000), concurrency=128, duration=0.3
    )
    _dp, paxos = run_protocol(
        MultiPaxos, Config.lan(3, 3, seed=83), WorkloadSpec(keys=1000), concurrency=128, duration=0.3
    )
    assert mencius.throughput > 1.8 * paxos.throughput


def test_wan_latency_paced_by_farthest_replica():
    """The known Mencius trade-off: execution waits for every node's skips,
    so even local commits pay the farthest peer's delay."""
    cfg = Config.wan(("VA", "OH", "CA"), 3, seed=84)
    dep, res = run_protocol(
        Mencius, cfg, WorkloadSpec(keys=100), concurrency=3, duration=0.8, settle=0.5
    )
    # VA-CA RTT is 62 ms: nobody beats ~half of that plus a commit round.
    assert res.latency.p50 > 40
    assert_correct(dep)


def test_retransmission_recovers_from_drops(lan9):
    dep = Deployment(lan9).start(Mencius)
    dep.drop(NodeID(1, 1), NodeID(2, 1), duration=0.2, at=0.0)
    dep.drop(NodeID(1, 1), NodeID(2, 2), duration=0.2, at=0.0)
    client = dep.new_client()
    done = []
    client.invoke(Command.put("k", "v"), target=NodeID(1, 1), on_done=lambda r, l: done.append(r.value))
    dep.run_for(1.5)
    assert done == ["v"]
    assert_correct(dep)


def test_duplicate_request_served_from_cache(lan9):
    dep = Deployment(lan9).start(Mencius)
    from repro.paxi.message import ClientRequest, Command

    inbox = []
    dep.cluster.add_lightweight_endpoint("probe", "LAN", lambda s, m, b: inbox.append(m))
    request = ClientRequest(command=Command.put("k", "v"), client="probe", request_id=1)
    target = dep.config.node_ids[0]
    dep.cluster.network.transit("probe", target, request, 100)
    dep.run_for(0.1)
    dep.cluster.network.transit("probe", target, request, 100)
    dep.run_for(0.1)
    assert len(inbox) == 2
    assert dep.replicas[target].store.version("k") == 1
