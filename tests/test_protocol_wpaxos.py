"""Integration tests for WPaxos."""

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.protocols.wpaxos import WPaxos

from tests.conftest import assert_correct, run_protocol


def test_first_access_steals_unowned_object(lan9):
    dep = Deployment(lan9).start(WPaxos)
    client = dep.new_client()
    seen = []
    client.invoke(Command.put("obj", 1), target=NodeID(2, 1), on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.05)
    assert seen == [1]
    assert dep.replicas[NodeID(2, 1)].objects["obj"].active


def test_non_leader_forwards_to_zone_leader(lan9):
    dep = Deployment(lan9).start(WPaxos)
    client = dep.new_client()
    seen = []
    client.invoke(Command.put("obj", 1), target=NodeID(2, 3), on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.05)
    assert seen == [1]
    assert dep.replicas[NodeID(2, 1)].objects["obj"].active  # zone leader owns


def test_remote_requests_forward_until_steal_threshold(lan9):
    dep = Deployment(lan9).start(WPaxos)
    owner_client = dep.new_client()
    owner_client.invoke(Command.put("obj", 0), target=NodeID(1, 1))
    dep.run_for(0.05)
    remote = dep.new_client()
    # Two remote accesses: still forwarded (threshold is 3).
    remote.invoke(Command.put("obj", 1), target=NodeID(2, 1))
    dep.run_for(0.05)
    remote.invoke(Command.put("obj", 2), target=NodeID(2, 1))
    dep.run_for(0.05)
    assert dep.replicas[NodeID(1, 1)].objects["obj"].active
    assert not dep.replicas[NodeID(2, 1)].objects["obj"].active
    # Third consecutive access triggers the steal.
    remote.invoke(Command.put("obj", 3), target=NodeID(2, 1))
    dep.run_for(0.1)
    assert dep.replicas[NodeID(2, 1)].objects["obj"].active
    assert not dep.replicas[NodeID(1, 1)].objects["obj"].active
    assert_correct(dep)


def test_interleaved_access_resets_streak(lan9):
    dep = Deployment(lan9).start(WPaxos)
    owner = dep.new_client()
    remote = dep.new_client()
    owner.invoke(Command.put("obj", 0), target=NodeID(1, 1))
    dep.run_for(0.05)
    for i in range(4):
        remote.invoke(Command.put("obj", f"r{i}"), target=NodeID(2, 1))
        dep.run_for(0.05)
        owner.invoke(Command.put("obj", f"o{i}"), target=NodeID(1, 1))
        dep.run_for(0.05)
    # Ownership never moved: the owner's own accesses broke every streak.
    assert dep.replicas[NodeID(1, 1)].objects["obj"].active
    assert_correct(dep)


def test_immediate_steal_policy():
    cfg = Config.lan(3, 3, seed=1, steal_threshold=1)
    dep = Deployment(cfg).start(WPaxos)
    a, b = dep.new_client(), dep.new_client()
    a.invoke(Command.put("obj", 1), target=NodeID(1, 1))
    dep.run_for(0.05)
    b.invoke(Command.put("obj", 2), target=NodeID(3, 1))
    dep.run_for(0.1)
    assert dep.replicas[NodeID(3, 1)].objects["obj"].active
    assert_correct(dep)


def test_fz0_commits_inside_zone_in_wan():
    cfg = Config.wan(("VA", "OH", "CA"), 3, seed=2, fz=0)
    dep = Deployment(cfg).start(WPaxos)
    client = dep.new_client(site="VA")
    latencies = []
    client.invoke(Command.put("k", 0))
    dep.run_for(1.0)  # ownership settles at the VA leader
    for i in range(20):
        client.invoke(Command.put("k", i + 1), on_done=lambda r, l: latencies.append(l * 1e3))
        dep.run_for(0.2)
    assert latencies
    assert sum(latencies) / len(latencies) < 5  # local commit, no WAN leg
    assert_correct(dep)


def test_fz1_pays_nearest_zone():
    cfg = Config.wan(("VA", "OH", "CA"), 3, seed=2, fz=1)
    dep = Deployment(cfg).start(WPaxos)
    client = dep.new_client(site="VA")
    latencies = []
    client.invoke(Command.put("k", 0))
    dep.run_for(1.0)
    for i in range(20):
        client.invoke(Command.put("k", i + 1), on_done=lambda r, l: latencies.append(l * 1e3))
        dep.run_for(0.2)
    mean = sum(latencies) / len(latencies)
    assert 8 < mean < 25  # dominated by the VA-OH 11 ms RTT
    assert_correct(dep)


def test_object_history_survives_migration(lan9):
    dep = Deployment(lan9).start(WPaxos)
    a = dep.new_client()
    for i in range(3):
        a.invoke(Command.put("obj", f"a{i}"), target=NodeID(1, 1))
        dep.run_for(0.05)
    b = dep.new_client()
    for i in range(4):
        b.invoke(Command.put("obj", f"b{i}"), target=NodeID(2, 1))
        dep.run_for(0.05)
    dep.run_for(0.2)
    new_owner = dep.replicas[NodeID(2, 1)]
    history = new_owner.store.history("obj")
    assert history[:3] == ["a0", "a1", "a2"]
    assert len(history) == 7
    assert_correct(dep)


def test_multi_leader_beats_single_leader_throughput():
    """Figure 9: WPaxos saturates well above Paxos, but sub-linearly
    (not 3x for 3 leaders)."""
    from repro.protocols.paxos import MultiPaxos

    _dw, wp = run_protocol(
        WPaxos, Config.lan(3, 3, seed=3), WorkloadSpec(keys=1000), concurrency=128, duration=0.3
    )
    _dp, px = run_protocol(
        MultiPaxos, Config.lan(3, 3, seed=3), WorkloadSpec(keys=1000), concurrency=128, duration=0.3
    )
    ratio = wp.throughput / px.throughput
    assert 1.3 < ratio < 2.7


def test_grid_requires_rectangular_zones():
    from repro.errors import ConfigError
    from repro.core import topology as topo
    from repro.paxi.ids import grid_ids

    ids = grid_ids(2, 2)[:3] + (NodeID(3, 1),)
    cfg = Config(topology=topo.lan(4), node_ids=ids)
    with pytest.raises(ConfigError):
        Deployment(cfg).start(WPaxos)


def test_losing_steal_candidacy_reroutes_buffered_requests():
    """Regression: when two leaders race to steal the same object, the
    loser must forward its buffered client requests to the winner instead
    of stranding them (clients would otherwise hang forever)."""
    cfg = Config.wan(("VA", "OH", "CA"), 3, seed=11, steal_threshold=1)
    dep = Deployment(cfg).start(WPaxos)
    clients = [dep.new_client(site=s) for s in ("VA", "OH", "CA")]
    done = []
    # Fire dueling steals for the same cold object from all three regions
    # simultaneously; every request must still complete.
    for i, client in enumerate(clients):
        client.invoke(Command.put("contested", i), target=NodeID(i + 1, 1), on_done=lambda r, l: done.append(r.value))
    dep.run_for(3.0)
    assert sorted(done) == [0, 1, 2]
    owners = [z for z in (1, 2, 3) if dep.replicas[NodeID(z, 1)].objects["contested"].active]
    assert len(owners) == 1  # exactly one winner
    assert_correct(dep)


def test_correct_under_hot_key_contention(lan9):
    dep, res = run_protocol(
        WPaxos,
        lan9,
        WorkloadSpec(keys=20, conflict_ratio=0.5, write_ratio=1.0),
        concurrency=8,
        duration=0.4,
    )
    assert res.completed > 100
    dep.run_for(0.3)
    assert_correct(dep)


def test_a_lost_fill_request_does_not_wedge_gap_fill(lan9, monkeypatch):
    """Follower 2.2 misses one accept, and the owner swallows its first
    fill request.  A later watermark past the fill deadline asks again,
    so 2.2 executes every slot 2.3 does."""
    swallowed = []
    serve = WPaxos.on_fill_request

    def lossy(replica, src, m):
        if swallowed:
            serve(replica, src, m)
        else:
            swallowed.append(m.slots)

    monkeypatch.setattr(WPaxos, "on_fill_request", lossy)
    dep = Deployment(lan9).start(WPaxos)
    client = dep.new_client()
    dep.drop(NodeID(2, 1), NodeID(2, 2), duration=0.1, at=0.05)
    for i in range(11):
        client.invoke(Command.put("obj", i), target=NodeID(2, 1))
        dep.run_for(0.1)
    dep.run_for(0.5)
    assert swallowed
    lagging, peer = (dep.replicas[NodeID(2, n)].store.history("obj") for n in (2, 3))
    assert peer == list(range(11))
    assert lagging == peer
    assert_correct(dep)
