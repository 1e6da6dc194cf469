"""Integration tests for MultiPaxos and FPaxos."""

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.protocols.ballot import Ballot
from repro.protocols.fpaxos import FPaxos
from repro.protocols.paxos import P1a, P1b, MultiPaxos

from tests.conftest import assert_correct, run_protocol


def test_basic_write_read(lan9):
    dep = Deployment(lan9).start(MultiPaxos)
    client = dep.new_client()
    seen = []
    dep.run_for(0.01)
    client.invoke(Command.put("x", 1), on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.05)
    client.invoke(Command.get("x"), on_done=lambda r, l: seen.append(r.value))
    dep.run_for(0.05)
    assert seen == [1, 1]


def test_all_replicas_converge(lan9):
    dep, _res = run_protocol(MultiPaxos, lan9, WorkloadSpec(keys=5))
    dep.run_for(0.2)  # let watermarks flush
    histories = {nid: r.store.history(0) for nid, r in dep.replicas.items() if r.store.history(0)}
    lengths = {len(h) for h in histories.values()}
    assert len(lengths) <= 2  # all equal or off-by-flush
    assert_correct(dep)


def test_linearizable_under_contention(lan9):
    dep, res = run_protocol(MultiPaxos, lan9, WorkloadSpec(keys=1), concurrency=8)
    assert res.completed > 100
    assert_correct(dep)


def test_forwarding_and_sticky_leader(lan9):
    dep = Deployment(lan9).start(MultiPaxos)
    dep.run_for(0.01)
    client = dep.new_client()
    # Force the first request to a follower; the reply's leader hint must
    # redirect subsequent traffic straight to the leader.
    follower = NodeID(3, 3)
    client.invoke(Command.put("k", 1), target=follower)
    dep.run_for(0.05)
    assert client._sticky == NodeID(1, 1)
    latencies = []
    client.invoke(Command.put("k", 2), on_done=lambda r, l: latencies.append(l))
    dep.run_for(0.05)
    assert latencies and latencies[0] < 0.0015  # no forwarding hop any more


def test_duplicate_request_returns_cached_value(lan9):
    dep = Deployment(lan9).start(MultiPaxos)
    dep.run_for(0.01)
    leader = dep.replicas[NodeID(1, 1)]
    from repro.paxi.message import ClientRequest, Command

    inbox = []
    dep.cluster.add_lightweight_endpoint("probe", "LAN", lambda s, m, b: inbox.append(m))
    request = ClientRequest(command=Command.put("k", "v"), client="probe", request_id=1)
    dep.cluster.network.transit("probe", leader.id, request, 100)
    dep.run_for(0.05)
    dep.cluster.network.transit("probe", leader.id, request, 100)  # retry
    dep.run_for(0.05)
    assert len(inbox) == 2
    assert inbox[0].value == "v" and inbox[1].value == "v"
    # The duplicate must not have executed twice.
    assert leader.store.version("k") == 1


def test_leader_crash_failover():
    cfg = Config.lan(3, 3, seed=2, election_timeout=0.05)
    dep = Deployment(cfg).start(MultiPaxos)
    bench = ClosedLoopBenchmark(dep, WorkloadSpec(keys=5), concurrency=4, retry_timeout=0.2)
    dep.crash(NodeID(1, 1), duration=1.0, at=0.3)
    result = bench.run(duration=2.0, warmup=0.0, settle=0.05)
    # Progress resumed after failover and the run stayed correct.
    late_ops = [op for op in dep.history.operations if op.returned_at > 1.0]
    assert len(late_ops) > 100
    new_leaders = {r.leader_hint for r in dep.replicas.values() if r.active}
    assert new_leaders and NodeID(1, 1) not in new_leaders
    assert result.failed == 0
    assert_correct(dep)


def test_follower_crash_harmless(lan9):
    dep = Deployment(lan9).start(MultiPaxos)
    bench = ClosedLoopBenchmark(dep, WorkloadSpec(keys=5), concurrency=4)
    dep.crash(NodeID(2, 2), duration=0.5, at=0.2)
    result = bench.run(duration=1.0, warmup=0.1, settle=0.05)
    assert result.throughput > 1000
    assert_correct(dep)


def test_message_drops_recovered_by_fill(lan9):
    dep = Deployment(lan9).start(MultiPaxos)
    # Drop everything from the leader to one follower for a while: the
    # follower misses slots and must gap-fill once the link heals.
    dep.drop(NodeID(1, 1), NodeID(3, 3), duration=0.2, at=0.1)
    bench = ClosedLoopBenchmark(dep, WorkloadSpec(keys=3, write_ratio=1.0), concurrency=2)
    bench.run(duration=0.6, warmup=0.05, settle=0.05)
    dep.run_for(0.5)  # heal + fill
    leader_history = dep.replicas[NodeID(1, 1)].store.history(0)
    lagger_history = dep.replicas[NodeID(3, 3)].store.history(0)
    assert len(lagger_history) > 0
    assert lagger_history == leader_history[: len(lagger_history)]
    assert_correct(dep)


def test_deposed_leader_steps_down_on_a_higher_ballot_commit():
    """An idle leader cut off long enough for the rest to elect another
    hears only the winner's heartbeats after the heal: each is a ``Commit``
    under a higher ballot, and it must stop leading on the first one
    (no P2b ever reaches it to depose it another way)."""
    dep = Deployment(Config.lan(3, 3, seed=7, election_timeout=0.15)).start(MultiPaxos)
    dep.run_for(0.1)
    old = NodeID(1, 1)
    everyone = set(dep.config.node_ids)
    dep.cluster.partition([{old}, everyone - {old}], duration=0.6, at=dep.now)
    dep.run_for(0.6 + 1.2)
    leaders = [nid for nid, r in dep.replicas.items() if r.active]
    assert len(leaders) == 1 and leaders[0] != old
    deposed = dep.replicas[old]
    assert deposed.promised == dep.replicas[leaders[0]].ballot
    assert deposed.leader_hint == leaders[0]


def test_a_candidate_outbid_mid_campaign_cannot_win_with_its_old_ballot():
    """1.1 campaigns, then promises 1.2's higher ballot before any promise
    of its own ballot comes back.  A late one must not make it leader: it
    would accept its own proposals under a ballot below its promise, which
    1.2's phase 1 never heard of."""
    dep = Deployment(Config.lan(1, 3, seed=1)).start(MultiPaxos)
    candidate = dep.replicas[NodeID(1, 1)]
    candidate.start_phase1()
    higher = Ballot(candidate.ballot.counter + 1, NodeID(1, 2))
    candidate.on_p1a(NodeID(1, 2), P1a(ballot=higher))
    candidate.on_p1b(NodeID(1, 3), P1b(ballot=candidate.ballot, ok=True))
    assert not candidate.active
    assert candidate.promised == higher and candidate.leader_hint == NodeID(1, 2)


def test_single_node_cluster_commits_its_own_proposals():
    """The leader's own vote is a quorum of one: a proposal commits the
    moment it is made, in memory and on disk alike."""
    for params in ({}, {"durability": "fsync"}):
        dep = Deployment(Config.lan(1, 1, seed=7, **params)).start(MultiPaxos)
        client = dep.new_client()
        seen = []
        dep.run_for(0.05)
        client.invoke(Command.put("a", 1), on_done=lambda r, l: seen.append(r.value))
        dep.run_for(0.05)
        client.invoke(Command.get("a"), on_done=lambda r, l: seen.append(r.value))
        dep.run_for(0.05)
        assert seen == [1, 1], params
        assert_correct(dep)


def test_initial_leader_configurable():
    cfg = Config.lan(3, 3, seed=1, leader=NodeID(2, 1))
    dep = Deployment(cfg).start(MultiPaxos)
    dep.run_for(0.05)
    assert dep.replicas[NodeID(2, 1)].active
    assert not dep.replicas[NodeID(1, 1)].active


def test_thrifty_sends_fewer_messages(lan9):
    def messages_with(thrifty):
        cfg = Config.lan(3, 3, seed=5, thrifty=thrifty, heartbeat_interval=None)
        dep, _res = run_protocol(MultiPaxos, cfg, WorkloadSpec(keys=5), concurrency=2)
        return dep.cluster.network.stats.messages_sent

    assert messages_with(True) < 0.8 * messages_with(False)


def test_saturation_near_8k(lan9):
    """The paper's calibration: single-leader Paxos tops out ~8k ops/s."""
    _dep, res = run_protocol(MultiPaxos, lan9, concurrency=128, duration=0.3)
    assert 6500 < res.throughput < 9500


class TestFPaxos:
    def test_q2_quorums(self, lan9):
        cfg = Config.lan(3, 3, seed=1, q2_size=3)
        dep = Deployment(cfg).start(FPaxos)
        replica = dep.replicas[NodeID(1, 1)]
        assert replica.phase2_quorum().size == 3
        assert replica.phase1_quorum().size == 7

    def test_invalid_q2(self):
        from repro.errors import ConfigError

        cfg = Config.lan(3, 3, seed=1, q2_size=10)
        with pytest.raises(ConfigError):
            Deployment(cfg).start(FPaxos)

    def test_correct_under_load(self):
        cfg = Config.lan(3, 3, seed=3, q2_size=3)
        dep, res = run_protocol(FPaxos, cfg, WorkloadSpec(keys=10), concurrency=8)
        assert res.completed > 200
        assert_correct(dep)

    def test_small_q2_cuts_commit_latency_in_wan(self):
        """FPaxos phase-2 quorum of 2 commits with the nearest region."""
        regions = ("VA", "OH", "CA", "IR", "JP")
        base = Config.wan(regions, 1, seed=4)
        dep_paxos, res_paxos = run_protocol(
            MultiPaxos, base, concurrency=1, duration=0.5, settle=0.6, sites=["VA"]
        )
        cfg = Config.wan(regions, 1, seed=4, q2_size=2)
        dep_fp, res_fp = run_protocol(
            FPaxos, cfg, concurrency=1, duration=0.5, settle=0.6, sites=["VA"]
        )
        # Majority of 5 waits on CA (62 ms RTT from the VA leader); a q2 of
        # 2 commits with OH (11 ms).
        assert res_fp.latency.mean < res_paxos.latency.mean - 20
        assert_correct(dep_fp)
