"""Adversarial validation of planned leader handoff.

The handoff protocol's safety argument has two load-bearing steps: the
old leader must (a) release its own lease *before* soliciting the
successor's campaign and (b) actually stop serving.  A planted
implementation that skips both — it hands the ballot over but keeps its
lease and keeps answering lease reads — must be caught by the
linearizability checker, and the correct implementation must survive the
identical schedule.  A seeded Nemesis soak over the gray-failure kinds
(``fail_slow``, ``partial_partition``) then pins the detector + handoff
machinery against randomized injection.
"""

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.nemesis import Nemesis
from repro.bench.workload import WorkloadSpec
from repro.checkers.consensus import check_deployment
from repro.checkers.linearizability import check_history, check_history_graph
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.session import SessionOptions
from repro.protocols.leaderlog import HandoffRequest
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft

OLD_LEADER = NodeID(1, 1)
HANDOFF_PARAMS = dict(lease_duration=0.2, max_clock_skew=0.005, detector=True)


def broken_handoff(protocol):
    """Hands the epoch to the successor but 'forgets' to release its own
    lease or step down: the split-brain bug the release-before-solicit
    ordering in ``_complete_handoff`` exists to prevent.  One override of
    the shared step — this node keeps serving lease reads while the
    successor takes over."""
    return type(
        f"BrokenHandoff{protocol.__name__}",
        (protocol,),
        {"_stop_leading": lambda self: None},
    )


def _handoff_scenario(factory):
    """Trigger a planned handoff and, the instant the successor holds the
    Handoff, partition the old leader (with a lease reader) away from the
    majority; then commit a new value on the other side.  A correct old
    leader released its lease at the transfer point; a broken one serves
    the stale store.  (The cut has to come before the successor's first
    message as leader: a Raft AppendEntries from the newer term would
    depose even the broken old leader and mask the bug.)"""
    dep = Deployment(Config.lan(1, 5, seed=13, **HANDOFF_PARAMS)).start(factory)
    writer = dep.new_session(max_wait=1.0)
    reader = dep.new_session(max_wait=1.0, consistency="lease")
    assert writer.put("k", "v1").ok
    dep.run_for(0.3)  # leader, lease, and health monitors established
    leader = dep.replicas[OLD_LEADER]
    assert leader.active
    # Two followers report the leader degraded (the detector's verdict,
    # delivered by hand so the schedule is exact and load-free).
    for peer in [r.id for r in dep.replicas.values() if r.id != OLD_LEADER][:2]:
        leader.on_handoff_request(peer, HandoffRequest(epoch=leader.epoch))
    while not any(r.handoffs_received for r in dep.replicas.values()):
        dep.run_for(0.0001)
    everyone = set(dep.config.node_ids) | {c.address for c in dep.clients}
    minority = {OLD_LEADER, reader.client.address}
    dep.cluster.partition([minority, everyone - minority], 3.0, at=dep.now)
    dep.run_for(0.1)  # the successor campaigns and wins on the majority side
    new_leader = next(
        r.id for r in dep.replicas.values() if r.active and r.id != OLD_LEADER
    )
    assert writer.put("k", "v2", opts=SessionOptions(target=new_leader)).ok
    read = reader.get("k", opts=SessionOptions(target=OLD_LEADER))
    return dep, read


@pytest.mark.parametrize("protocol", [MultiPaxos, Raft])
def test_linearizability_checker_flags_broken_handoff(protocol):
    dep, read = _handoff_scenario(broken_handoff(protocol))
    # The un-deposed old leader happily serves its stale store.
    assert read.ok and read.value == "v1" and read.read_mode == "lease"
    result = check_history(dep.history.snapshot())
    assert not result.ok
    assert "stale-read" in {a.kind for a in result.anomalies}
    assert not check_history_graph(dep.history.operations)


@pytest.mark.parametrize("protocol", [MultiPaxos, Raft])
def test_correct_handoff_survives_the_same_schedule(protocol):
    """Same schedule, real completion: the old leader's lease died before
    the Handoff left, so the partitioned read cannot be served locally —
    it blocks instead of lying."""
    dep, read = _handoff_scenario(protocol)
    assert not read.ok or read.value == "v2"
    assert check_history(dep.history.snapshot()).ok
    assert dep.replicas[OLD_LEADER].handoffs_completed == 1


@pytest.mark.parametrize("factory", [MultiPaxos, Raft], ids=["paxos", "raft"])
@pytest.mark.parametrize("seed", [5, 23])
def test_detector_handoff_survives_grayfail_nemesis(factory, seed):
    """Seeded gray-failure chaos: fail-slow degradations and partial
    partitions against a detector-armed cluster must never cost safety,
    whether or not a handoff fires along the way."""
    dep = Deployment(
        Config.lan(1, 5, seed=seed, detector=True, lease_duration=0.2,
                   max_clock_skew=0.005)
    ).start(factory)
    nemesis = Nemesis(
        seed=seed,
        horizon=1.0,
        events=4,
        kinds=("fail_slow", "partial_partition"),
        max_partition_size=2,
    )
    events = nemesis.unleash(dep, at=0.2)
    assert events
    bench = ClosedLoopBenchmark(
        dep, WorkloadSpec(keys=15), concurrency=4, retry_timeout=0.4
    )
    result = bench.run(duration=1.6, warmup=0.0, settle=0.05)
    dep.run_for(2.0)
    assert result.completed > 0
    assert check_history(dep.history.snapshot()).ok
    assert check_deployment(dep).ok
