"""MultiPaxos forgets executed slots below the cluster floor, and nothing a
member can still ask for is forgotten.

Each acceptor reports on its P2b the highest slot it can never ask for
again; the leader takes the minimum over itself and every peer heard from
since its last heartbeat, sends it on the ``Commit`` heartbeat, and every
replica compacts to that floor less ``catchup_snapshot_gap`` slots.  These
tests pin the three requests a member can make — gap fill, phase-1 suffix,
catch-up — against that rule, and plant the obvious wrong floor (the
leader's own frontier) to show that a progress assertion catches it where
the consensus checker alone would not: a shorter executed prefix is not a
disagreement.
"""

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.recovery import CatchupRequest
from repro.protocols.fpaxos import FPaxos
from repro.protocols.paxos import Commit, FillReply, FillRequest, MultiPaxos, P2a
from repro.sim.storage import Snapshot

from tests.conftest import assert_correct

LEADER = NodeID(1, 1)


@pytest.fixture
def fills(monkeypatch):
    """Every FillRequest sent, as (requester, its execute_index, slots),
    every FillReply, as (requester, slots served), and who asked for a
    catch-up."""
    record = {"asked": [], "served": [], "catchup": set()}
    send = MultiPaxos.send

    def spy(replica, dst, message):
        if type(message) is FillRequest:
            record["asked"].append((replica.id, replica.log.execute_index, message.slots))
        elif type(message) is FillReply:
            record["served"].append((dst, tuple(e[0] for e in message.entries)))
        elif type(message) is CatchupRequest:
            record["catchup"].add(replica.id)
        send(replica, dst, message)

    monkeypatch.setattr(MultiPaxos, "send", spy)
    return record


def _drive(dep, duration, concurrency=6):
    spec = WorkloadSpec(keys=20)
    bench = ClosedLoopBenchmark(dep, spec, concurrency=concurrency, retry_timeout=0.4)
    result = bench.run(duration=duration, warmup=0.0, settle=0.05)
    dep.run_for(1.0)
    return result


@pytest.mark.parametrize("protocol", [MultiPaxos, FPaxos])
def test_snapshot_install_refetches_nothing_below_execute_index(protocol, fills):
    """A rebooted durable replica reinstalls its disk snapshot, which
    compacts its log; the compacted prefix must not read as missing."""
    config = Config.lan(
        3, 3, seed=31, durability="fsync", snapshot_interval=25,
        election_timeout=0.15, catchup_snapshot_gap=16,
    )  # fmt: skip
    dep = Deployment(config).start(protocol)
    follower = NodeID(2, 2)
    dep.reboot(follower, downtime=0.1, at=0.5)
    result = _drive(dep, 1.5)
    assert result.completed > 50
    below = [(nid, ei, s) for nid, ei, slots in fills["asked"] for s in slots if s < ei]
    assert not below, f"{len(below)} requested slots were already executed: {below[:3]}"
    assert_correct(dep)
    rebooted = dep.replicas[follower]
    assert rebooted.log.floor > 0  # the snapshot really compacted it
    leader = dep.replicas[LEADER]
    assert rebooted.log.execute_index == leader.log.execute_index


def test_campaign_after_snapshot_proposes_nothing_below_execute_index(monkeypatch):
    """A leader whose prefix is compacted finds no entry there; it must not
    mistake an executed slot for an empty one and propose a no-op into it."""
    dep = Deployment(Config.lan(1, 3, seed=8)).start(MultiPaxos)
    _drive(dep, 0.2, concurrency=4)
    leader, candidate = dep.replicas[LEADER], dep.replicas[NodeID(1, 3)]
    upto = leader.log.execute_index - 1
    payload, size = leader.snapshot_payload(upto)
    candidate._install_state(Snapshot(upto, payload, size))
    proposed = []
    multicast = MultiPaxos.multicast

    def spy(replica, targets, message):
        if replica is candidate and type(message) is P2a:
            proposed.append((message.slot, replica.log.execute_index))
        multicast(replica, targets, message)

    monkeypatch.setattr(MultiPaxos, "multicast", spy)
    candidate.start_phase1()
    dep.run_for(0.1)
    assert candidate.active
    below = [slot for slot, executed_to in proposed if slot < executed_to]
    assert not below, f"{len(below)} no-ops proposed into executed slots, from {below[0]}"
    assert_correct(dep)


def test_a_candidate_behind_an_acceptors_floor_is_refused():
    """An acceptor that installed a snapshot (a wiped replica's catch-up,
    or a reboot's disk snapshot) holds no slot at or below it.  A candidate
    that never saw those slots commit would read them as empty in its
    suffix and propose no-ops over executed commands, so the acceptor
    refuses it; the leader it elects instead serves the laggard a
    snapshot, since fills cannot reach below its floor."""
    dep = Deployment(Config.lan(1, 3, seed=8)).start(MultiPaxos)
    holder, laggard = dep.replicas[NodeID(1, 2)], dep.replicas[NodeID(1, 3)]
    dep.drop(LEADER, laggard.id, duration=10.0, at=0.05)
    ClosedLoopBenchmark(dep, WorkloadSpec(keys=5), concurrency=4).run(0.15, 0.0, 0.0)
    upto = holder.log.execute_index - 1
    assert upto > laggard.log.commit_upto() + holder.catchup_snapshot_gap
    payload, size = holder.snapshot_payload(upto)
    holder._install_state(Snapshot(upto, payload, size))
    dep.crash(LEADER, duration=None)
    laggard.start_phase1()
    dep.run_for(0.1)
    assert not laggard.active
    for _ in range(3):  # the first tries may lose to the laggard's promise
        if not holder.active:
            holder.start_phase1()
            dep.run_for(0.05)
    assert holder.active
    dep.run_for(1.0)
    assert laggard.log.execute_index == holder.log.execute_index
    assert_correct(dep)


CUT = (0.1, 0.3)  # the follower's outage, virtual seconds


def _cut_off_and_heal(monkeypatch):
    """Freeze a follower and lose everything sent to it meanwhile, while
    six clients drive the leader thousands of slots ahead; then heal it.
    Returns the run and every heartbeat's ``(time, floor)``."""
    dep = Deployment(Config.lan(3, 3, seed=5)).start(MultiPaxos)
    floors = []
    broadcast = MultiPaxos.broadcast

    def spy(replica, message):
        if type(message) is Commit:
            floors.append((dep.now, message.floor))
        broadcast(replica, message)

    monkeypatch.setattr(MultiPaxos, "broadcast", spy)
    start, end = CUT
    cut = NodeID(2, 2)
    dep.crash(cut, duration=end - start, at=start)
    dep.drop(None, cut, duration=end - start, at=start)
    _drive(dep, 0.5)
    leader = dep.replicas[LEADER]
    assert leader.log.execute_index > 10 * leader.catchup_snapshot_gap  # far ahead
    return dep, dep.replicas[cut], leader, floors


def _fills_served_in_full(fills):
    served = {}
    for dst, slots in fills["served"]:
        served.setdefault(dst, set()).update(slots)
    return all(set(slots) <= served.get(nid, set()) for nid, _ei, slots in fills["asked"])


def test_a_cut_off_follower_catches_up_from_the_log(fills, monkeypatch):
    dep, cut, leader, floors = _cut_off_and_heal(monkeypatch)
    assert fills["asked"], "the follower never had to fill: the test is vacuous"
    assert cut.log.execute_index == leader.log.execute_index
    assert _fills_served_in_full(fills) and not fills["catchup"]
    # A silent member pins the floor at 0 until it reports again...
    settled = CUT[0] + 2 * leader.heartbeat_interval
    silent = [floor for t, floor in floors if settled < t < CUT[1]]
    assert silent and set(silent) == {0}
    assert leader.log.floor > 0  # ...and otherwise the floor moves.
    assert_correct(dep)


@pytest.mark.parametrize("fallback", [True, False], ids=["snapshot-fallback", "fills-only"])
def test_a_floor_that_ignores_peers_is_caught(fallback, fills, monkeypatch):
    """Plant the bug: every replica compacts to its own executed frontier,
    so the leader forgets slots the cut-off follower still needs.  The
    follower falls back to a snapshot transfer, which the test above
    rules out; with that fallback removed too, it never executes again,
    while the checkers alone stay green — a shorter prefix is no
    violation, which is why progress is asserted."""
    compact = MultiPaxos._compact
    own_only = lambda replica, floor: compact(replica, replica._floor())  # noqa: E731
    monkeypatch.setattr(MultiPaxos, "_compact", own_only)
    if not fallback:
        monkeypatch.setattr(MultiPaxos, "_start_catchup", lambda replica: None)
    dep, cut, leader, _floors = _cut_off_and_heal(monkeypatch)
    assert not _fills_served_in_full(fills)
    if fallback:
        assert fills["catchup"] == {cut.id}
    else:
        assert cut.log.execute_index < leader.log.execute_index  # wedged
    assert_correct(dep)
