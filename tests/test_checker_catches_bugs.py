"""Adversarial validation of the checkers: deliberately broken protocols
must be caught.

A checker that never fires is worthless; these tests implement unsound
replication schemes — reply-before-replicate with stale follower reads,
divergent state machines, a leader lease that ignores its own expiry, an
EPaxos executor that ignores dependencies, and a reply table that forgets
executions along with replies — and assert the linearizability and
consensus checkers flag them.  The read-anomaly
histories (stale lease read, split-brain read, non-monotonic quorum read)
are also replayed against ``checkers.staleness`` to pin the
boundary: the local-read variants are *accepted* within their staleness
bound and rejected beyond it.
"""

from repro.bench.workload import WorkloadSpec
from repro.checkers.consensus import check_deployment
from repro.checkers.linearizability import check_history, check_history_graph
from repro.checkers.staleness import check_bounded_staleness, check_session
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.history import Operation
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, ClientRequest, Command, Message
from repro.paxi.node import Replica
from repro.paxi.replies import ReplyTable
from repro.paxi.session import SessionOptions
from repro.protocols.epaxos import EPaxos
from repro.protocols.log import CommandLog
from repro.protocols.paxos import MultiPaxos
from repro.protocols.raft import Raft
from repro.protocols.wpaxos import WPaxos
from dataclasses import dataclass
from typing import Any, Hashable

import pytest

from tests.conftest import assert_correct, run_protocol

# Every history checked here is checked as a list and as recorder columns.
pytestmark = pytest.mark.usefixtures("columns_agree")


@dataclass(frozen=True)
class LazyReplicate(Message):
    key: Hashable = None
    value: Any = None


class UnsafePrimary(Replica):
    """Primary applies writes locally, replies immediately, and replicates
    lazily; any replica serves reads from local (possibly stale) state.
    Classic asynchronous-replication anomaly."""

    PRIMARY = NodeID(1, 1)

    def __init__(self, deployment, node_id):
        super().__init__(deployment, node_id)
        self.register(ClientRequest, self.on_request)
        self.register(LazyReplicate, self.on_replicate)

    def on_request(self, src, m):
        if m.command.is_write:
            if self.id != self.PRIMARY:
                self.send(self.PRIMARY, m)
                return
            value = self.store.execute(m.command)
            # Replicate asynchronously with an artificial 5 ms delay.
            self.set_timer(
                0.005, self.broadcast, LazyReplicate(key=m.command.key, value=m.command.value)
            )
        else:
            value = self.store.read(m.command.key)  # possibly stale!
        self.send(
            m.client,
            ClientReply(request_id=m.request_id, ok=True, value=value, replied_by=self.id),
        )

    def on_replicate(self, src, m):
        from repro.paxi.message import Command

        self.store.execute(Command.put(m.key, m.value))


def test_linearizability_checker_catches_stale_reads():
    dep = Deployment(Config.lan(1, 3, seed=1)).start(UnsafePrimary)
    writer = dep.new_client()
    reader = dep.new_client()
    # Write through the primary, then immediately read from a follower
    # before lazy replication lands.
    writer.invoke(Command.put("k", "v1"), target=NodeID(1, 1))
    dep.run_for(0.002)
    writer.invoke(Command.put("k", "v2"), target=NodeID(1, 1))
    dep.run_for(0.002)
    reader.invoke(Command.get("k"), target=NodeID(1, 3))
    dep.run_for(0.1)
    result = check_history(dep.history.snapshot())
    assert not result.ok
    kinds = {a.kind for a in result.anomalies}
    assert "stale-read" in kinds
    assert not check_history_graph(dep.history.operations)


class DivergentEcho(Replica):
    """Every replica executes only what it directly receives: state
    machines diverge immediately under multi-client load."""

    def __init__(self, deployment, node_id):
        super().__init__(deployment, node_id)
        self.register(ClientRequest, self.on_request)

    def on_request(self, src, m):
        value = self.store.execute(m.command)
        self.send(
            m.client,
            ClientReply(request_id=m.request_id, ok=True, value=value, replied_by=self.id),
        )


def test_consensus_checker_catches_divergent_histories():
    dep = Deployment(Config.lan(1, 3, seed=2)).start(DivergentEcho)
    a = dep.new_client()
    b = dep.new_client()
    # Two clients write the same key at different replicas.
    a.invoke(Command.put("k", "from-a"), target=NodeID(1, 1))
    b.invoke(Command.put("k", "from-b"), target=NodeID(1, 2))
    dep.run_for(0.05)
    result = check_deployment(dep)
    assert not result.ok
    assert result.violations[0].position == 0


def test_consensus_can_pass_while_linearizability_fails():
    """The paper's point for having both checkers: external linearizability
    and internal consensus are different properties.  The lazy primary
    keeps per-key histories prefix-consistent (single writer order), yet
    serves non-linearizable stale reads."""
    dep = Deployment(Config.lan(1, 3, seed=3)).start(UnsafePrimary)
    writer = dep.new_client()
    reader = dep.new_client()
    writer.invoke(Command.put("k", "v1"), target=NodeID(1, 1))
    dep.run_for(0.002)
    writer.invoke(Command.put("k", "v2"), target=NodeID(1, 1))
    dep.run_for(0.002)
    reader.invoke(Command.get("k"), target=NodeID(1, 3))
    dep.run_for(0.2)  # lazy replication catches up
    assert check_deployment(dep).ok  # same write order everywhere
    assert not check_history(dep.history.snapshot()).ok  # but reads were stale


# ----------------------------------------------------------------------
# Read-anomaly histories: the shapes a broken linearizable read path
# produces, written out explicitly so the checker's verdict on each is
# pinned independently of any protocol implementation.
# ----------------------------------------------------------------------


def _put(client, key, value, invoked, returned):
    return Operation(client, "PUT", key, value, value, invoked, returned)


def _get(client, key, output, invoked, returned):
    return Operation(client, "GET", key, None, output, invoked, returned)


def _stale_lease_history():
    """A deposed leaseholder serves ``v1`` from its store after the new
    leader committed ``v2`` — the canonical expired-lease anomaly."""
    return [
        _put("w", "k", "v1", 0.00, 0.01),
        _put("w", "k", "v2", 0.02, 0.03),  # new leader's write completes...
        _get("r", "k", "v1", 0.05, 0.051),  # ...then the old lease serves v1
    ]


def test_checker_rejects_stale_lease_read_history():
    result = check_history(_stale_lease_history())
    assert not result.ok
    assert {a.kind for a in result.anomalies} == {"stale-read"}
    assert not check_history_graph(_stale_lease_history())


def test_checker_rejects_split_brain_read_history():
    """Two leaders each serving their own replica: one client observes the
    new value while another still reads the old one afterwards."""
    ops = [
        _put("w", "k", "v1", 0.00, 0.01),
        _put("w", "k", "v2", 0.02, 0.03),
        _get("r-new", "k", "v2", 0.04, 0.041),  # majority side: fine
        _get("r-old", "k", "v1", 0.05, 0.051),  # minority side: stale
    ]
    result = check_history(ops)
    assert not result.ok
    stale = [a for a in result.anomalies if a.kind == "stale-read"]
    assert [a.read.client for a in stale] == ["r-old"]
    assert not check_history_graph(ops)


def test_checker_rejects_non_monotonic_quorum_read_history():
    """A quorum read that under-counts its frontier goes *backwards*: the
    same client reads v2 then v1.  Both the linearizability checker and
    the per-session monotonic-reads guarantee must fire."""
    ops = [
        _put("w", "k", "v1", 0.00, 0.01),
        _put("w", "k", "v2", 0.02, 0.03),
        _get("r", "k", "v2", 0.04, 0.041),
        _get("r", "k", "v1", 0.05, 0.051),
    ]
    result = check_history(ops)
    assert not result.ok
    assert "stale-read" in {a.kind for a in result.anomalies}
    session = check_session(ops)
    assert not session.ok
    assert {v.kind for v in session.session_violations} == {"monotonic-reads"}


def test_staleness_checker_bounds_the_local_read_variants():
    """The same anomalous reads, reinterpreted as *local* (bounded
    staleness) reads: v1 was overwritten when v2 completed at t=0.03 and
    read at t=0.05, so it is provably 0.02s stale — legal under
    delta >= 0.02, a violation below that, and exactly the
    linearizability verdict at delta = 0."""
    ops = _stale_lease_history()
    relaxed = check_bounded_staleness(ops, delta=0.05)
    assert relaxed.ok
    assert abs(relaxed.max_staleness - 0.02) < 1e-9
    tight = check_bounded_staleness(ops, delta=0.01)
    assert not tight.ok
    assert len(tight.staleness_violations) == 1
    assert tight.staleness_violations[0].read.client == "r"
    assert not check_bounded_staleness(ops, delta=0.0).ok


# ----------------------------------------------------------------------
# The planted broken lease: a real MultiPaxos or Raft deployment whose
# leader ignores lease expiry (one override of the shared ``_lease_valid``).  The linearizability checker must catch the stale
# read it serves during a partition — and the *correct* implementation
# must survive the identical scenario.
# ----------------------------------------------------------------------

OLD_LEADER = NodeID(1, 1)
LEASE_PARAMS = dict(lease_duration=0.2, max_clock_skew=0.005, election_timeout=0.1)


def broken_lease(protocol):
    """Lease validity stubbed to 'always valid': the textbook broken lease.
    A deposed leader keeps serving local reads long after its grants
    expired and a new leader committed writes on the other side."""
    return type(
        f"BrokenLease{protocol.__name__}",
        (protocol,),
        # ignores expiry entirely
        {"_lease_valid": lambda self: self._lease is not None},
    )


def _expired_lease_scenario(factory):
    """Partition the initial leader (with one client) away from the
    majority for longer than the lease, let the majority elect a new
    leader and commit ``v2``, then lease-read at the old leader."""
    dep = Deployment(Config.lan(1, 5, seed=11, **LEASE_PARAMS)).start(factory)
    writer = dep.new_session(max_wait=1.0)
    reader = dep.new_session(max_wait=1.0, consistency="lease")
    assert writer.put("k", "v1").ok
    dep.run_for(0.1)  # the initial leader's lease is established
    everyone = set(dep.config.node_ids) | {c.address for c in dep.clients}
    minority = {OLD_LEADER, reader.client.address}
    dep.cluster.partition([minority, everyone - minority], 3.0, at=dep.now)
    dep.run_for(0.8)  # > lease_duration + election_timeout: grants expire
    new_leader = next(
        r.id for r in dep.replicas.values() if r.active and r.id != OLD_LEADER
    )
    assert writer.put("k", "v2", opts=SessionOptions(target=new_leader)).ok
    read = reader.get("k", opts=SessionOptions(target=OLD_LEADER))
    return dep, read


@pytest.mark.parametrize("protocol", [MultiPaxos, Raft])
def test_linearizability_checker_flags_broken_lease(protocol):
    dep, read = _expired_lease_scenario(broken_lease(protocol))
    # The broken leaseholder happily serves its stale store.
    assert read.ok and read.value == "v1" and read.read_mode == "lease"
    result = check_history(dep.history.snapshot())
    assert not result.ok
    assert "stale-read" in {a.kind for a in result.anomalies}
    assert not check_history_graph(dep.history.operations)


@pytest.mark.parametrize("protocol", [MultiPaxos, Raft])
def test_correct_lease_survives_the_same_partition(protocol):
    """Same schedule, real lease arithmetic: the deposed leader's lease has
    expired, so the read falls back to a consensus round it cannot win
    while partitioned — it blocks instead of lying."""
    dep, read = _expired_lease_scenario(protocol)
    assert not read.ok or read.value == "v2"
    assert check_history(dep.history.snapshot()).ok


# ----------------------------------------------------------------------
# The planted broken executor: an EPaxos that runs a committed instance
# the moment it commits, whether or not its dependencies have run.  Commits
# reach the replicas in different orders, so interfering writes are applied
# in different orders — exactly what the dependency-ordered executor exists
# to prevent, and what the checkers must see when it does not.
# ----------------------------------------------------------------------


def broken_executor(protocol):
    """Execution that does not wait for dependencies."""
    return type(
        f"BrokenExecutor{protocol.__name__}",
        (protocol,),
        {"_try_execute": lambda self, committed: self._execute_instance(committed)},
    )


def _conflicting_epaxos_run(factory):
    return run_protocol(
        factory,
        Config.lan(3, 3, seed=20),
        WorkloadSpec(keys=100, write_ratio=0.5, conflict_ratio=0.4),
        concurrency=32,
    )[0]


def test_consensus_checker_flags_execution_that_ignores_dependencies():
    """The consensus checker is the one that fires: replicas disagree on
    the hot key's write order.  (Clients rarely notice — the key is
    overwritten faster than a second read can observe the fork — which is
    the paper's case for checking the replicas and not only the history.)"""
    dep = _conflicting_epaxos_run(broken_executor(EPaxos))
    consensus = check_deployment(dep)
    assert not consensus.ok
    assert consensus.violations[0].key == 0  # the hot key


def test_correct_executor_survives_the_same_conflicting_run():
    assert_correct(_conflicting_epaxos_run(EPaxos))


# ----------------------------------------------------------------------
# The planted forgetful reply table: bounding the at-most-once table the
# obvious way — delete everything at or below the client's ``ack_upto`` —
# also forgets *that* those requests executed.  A copy of an acknowledged
# write that the network delayed past the client's next write to the same
# key then executes a second time, on top of the newer value.
# ----------------------------------------------------------------------


class _ForgetfulTable(ReplyTable):
    """Eviction that drops the execution record along with the reply."""

    def __init__(self):
        super().__init__()
        self._cache = {}

    def seen(self, request):
        return (request.client, request.request_id) in self._cache

    def value(self, request):
        return self._cache.get((request.client, request.request_id))

    def execute(self, request, run, command):
        key = (request.client, request.request_id)
        if key not in self._cache:
            self._cache[key] = run(command)
            self.withdraw(request)  # no longer in flight at the proposer
        value = self._cache[key]
        for client, request_id in list(self._cache):
            if client == request.client and request_id <= request.ack_upto:
                del self._cache[client, request_id]  # the bug: `seen` goes with it
        return value


def forgetful_replies(protocol):
    def __init__(self, deployment, node_id):
        protocol.__init__(self, deployment, node_id)
        self.replies = _ForgetfulTable()

    return type(f"Forgetful{protocol.__name__}", (protocol,), {"__init__": __init__})


def _late_duplicate_scenario(factory):
    """put v1 (acknowledged), put v2 (acknowledged, carrying ack_upto = the
    first id), then the delayed first transmission of put v1 reaches the
    leader, then a read."""
    dep = Deployment(Config.lan(1, 3, seed=5)).start(factory)
    dep.run_for(0.05)  # the initial leader is elected
    session = dep.new_session(max_wait=1.0)
    assert session.put("k", "v1").ok
    first_id = session.client._next_request_id
    assert session.put("k", "v2").ok
    leader = dep.replicas[NodeID(1, 1)]
    executed = leader.store.executions
    late = ClientRequest(
        command=Command.put("k", "v1"), client=session.client.address, request_id=first_id
    )
    leader.on_request(late.client, late)
    dep.run_for(0.1)
    duplicates_run = leader.store.executions - executed
    return dep, session.get("k"), duplicates_run


@pytest.mark.parametrize("protocol", [MultiPaxos, Raft])
def test_linearizability_checker_flags_forgetful_reply_table(protocol):
    dep, read, duplicates_run = _late_duplicate_scenario(forgetful_replies(protocol))
    assert duplicates_run == 1  # the acknowledged write ran again
    assert read.ok and read.value == "v1"
    result = check_history(dep.history.snapshot())
    assert not result.ok
    assert not check_history_graph(dep.history.operations)


@pytest.mark.parametrize("protocol", [MultiPaxos, Raft])
def test_reply_table_skips_the_same_late_duplicate(protocol):
    dep, read, duplicates_run = _late_duplicate_scenario(protocol)
    assert duplicates_run == 0  # recognised, although its reply is long evicted
    assert read.ok and read.value == "v2"
    assert all(r.replies.retained() <= 1 for r in dep.replicas.values())
    assert_correct(dep)


# ----------------------------------------------------------------------
# The planted ballot-blind watermark: the shared slot log commits every
# entry a commit watermark covers, whatever ballot it was accepted under.
# Both real safety bugs this repo has had were this one.  A follower that
# accepted an isolated ex-leader's pipelined write then executes it,
# although the new leader chose a different value for that slot.
# ----------------------------------------------------------------------


def _ballot_blind(monkeypatch):
    rule = CommandLog.apply_watermark

    def apply_watermark(log, upto, ballot, now, retry_after):
        for slot in range(log.execute_index, upto + 1):
            if slot in log.entries:
                log.commit(slot)  # the bug: whatever ballot it was accepted under
        return rule(log, upto, ballot, now, retry_after)

    monkeypatch.setattr(CommandLog, "apply_watermark", apply_watermark)


STALE_WATERMARK_HOSTS = [
    pytest.param(MultiPaxos, dict(election_timeout=0.1), id="MultiPaxos"),
    pytest.param(WPaxos, dict(leaders_per_zone=5, steal_threshold=1), id="WPaxos"),
]
FOLLOWER = NodeID(1, 2)


def _stale_watermark_scenario(protocol, params):
    """Five nodes.  Leader 1.1 and follower 1.2 are cut off from 1.3-1.5,
    so 1.1's pipelined accept of ``stale`` reaches 1.2 only.  The majority
    side never hears of it and puts ``fresh`` in the same slot under a
    newer ballot.  Then 1.1 falls silent, 1.2 rejoins, and the next
    write's watermark reaches it."""
    old, majority = NodeID(1, 1), [NodeID(1, n) for n in (3, 4, 5)]
    dep = Deployment(Config.lan(1, 5, seed=3, **params)).start(protocol)
    client = dep.new_client()
    client.invoke(Command.put("k", "v0"), target=old)
    dep.run_for(0.2)
    for cut_off in (old, FOLLOWER):
        for peer in majority:
            dep.drop(cut_off, peer, duration=1.0)
            dep.drop(peer, cut_off, duration=1.0)
    client.invoke(Command.put("k", "stale"), target=old)
    dep.run_for(0.6)
    other = dep.new_client()
    other.invoke(Command.put("k", "fresh"), target=majority[0])
    dep.run_for(0.3)
    dep.drop(old, None, duration=5.0)
    dep.drop(None, old, duration=5.0)
    dep.run_for(0.6)  # the cut heals at 1.2 s
    other.invoke(Command.put("k", "after"), target=majority[0])
    dep.run_for(0.5)
    return dep


@pytest.mark.parametrize("protocol, params", STALE_WATERMARK_HOSTS)
def test_consensus_checker_flags_a_ballot_blind_watermark(protocol, params, monkeypatch):
    _ballot_blind(monkeypatch)
    dep = _stale_watermark_scenario(protocol, params)
    assert dep.replicas[FOLLOWER].store.history("k") == ["v0", "stale", "after"]
    consensus = check_deployment(dep)
    assert not consensus.ok
    assert consensus.violations[0].key == "k"


@pytest.mark.parametrize("protocol, params", STALE_WATERMARK_HOSTS)
def test_the_watermark_rule_survives_the_same_schedule(protocol, params):
    dep = _stale_watermark_scenario(protocol, params)
    for node in (FOLLOWER, NodeID(1, 3)):
        assert dep.replicas[node].store.history("k") == ["v0", "fresh", "after"]
    assert check_deployment(dep).ok
