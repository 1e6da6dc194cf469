"""The EPaxos executor against its oracle, and its cost per commit.

``EPaxos._try_execute`` looks only at the instances that wait on the one
that just committed.  Execution order decides reply order, and reply order
feeds the network's seeded delay stream, so the incremental executor has to
be *exactly* the full scan it replaced, not merely a correct EPaxos.
``FullScanEPaxos`` below is that full scan, kept as the reference; the
scaling tests then pin what the rewrite bought (host time per commit does
not grow with history) and that its bookkeeping drains.  Production keeps
only the ``seq`` of an executed instance; the oracle keeps every record it
has ever seen, so it stays a scan over all of them.
"""

import time

import pytest

from repro.bench.benchmarker import ClosedLoopBenchmark
from repro.bench.nemesis import Nemesis
from repro.bench.workload import WorkloadSpec
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.message import ClientReply, Command
from repro.protocols.epaxos import COMMITTED, CommitMsg, EPaxos, _Instance
from repro.protocols.graph import tarjan_sccs

from tests.conftest import run_protocol


# The oracle's status for the records it keeps after execution.
EXECUTED = "executed"


class FullScanEPaxos(EPaxos):
    """Reference executor: on every commit, Tarjan over every committed
    instance this replica has ever seen (the executor before the
    dependency frontier, verbatim).  It puts each record back into
    ``_instances`` after executing it, so the scan still sees them all."""

    def _execute_instance(self, instance):
        record = self._instances[instance]
        super()._execute_instance(instance)
        record.status = EXECUTED
        self._instances[instance] = record

    def on_commit(self, src, m):
        existing = self._instances.get(m.instance)
        if existing is None:
            self._instances[m.instance] = _Instance(
                command=m.command, deps=m.deps, seq=m.seq, status=COMMITTED
            )
            self._track(m.instance, m.command)
        elif existing.status != EXECUTED:
            existing.deps = m.deps
            existing.seq = m.seq
            existing.status = COMMITTED
        self._try_execute()

    def _try_execute(self, committed=None):
        ready = [
            iid
            for iid, record in self._instances.items()
            if record.status == COMMITTED
        ]
        if not ready:
            return

        def successors(iid):
            record = self._instances.get(iid)
            if record is None:
                return []
            return [
                dep
                for dep in record.deps
                if dep in self._instances and self._instances[dep].status != EXECUTED
            ]

        executed_now = set()
        for component in tarjan_sccs(sorted(ready), successors):
            component_blocked = False
            members = set(component)
            for iid in component:
                record = self._instances.get(iid)
                if record is None or record.status not in (COMMITTED, EXECUTED):
                    component_blocked = True
                    break
                for dep in record.deps:
                    if dep in members or dep in executed_now:
                        continue
                    dep_record = self._instances.get(dep)
                    if dep_record is None or dep_record.status != EXECUTED:
                        component_blocked = True
                        break
                if component_blocked:
                    break
            if component_blocked:
                continue
            for iid in sorted(
                (i for i in component if self._instances[i].status == COMMITTED),
                key=lambda i: (self._instances[i].seq, i),
            ):
                self._execute_instance(iid)
                executed_now.add(iid)


class _Recording:
    """Mixin: what a replica executed and whom it answered, in order, and
    how often a message arrived in the awkward shapes."""

    def __init__(self, deployment, node_id):
        super().__init__(deployment, node_id)
        self.executed = []
        self.replied = []
        self.commit_before_preaccept = 0
        self.commit_with_unknown_dep = 0
        self.vote_after_execution = 0

    def _known(self, instance):
        return instance in self._instances or instance in self._executed

    def on_commit(self, src, m):
        self.commit_before_preaccept += not self._known(m.instance)
        self.commit_with_unknown_dep += any(not self._known(d) for d in m.deps)
        super().on_commit(src, m)

    def on_preaccept(self, src, m):
        self.vote_after_execution += m.instance in self._executed
        super().on_preaccept(src, m)

    def on_accept(self, src, m):
        self.vote_after_execution += m.instance in self._executed
        super().on_accept(src, m)

    def _execute_instance(self, instance):
        self.executed.append(instance)
        super()._execute_instance(instance)

    def send(self, dst, message):
        if type(message) is ClientReply:
            self.replied.append((dst, message.request_id))
        super().send(dst, message)


def _run(protocol, seed, conflict, keys, nemesis=None):
    """One short closed-loop run; everything an executor could perturb."""
    factory = type(f"Recording{protocol.__name__}", (_Recording, protocol), {})
    dep = Deployment(Config.lan(3, 3, seed=seed)).start(factory)
    if nemesis is not None:
        nemesis.unleash(dep)
    spec = WorkloadSpec(keys=keys, write_ratio=0.5, conflict_ratio=conflict)
    ClosedLoopBenchmark(dep, spec, concurrency=64).run(0.1, 0.01, 0.02)
    dep.run_for(0.1)  # drain commits still in flight
    replicas = dep.replicas
    return {
        "executed": {node: r.executed for node, r in replicas.items()},
        "replied": {node: r.replied for node, r in replicas.items()},
        "events_fired": dep.cluster.loop.events_fired,
        "history": dep.history.snapshot(),
    }, replicas


@pytest.mark.parametrize("keys", [1, 2, 10])
@pytest.mark.parametrize("conflict", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("seed", [2, 3])
def test_frontier_executor_matches_full_scan(seed, conflict, keys):
    """Cells (2, 0.4, 2) and (3, 0.4, 10) are the ones that tell the exact
    rule from the near miss — collecting the waiters of a commit through
    *committed* instances only, which lets a root that reaches it through
    an uncommitted one be visited in a different order."""
    got, _ = _run(EPaxos, seed, conflict, keys)
    want, _ = _run(FullScanEPaxos, seed, conflict, keys)
    assert sum(map(len, want["executed"].values())) > 500
    assert got == want


def test_frontier_executor_matches_full_scan_under_drops():
    """Dropped and flaky links leave holes: commits for instances a replica
    never pre-accepted, dependencies it has never heard of, instances that
    never commit and block their dependents for good, and dependency
    cycles.  A slow link also delivers a PreAccept or Accept after its
    instance has executed at the receiver, which must answer it from the
    executed instance's seq alone, as the oracle does from the full record
    it keeps.  The two executors must still agree event for event."""
    schedules = {"drop-flaky": (4, ("drop", "flaky")), "slow": (1, ("drop", "flaky", "slow"))}
    shapes = {}
    for name, (seed, kinds) in schedules.items():

        def nemesis():
            return Nemesis(seed=seed, horizon=0.1, events=6, kinds=kinds, max_duration=0.1)

        got, replicas = _run(EPaxos, 7, 0.4, 10, nemesis())
        want, oracle = _run(FullScanEPaxos, 7, 0.4, 10, nemesis())
        assert got == want, name
        shapes[name] = {
            "commit_before_preaccept": sum(r.commit_before_preaccept for r in replicas.values()),
            "commit_with_unknown_dep": sum(r.commit_with_unknown_dep for r in replicas.values()),
            "blocked_for_good": any(r._frontier for r in replicas.values()),
            "two_instance_cycle": any(
                instance in r._instances[dep].deps
                for r in oracle.values()  # the oracle keeps executed records
                for instance, record in r._instances.items()
                for dep in record.deps
                if dep in r._instances
            ),
            "vote_after_execution": sum(r.vote_after_execution for r in replicas.values()),
        }
        assert shapes[name]["vote_after_execution"] == sum(
            r.vote_after_execution for r in oracle.values()
        ), name
    # The schedules really produced the shapes this test is named for.
    for name, seen in shapes.items():
        assert seen["commit_before_preaccept"] > 0, (name, seen)
        assert seen["commit_with_unknown_dep"] > 0, (name, seen)
        assert seen["blocked_for_good"], (name, seen)
    assert shapes["drop-flaky"]["two_instance_cycle"], shapes
    assert shapes["slow"]["vote_after_execution"] > 0, shapes


# ----------------------------------------------------------------------
# Scaling and leak guard: one replica fed commits directly.
# ----------------------------------------------------------------------

LEADER = NodeID(1, 1)


def _independent(n):
    return [((LEADER, i), frozenset(), i) for i in range(1, n + 1)]


def _chain_tail_first(n):
    """i depends on i-1, committed newest-first: nothing runs until the
    head arrives, and every commit before it names an unknown instance."""
    return [
        ((LEADER, i), frozenset({(LEADER, i - 1)}) if i > 1 else frozenset(), i)
        for i in range(n, 0, -1)
    ]


def _cycle_every(n, k=8):
    """Independent instances, but every k-th and its successor name each
    other (committed one after the other, so the first of the pair waits)."""
    commits = []
    for i in range(1, n + 1, 2):
        pair = i % k == 1
        commits.append(((LEADER, i), frozenset({(LEADER, i + 1)}) if pair else frozenset(), i))
        commits.append(((LEADER, i + 1), frozenset({(LEADER, i)}) if pair else frozenset(), i + 1))
    return commits


def _feed(commits):
    """Host seconds for one fresh replica to take ``commits``, and the
    replica afterwards."""
    replica = Deployment(Config.lan(1, 3, seed=1)).start(EPaxos).replicas[NodeID(1, 2)]
    messages = [
        CommitMsg(instance=instance, command=Command.put(instance[1] % 7, instance[1]), deps=deps, seq=seq)
        for instance, deps, seq in commits
    ]
    started = time.perf_counter()
    for message in messages:
        replica.on_commit(LEADER, message)
    return time.perf_counter() - started, replica


def _assert_drained(replica):
    """Everything executed and nothing left behind: no instance record (a
    command leader's PreAccept scratch goes with it), no frontier entry and
    no reverse-index entry."""
    assert not replica._instances
    assert not replica._frontier
    assert not replica._dependents


@pytest.mark.parametrize("shape", [_independent, _chain_tail_first, _cycle_every])
def test_commit_cost_does_not_grow_with_history(shape):
    """4x the instances must cost about 4x the host time (a rescan of all
    instances per commit costs 16x), and afterwards nothing is left in the
    frontier, the reverse index or a leader's scratch set."""
    n = 1500
    small = min(_feed(shape(n))[0] for _ in range(3))
    large, replica = min((_feed(shape(4 * n)) for _ in range(3)), key=lambda timed: timed[0])
    assert large / small < 8, (small, large)
    assert len(replica._executed) == 4 * n
    _assert_drained(replica)


def test_leader_scratch_and_index_drain_after_a_run():
    """Same leak guard on the full protocol: pre-accepts, slow paths and
    commits all index dependencies; after the run drains nothing waits."""
    spec = WorkloadSpec(keys=10, write_ratio=0.5, conflict_ratio=0.4)
    dep, _result = run_protocol(EPaxos, Config.lan(3, 3, seed=3), spec, concurrency=12, duration=0.08)
    dep.run_for(0.1)
    for replica in dep.replicas.values():
        assert len(replica._executed) > 100
        _assert_drained(replica)
