"""Edge-case tests for protocol internals not reachable on happy paths."""

from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID, grid_ids
from repro.paxi.message import Command
from repro.paxi.quorum import FastQuorum, GridQuorum
from repro.protocols.epaxos import (
    COMMITTED,
    Accept,
    AcceptOK,
    CommitMsg,
    EPaxos,
    PreAccept,
    PreAcceptOK,
)
from repro.protocols.log import RequestInfo
from repro.protocols.paxos import MultiPaxos, P2a
from repro.protocols.ballot import Ballot
from repro.protocols.raft import AppendEntries, Raft


class TestQuorumDefeat:
    def test_grid_quorum_defeated_by_zone_loss(self):
        ids = grid_ids(3, 3)
        q = GridQuorum(ids, phase=1, f=1, fz=0)  # needs 2 acks in all 3 zones
        # Two nacks in one zone make phase-1 unsatisfiable.
        q.nack(NodeID(2, 1))
        q.nack(NodeID(2, 2))
        assert q.defeated()

    def test_fast_quorum_defeated(self):
        ids = grid_ids(1, 4)
        q = FastQuorum(ids, size=3)
        q.nack(ids[0])
        assert not q.defeated()
        q.nack(ids[1])
        assert q.defeated()


class TestRaftLogRepair:
    def test_conflicting_suffix_truncated(self):
        dep = Deployment(Config.lan(1, 3, seed=1)).start(Raft)
        dep.run_for(0.05)
        follower = dep.replicas[NodeID(1, 3)]
        # Hand the follower a bogus suffix from a dead divergent leader.
        follower.log = [
            (1, (1, Command.put("k", "good"), None)),
            (2, (99, Command.put("k", "bogus"), None)),
        ]
        leader_record = (1, Command.put("k", "truth"), None)
        follower.on_append_entries(
            NodeID(1, 1),
            AppendEntries(
                term=follower.term,
                prev_index=1,
                prev_term=1,
                entries=((2, leader_record),),
                leader_commit=0,
            ),
        )
        assert follower.log[1][1][1].value == "truth"
        assert len(follower.log) == 2

    def test_append_from_stale_term_rejected(self):
        dep = Deployment(Config.lan(1, 3, seed=2)).start(Raft)
        dep.run_for(0.05)
        follower = dep.replicas[NodeID(1, 2)]
        follower.term = 10
        before = list(follower.log)
        follower.on_append_entries(
            NodeID(1, 3),
            AppendEntries(term=3, prev_index=0, prev_term=0, entries=(), leader_commit=0),
        )
        assert follower.log == before
        assert follower.term == 10


class TestEPaxosOutOfOrderDelivery:
    def test_commit_before_preaccept_creates_instance(self):
        dep = Deployment(Config.lan(1, 3, seed=3)).start(EPaxos)
        replica = dep.replicas[NodeID(1, 2)]
        instance = (NodeID(1, 1), 1)
        replica.on_commit(
            NodeID(1, 1),
            CommitMsg(instance=instance, command=Command.put("k", "v"), deps=frozenset(), seq=1),
        )
        # No deps: executes immediately, and only its seq is kept.
        assert instance not in replica._instances
        assert replica._executed[instance] == 1
        assert replica.store.read("k") == "v"

    def test_accept_before_preaccept_creates_instance(self):
        dep = Deployment(Config.lan(1, 3, seed=4)).start(EPaxos)
        replica = dep.replicas[NodeID(1, 2)]
        instance = (NodeID(1, 1), 1)
        replica.on_accept(
            NodeID(1, 1),
            Accept(instance=instance, command=Command.put("k", "v"), deps=frozenset(), seq=1),
        )
        assert replica._instances[instance].status == "accepted"
        assert replica.store.read("k") is None  # not committed yet

    def test_execution_blocks_on_unknown_dependency(self):
        dep = Deployment(Config.lan(1, 3, seed=5)).start(EPaxos)
        replica = dep.replicas[NodeID(1, 2)]
        ghost = (NodeID(1, 3), 42)
        instance = (NodeID(1, 1), 1)
        replica.on_commit(
            NodeID(1, 1),
            CommitMsg(
                instance=instance,
                command=Command.put("k", "v"),
                deps=frozenset({ghost}),
                seq=2,
            ),
        )
        assert replica._instances[instance].status == COMMITTED  # not executed
        assert instance not in replica._executed
        # The ghost dependency arrives and commits: now both execute.
        replica.on_commit(
            NodeID(1, 3),
            CommitMsg(instance=ghost, command=Command.put("k", "older"), deps=frozenset(), seq=1),
        )
        assert replica._executed == {ghost: 1, instance: 2}
        assert not replica._instances
        assert replica.store.history("k") == ["older", "v"]

    def test_late_messages_for_an_executed_instance(self):
        """A PreAccept, Accept or Commit that arrives after its instance
        executed is answered from the executed seq alone: the same reply as
        when the full record was kept, no record re-created, nothing run
        twice and no executor bookkeeping left behind."""
        dep = Deployment(Config.lan(1, 3, seed=5)).start(EPaxos)
        replica = dep.replicas[NodeID(1, 2)]
        sent, executed = [], []
        replica.send = lambda dst, message: sent.append((dst, message))
        execute = replica._execute_instance
        replica._execute_instance = lambda iid: (executed.append(iid), execute(iid))
        leader, other = NodeID(1, 1), NodeID(1, 3)
        late, later = (leader, 1), (other, 1)
        put = Command.put("k", "v")
        replica.on_commit(leader, CommitMsg(instance=late, command=put, deps=frozenset(), seq=1))
        replica.on_commit(
            other,
            CommitMsg(instance=later, command=Command.put("k", "w"), deps=frozenset({late}), seq=2),
        )
        assert executed == [late, later]
        chain = replica.store.history("k")
        assert chain == ["v", "w"]

        replica.on_preaccept(leader, PreAccept(instance=late, command=put, deps=frozenset(), seq=1))
        replica.on_accept(leader, Accept(instance=late, command=put, deps=frozenset(), seq=1))
        replica.on_commit(leader, CommitMsg(instance=late, command=put, deps=frozenset(), seq=1))
        # The key's last write is now ``later`` (seq 2): the late PreAccept
        # is told to depend on it, one seq higher.
        assert sent == [
            (leader, PreAcceptOK(instance=late, deps=frozenset({later}), seq=3, changed=True)),
            (leader, AcceptOK(instance=late)),
        ]
        assert not replica._instances  # nothing re-created
        assert replica._executed == {late: 1, later: 2}
        assert executed == [late, later]  # nothing run twice
        assert replica.store.history("k") == chain
        assert replica._last_write["k"] == later  # not re-tracked
        assert not replica._frontier
        assert not replica._dependents


class TestPaxosStaleMessages:
    def test_stale_p2a_gets_nack(self):
        dep = Deployment(Config.lan(1, 3, seed=6)).start(MultiPaxos)
        dep.run_for(0.05)
        follower = dep.replicas[NodeID(1, 2)]
        stale = Ballot(0, NodeID(1, 3))
        follower.on_p2a(
            NodeID(1, 3),
            P2a(ballot=stale, slot=1, command=Command.put("k", "x"), request=None, commit_upto=0),
        )
        # The stale proposal must not be accepted into the log.
        entry = follower.log.entries.get(1)
        assert entry is None or entry.command is None or entry.command.value != "x"

    def test_duplicate_p2b_acks_idempotent(self):
        # Five nodes: self + one follower is short of the majority, so the
        # slot stays open and its vote set can be inspected.
        dep = Deployment(Config.lan(1, 5, seed=7)).start(MultiPaxos)
        dep.run_for(0.05)
        leader = dep.replicas[NodeID(1, 1)]
        leader._propose(Command.put("k", "v"), RequestInfo("nobody", 1))
        slot = leader.log.next_slot - 1
        from repro.protocols.paxos import P2b

        for _ in range(5):
            leader.on_p2b(NodeID(1, 2), P2b(ballot=leader.ballot, slot=slot, ok=True))
        entry = leader.log.entries[slot]
        assert len(entry.quorum.acks) == 2  # self + 1.2, not 6
        assert not entry.committed
        # The committing ack spends the vote set: nothing reads it again.
        leader.on_p2b(NodeID(1, 3), P2b(ballot=leader.ballot, slot=slot, ok=True))
        assert entry.committed and entry.quorum is None
        # A late ack finds no vote set and is ignored.
        leader.on_p2b(NodeID(1, 4), P2b(ballot=leader.ballot, slot=slot, ok=True))
        assert entry.quorum is None
