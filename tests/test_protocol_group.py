"""Unit tests for the embedded per-zone Paxos group engine."""

from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.ids import NodeID
from repro.paxi.node import Replica
from repro.protocols.group import GroupEngine


class GroupedReplica(Replica):
    """Test harness: every replica runs one group engine for its zone and
    journals executed items."""

    def __init__(self, deployment, node_id):
        super().__init__(deployment, node_id)
        self.executed: list = []
        self.engine = GroupEngine(
            self,
            deployment.config.ids_in_zone(node_id.zone),
            lambda item, is_leader: self.executed.append(item),
            flush_interval=0.01,
        )


def make(zones=2, per_zone=3, seed=0):
    return Deployment(Config.lan(zones, per_zone, seed=seed)).start(GroupedReplica)


def test_leader_is_lowest_id():
    dep = make()
    assert dep.replicas[NodeID(1, 1)].engine.is_leader
    assert not dep.replicas[NodeID(1, 2)].engine.is_leader
    assert dep.replicas[NodeID(2, 1)].engine.is_leader


def test_items_execute_on_all_group_members_in_order():
    dep = make()
    leader = dep.replicas[NodeID(1, 1)]
    for i in range(5):
        leader.engine.propose(("item", i))
    dep.run_for(0.2)
    expected = [("item", i) for i in range(5)]
    for n in (1, 2, 3):
        assert dep.replicas[NodeID(1, n)].executed == expected


def test_items_do_not_leak_across_zones():
    dep = make()
    dep.replicas[NodeID(1, 1)].engine.propose(("z1",))
    dep.replicas[NodeID(2, 1)].engine.propose(("z2",))
    dep.run_for(0.2)
    assert dep.replicas[NodeID(1, 2)].executed == [("z1",)]
    assert dep.replicas[NodeID(2, 2)].executed == [("z2",)]


def test_execution_waits_for_majority_and_recovers_after_heal():
    dep = make(zones=1, per_zone=3)
    leader = dep.replicas[NodeID(1, 1)]
    # Cut the leader off from BOTH followers: no majority, no execution.
    dep.drop(NodeID(1, 1), NodeID(1, 2), duration=0.5, at=0.0)
    dep.drop(NodeID(1, 1), NodeID(1, 3), duration=0.5, at=0.0)
    leader.engine.propose(("blocked",))
    dep.run_for(0.3)
    assert leader.executed == []
    # Links heal; the flush-tick retransmission re-delivers the accept and
    # the slot finally commits and executes on everyone.
    dep.run_for(0.6)
    leader.engine.propose(("after",))
    dep.run_for(0.2)
    for n in (1, 2, 3):
        assert dep.replicas[NodeID(1, n)].executed == [("blocked",), ("after",)]


def test_follower_gap_fill_after_partial_loss():
    dep = make(zones=1, per_zone=3)
    leader = dep.replicas[NodeID(1, 1)]
    # Follower 1.3 misses a window of accepts; 1.2 keeps the quorum alive,
    # so the slots commit without 1.3 — which must then gap-fill.
    dep.drop(NodeID(1, 1), NodeID(1, 3), duration=0.05, at=0.0)
    for i in range(5):
        leader.engine.propose(("item", i))
    dep.run_for(1.0)
    expected = [("item", i) for i in range(5)]
    assert dep.replicas[NodeID(1, 3)].executed == expected


def test_single_member_group_commits_immediately():
    dep = make(zones=1, per_zone=1)
    leader = dep.replicas[NodeID(1, 1)]
    leader.engine.propose(("solo",))
    dep.run_for(0.01)
    assert leader.executed == [("solo",)]


def test_leader_callback_sees_is_leader_flag():
    flags = []

    class FlagReplica(Replica):
        def __init__(self, deployment, node_id):
            super().__init__(deployment, node_id)
            self.engine = GroupEngine(
                self,
                deployment.config.ids_in_zone(node_id.zone),
                lambda item, is_leader: flags.append((node_id, is_leader)),
                flush_interval=0.01,
            )

    dep = Deployment(Config.lan(1, 3, seed=1)).start(FlagReplica)
    dep.replicas[NodeID(1, 1)].engine.propose("x")
    dep.run_for(0.2)
    assert (NodeID(1, 1), True) in flags
    assert (NodeID(1, 2), False) in flags


def test_a_lost_fill_request_does_not_wedge_gap_fill(monkeypatch):
    """The leader swallows the first fill request.  The lagging member asks
    again once its fill deadline passes, instead of waiting forever for a
    reply that will never come."""
    swallowed = []
    serve = GroupEngine._on_fill_request

    def lossy(engine, src, m):
        if swallowed:
            serve(engine, src, m)
        else:
            swallowed.append(m.slots)

    monkeypatch.setattr(GroupEngine, "_on_fill_request", lossy)
    dep = make(zones=1, per_zone=3)
    leader = dep.replicas[NodeID(1, 1)]
    dep.drop(NodeID(1, 1), NodeID(1, 3), duration=0.05, at=0.0)
    items = [("item", i) for i in range(10)]
    for item in items:
        leader.engine.propose(item)
    dep.run_for(6.0)
    assert swallowed
    assert dep.replicas[NodeID(1, 3)].executed == items


def test_reentrant_execution_runs_every_item_once_in_slot_order():
    """A one-member group commits a proposal synchronously, so an
    ``on_execute`` that proposes a follow-up re-enters execution; the
    running loop must pick the follow-up up after the current item."""
    order = []

    class Chaining(Replica):
        def __init__(self, deployment, node_id):
            super().__init__(deployment, node_id)
            self.engine = GroupEngine(self, [node_id], self.on_item, flush_interval=0.01)

        def on_item(self, item, is_leader):
            order.append(item)
            if item < 5:
                self.engine.propose(item + 1)
                order.append(("proposed", item + 1))

    dep = Deployment(Config.lan(1, 1, seed=1)).start(Chaining)
    engine = dep.replicas[NodeID(1, 1)].engine
    engine.propose(0)
    dep.run_for(0.01)
    items = [x for x in order if not isinstance(x, tuple)]
    assert items == [0, 1, 2, 3, 4, 5]  # each once, in slot order
    # Each follow-up runs after the callback that proposed it returned.
    assert order.index(("proposed", 1)) < order.index(1)
    assert engine.log.execute_index == 7
