"""Unit tests for shared protocol machinery: ballots, log, SCC graph."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.paxi.quorum import MajorityQuorum
from repro.protocols.ballot import ZERO, Ballot, initial_ballot
from repro.protocols.graph import tarjan_sccs
from repro.protocols.log import CommandLog, RequestInfo


class TestBallot:
    def test_ordering_counter_first(self):
        assert Ballot(1, NodeID(9, 9)) < Ballot(2, NodeID(1, 1))

    def test_owner_breaks_ties(self):
        assert Ballot(1, NodeID(1, 1)) < Ballot(1, NodeID(1, 2))

    def test_next_is_strictly_larger_for_any_owner(self):
        b = Ballot(5, NodeID(3, 3))
        assert b.next(NodeID(1, 1)) > b

    def test_initial_above_zero(self):
        assert initial_ballot(NodeID(1, 1)) > ZERO

    def test_str(self):
        assert str(Ballot(3, NodeID(1, 2))) == "3@1.2"


B1 = Ballot(1, NodeID(1, 1))
B2 = Ballot(2, NodeID(1, 2))


class TestCommandLog:
    def test_append_assigns_sequential_slots(self):
        log = CommandLog()
        assert log.append(B1, Command.get("a")) == 1
        assert log.append(B1, Command.get("b")) == 2

    def test_commit_and_execute_in_order(self):
        log = CommandLog()
        s1 = log.append(B1, Command.get("a"))
        s2 = log.append(B1, Command.get("b"))
        log.commit(s2)
        assert log.executable() == []  # s1 not committed: s2 must wait
        log.commit(s1)
        runnable = [slot for slot, _e in log.executable()]
        assert runnable == [s1, s2]
        log.mark_executed(s1)
        log.mark_executed(s2)
        assert log.execute_index == 3

    def test_commit_upto_contiguous(self):
        log = CommandLog()
        for _ in range(3):
            log.append(B1, Command.get("x"))
        log.commit(1)
        log.commit(3)
        assert log.commit_upto() == 1
        log.commit(2)
        assert log.commit_upto() == 3

    def test_accept_does_not_overwrite_committed(self):
        log = CommandLog()
        log.accept(1, B1, Command.put("k", "keep"))
        log.commit(1)
        log.accept(1, B2, Command.put("k", "clobber"))
        assert log.entries[1].command.value == "keep"

    def test_accept_higher_ballot_overwrites(self):
        log = CommandLog()
        log.accept(1, B1, Command.put("k", "old"))
        log.accept(1, B2, Command.put("k", "new"))
        assert log.entries[1].command.value == "new"

    def test_accept_lower_ballot_ignored(self):
        log = CommandLog()
        log.accept(1, B2, Command.put("k", "new"))
        log.accept(1, B1, Command.put("k", "old"))
        assert log.entries[1].command.value == "new"

    def test_accept_advances_next_slot(self):
        log = CommandLog()
        log.accept(7, B1, Command.get("x"))
        assert log.next_slot == 8

    def test_commit_unknown_slot_raises(self):
        with pytest.raises(ProtocolError):
            CommandLog().commit(3)

    def test_execute_uncommitted_raises(self):
        log = CommandLog()
        log.append(B1, Command.get("a"))
        with pytest.raises(ProtocolError):
            log.mark_executed(1)

    def test_uncommitted_view(self):
        log = CommandLog()
        log.append(B1, Command.get("a"))
        log.append(B1, Command.get("b"))
        log.commit(1)
        assert list(log.uncommitted()) == [2]

    def test_missing_slots(self):
        log = CommandLog()
        log.accept(2, B1, Command.get("b"))
        log.accept(5, B1, Command.get("e"))
        assert log.missing_slots(5) == [1, 3, 4]

    def test_compacted_slots_never_count_as_missing(self):
        log = CommandLog()
        for slot in (1, 2, 3, 5, 6):
            log.accept(slot, B1, Command.get("x"))
        assert log.missing_slots(6) == [4]
        log.compact(5)
        assert log.floor == 5 and sorted(log.entries) == [6]
        for upto in range(1, 9):
            assert all(slot > 5 for slot in log.missing_slots(upto))
        assert log.missing_slots(8) == [7, 8]

    def test_compact_from_an_empty_log_moves_the_frontier(self):
        # A wiped replica installs a snapshot: nothing below it is missing.
        log = CommandLog()
        log.compact(1000)
        assert log.missing_slots(1000) == []
        assert log.missing_slots(1002) == [1001, 1002]

    def test_compact_at_or_below_the_floor_is_a_noop(self):
        log = CommandLog()
        for slot in range(1, 6):
            log.accept(slot, B1, Command.get("x"))
        log.compact(3)
        before = (dict(log.entries), log.floor, log.missing_slots(5))
        log.compact(3)
        log.compact(1)
        assert (dict(log.entries), log.floor, log.missing_slots(5)) == before

    def test_accept_at_or_below_the_floor_is_ignored(self):
        log = CommandLog()
        log.accept(1, B1, Command.get("x"))
        log.compact(1)
        log.accept(1, B2, Command.put("k", "late"))
        assert 1 not in log.entries

    def test_quorum_attached_to_entry(self):
        log = CommandLog()
        q = MajorityQuorum([NodeID(1, 1), NodeID(1, 2), NodeID(1, 3)])
        slot = log.append(B1, Command.get("a"), RequestInfo("c", 1), q)
        assert log.entries[slot].quorum is q  # while the slot is open
        log.commit(slot)
        assert log.entries[slot].committed and log.entries[slot].quorum is None


class TestTarjan:
    def test_chain_dependencies_first(self):
        # 3 depends on 2 depends on 1 (edges point at dependencies).
        edges = {3: [2], 2: [1], 1: []}
        sccs = tarjan_sccs([3], lambda n: edges[n])
        assert sccs == [[1], [2], [3]]

    def test_cycle_is_one_component(self):
        edges = {1: [2], 2: [1]}
        sccs = tarjan_sccs([1], lambda n: edges[n])
        assert len(sccs) == 1
        assert sorted(sccs[0]) == [1, 2]

    def test_component_order_respects_condensation(self):
        # {2,3} form a cycle that depends on {1}; 4 depends on the cycle.
        edges = {4: [2], 2: [3], 3: [2, 1], 1: []}
        sccs = tarjan_sccs([4], lambda n: edges[n])
        flat = ["".join(map(str, sorted(c))) for c in sccs]
        assert flat == ["1", "23", "4"]

    def test_multiple_roots_shared_subgraph(self):
        edges = {1: [], 2: [1], 3: [1]}
        sccs = tarjan_sccs([2, 3], lambda n: edges[n])
        flat = [c[0] for c in sccs]
        assert flat.index(1) < flat.index(2)
        assert flat.index(1) < flat.index(3)
        assert len(sccs) == 3  # node 1 visited once

    def test_long_chain_no_recursion_limit(self):
        n = 50_000
        edges = {i: [i - 1] for i in range(1, n)}
        edges[0] = []
        sccs = tarjan_sccs([n - 1], lambda v: edges[v])
        assert len(sccs) == n
        assert sccs[0] == [0]
        assert sccs[-1] == [n - 1]

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=15),
            st.lists(st.integers(min_value=0, max_value=15), max_size=4),
            max_size=16,
        )
    )
    def test_sccs_partition_reachable_nodes(self, raw):
        edges = {k: [v for v in vs if v in raw] for k, vs in raw.items()}
        sccs = tarjan_sccs(sorted(edges), lambda n: edges[n])
        seen = [n for c in sccs for n in c]
        assert sorted(seen) == sorted(edges)  # each node in exactly one SCC

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=12),
            st.lists(st.integers(min_value=0, max_value=12), max_size=3),
            max_size=13,
        )
    )
    def test_dependencies_emitted_before_dependents(self, raw):
        edges = {k: [v for v in vs if v in raw] for k, vs in raw.items()}
        sccs = tarjan_sccs(sorted(edges), lambda n: edges[n])
        position = {}
        for i, component in enumerate(sccs):
            for node in component:
                position[node] = i
        for node, deps in edges.items():
            for dep in deps:
                assert position[dep] <= position[node]
