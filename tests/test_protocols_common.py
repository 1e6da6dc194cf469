"""Unit tests for shared protocol machinery: ballots, log, SCC graph."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.paxi.ids import NodeID
from repro.paxi.message import Command
from repro.paxi.quorum import MajorityQuorum
from repro.protocols.ballot import ZERO, Ballot, initial_ballot
from repro.protocols.graph import tarjan_sccs
from repro.protocols.log import FILL_BATCH, CommandLog, RequestInfo, merge_snapshots


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


def _fill_targets(log, upto, ballot=B1):
    """Apply a watermark with no retry delay; return its fill targets."""
    return list(log.apply_watermark(upto, ballot, now=0.0, retry_after=0.0))


def _execute(log):
    ran = []
    log.execute(lambda slot, entry: ran.append(slot))
    return ran


class TestCommandLog:
    def test_append_assigns_sequential_slots(self):
        log = CommandLog()
        assert log.propose(B1, Command.get("a"), now=0.0) == 1
        assert log.propose(B1, Command.get("b"), now=0.0) == 2

    def test_commit_and_execute_in_order(self):
        log = CommandLog()
        s1 = log.propose(B1, Command.get("a"), now=0.0)
        s2 = log.propose(B1, Command.get("b"), now=0.0)
        log.commit(s2)
        assert _execute(log) == []  # s1 not committed: s2 must wait
        log.commit(s1)
        runnable = _execute(log)
        assert runnable == [s1, s2]
        assert log.execute_index == 3

    def test_commit_upto_contiguous(self):
        log = CommandLog()
        for _ in range(3):
            log.propose(B1, Command.get("x"), now=0.0)
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

    def test_execute_never_runs_an_uncommitted_slot(self):
        log = CommandLog()
        log.propose(B1, Command.get("a"), now=0.0)
        assert _execute(log) == []
        assert log.execute_index == 1

    def test_execute_advances_only_after_the_slot_ran(self):
        log = CommandLog()
        log.propose(B1, Command.get("a"), now=0.0)
        log.commit(1)
        seen = []
        log.execute(lambda slot, entry: seen.append((slot, log.execute_index)))
        assert seen == [(1, 1)] and log.execute_index == 2

    def test_reentrant_execute_returns_and_the_outer_loop_runs_the_new_slot(self):
        log = CommandLog()
        ran = []

        def run(slot, entry):
            ran.append(slot)
            if slot == 1:
                log.commit(log.propose(B1, Command.get("follow-up"), now=0.0))
                log.execute(run)  # returns at once: the outer loop owns execution
                assert ran == [1]

        log.commit(log.propose(B1, Command.get("a"), now=0.0))
        log.execute(run)
        assert ran == [1, 2] and log.execute_index == 3

    def test_uncommitted_view(self):
        log = CommandLog()
        log.propose(B1, Command.get("a"), now=0.0)
        log.propose(B1, Command.get("b"), now=0.0)
        log.commit(1)
        assert list(log.uncommitted()) == [2]

    def test_missing_slots(self):
        log = CommandLog()
        log.accept(2, B1, Command.get("b"))
        log.accept(5, B1, Command.get("e"))
        assert _fill_targets(log, 5) == [1, 3, 4]

    def test_compacted_slots_never_count_as_missing(self):
        log = CommandLog()
        for slot in (1, 2, 3, 5, 6):
            log.accept(slot, B1, Command.get("x"))
        assert _fill_targets(log, 6) == [4]
        log.compact(5)
        assert log.floor == 5 and sorted(log.entries) == [6]
        for upto in range(1, 9):
            assert all(slot > 5 for slot in _fill_targets(log, upto))
        assert _fill_targets(log, 8) == [7, 8]

    def test_compact_from_an_empty_log_moves_the_frontier(self):
        # A wiped replica installs a snapshot: nothing below it is missing.
        log = CommandLog()
        log.compact(1000)
        assert _fill_targets(log, 1000) == []
        assert _fill_targets(log, 1002) == [1001, 1002]

    def test_compact_at_or_below_the_floor_is_a_noop(self):
        log = CommandLog()
        for slot in range(1, 6):
            log.accept(slot, B1, Command.get("x"))
        log.compact(3)
        before = (dict(log.entries), log.floor, _fill_targets(log, 5))
        log.compact(3)
        log.compact(1)
        assert (dict(log.entries), log.floor, _fill_targets(log, 5)) == before

    def test_watermark_commits_only_entries_accepted_under_its_ballot(self):
        """The stale-watermark bug class: a slot accepted under an older
        ballot may hold a value the newer leader did not choose."""
        log = CommandLog()
        log.accept(1, B2, Command.put("k", "new"))
        log.accept(2, B1, Command.put("k", "stale"))
        log.accept(3, B2, Command.put("k", "new"))
        assert _fill_targets(log, 3, ballot=B2) == [2]
        assert log.entries[1].committed and log.entries[3].committed
        assert not log.entries[2].committed
        assert log.commit_upto() == 1

    def test_watermark_of_no_known_leader_commits_nothing(self):
        log = CommandLog()
        log.accept(1, B1, Command.get("a"))
        assert _fill_targets(log, 2, ballot=None) == [1, 2]
        assert not log.entries[1].committed

    def test_watermark_commit_drops_the_votes(self):
        log = CommandLog()
        log.propose(B1, Command.get("a"), quorum=MajorityQuorum([NodeID(1, 1), NodeID(1, 2)]), now=0.0)
        assert _fill_targets(log, 1) == []
        assert log.entries[1].committed and log.entries[1].quorum is None

    def test_fill_targets_wait_for_the_deadline_and_are_bounded(self):
        log = CommandLog()
        assert log.apply_watermark(100, B1, now=1.0, retry_after=0.5) == tuple(range(1, FILL_BATCH + 1))
        assert log.apply_watermark(100, B1, now=1.4, retry_after=0.5) == ()  # reply may be in flight
        assert log.apply_watermark(100, B1, now=1.5, retry_after=0.5)[0] == 1  # lost: ask again

    def test_adopting_a_fill_reply_reopens_gap_fill_at_once(self):
        log = CommandLog()
        log.accept(1, B2, Command.put("k", "losing"))
        assert log.apply_watermark(2, B1, now=1.0, retry_after=0.5) == (1, 2)
        log.adopt([(1, B1, Command.put("k", "chosen"), None, True), (2, B1, None, None, False)])
        assert log.entries[1].committed and log.entries[1].command.value == "chosen"
        assert log.entries[1].ballot == B1 and log.next_slot == 2
        assert log.apply_watermark(2, B1, now=1.1, retry_after=0.5) == (2,)

    def test_snapshots_and_phase1_merge(self):
        log = CommandLog()
        log.accept(1, B1, Command.get("a"))
        log.accept(3, B2, Command.get("c"))
        log.commit(3)
        assert [snap[0] for snap in log.snapshots()] == [1, 3]
        assert [snap[0] for snap in log.snapshots(above=1)] == [3]
        assert [snap[0] for snap in log.snapshots([3, 2])] == [3]
        into = {1: (1, B2, Command.get("newer"), None, False), 3: (3, B1, None, None, False)}
        merge_snapshots(into, log.snapshots())
        assert into[1][1] == B2  # the higher ballot stays
        assert into[3][4] and into[3][1] == B2  # a committed value wins

    def test_accept_at_or_below_the_floor_is_ignored(self):
        log = CommandLog()
        log.accept(1, B1, Command.get("x"))
        log.compact(1)
        log.accept(1, B2, Command.put("k", "late"))
        assert 1 not in log.entries

    def test_quorum_attached_to_entry(self):
        log = CommandLog()
        q = MajorityQuorum([NodeID(1, 1), NodeID(1, 2), NodeID(1, 3)])
        slot = log.propose(B1, Command.get("a"), RequestInfo("c", 1), q, now=0.0)
        assert log.entries[slot].quorum is q  # while the slot is open
        log.commit(slot)
        assert log.entries[slot].committed and log.entries[slot].quorum is None


class TestProposerSide:
    """What CommandLog keeps for the slots its host proposed."""

    PEERS = [NodeID(1, 2), NodeID(1, 3)]

    def _proposed(self, log, now=0.0, slot=None):
        q = MajorityQuorum([NodeID(1, 1), *self.PEERS])
        q.ack(NodeID(1, 1))
        return log.propose(B1, Command.get("a"), None, q, now=now, slot=slot)

    def test_propose_places_at_the_next_or_the_given_slot(self):
        log = CommandLog()
        assert self._proposed(log) == 1
        assert self._proposed(log, slot=5) == 5 and log.next_slot == 6
        assert self._proposed(log, slot=3) == 3 and log.next_slot == 6
        assert log.in_flight == 3

    def test_ack_reports_the_vote_that_completes_the_quorum(self):
        log = CommandLog()
        slot = self._proposed(log)
        assert log.ack(slot, NodeID(1, 2))
        log.commit(slot)
        assert not log.ack(slot, NodeID(1, 3))  # committed: nothing to count
        assert not log.ack(9, NodeID(1, 2))  # never proposed here
        assert log.in_flight == 0

    def test_due_waits_for_the_timeout_then_restamps(self):
        log = CommandLog()
        slot = self._proposed(log, now=1.0)
        assert list(log.due(1.2, 0.3, self.PEERS, B1)) == []
        [(due_slot, entry, behind)] = log.due(1.3, 0.3, self.PEERS, B1)
        assert (due_slot, behind) == (slot, self.PEERS) and entry is log.entries[slot]
        assert list(log.due(1.5, 0.3, self.PEERS, B1)) == []  # re-stamped at 1.3

    def test_due_lists_only_the_members_still_behind(self):
        log = CommandLog()
        slot = self._proposed(log)
        log.entries[slot].quorum.ack(NodeID(1, 2))
        assert [behind for _, _, behind in log.due(1.0, 0.3, self.PEERS, B1)] == [[NodeID(1, 3)]]
        log.entries[slot].quorum.ack(NodeID(1, 3))
        assert list(log.due(2.0, 0.3, self.PEERS, B1)) == [] and log.in_flight == 1

    def test_due_drops_what_is_no_longer_this_proposers_to_resend(self):
        log = CommandLog()
        committed, overwritten, compacted, open_ = (self._proposed(log) for _ in range(4))
        log.entries[committed].committed = True  # by a watermark, not commit()
        log.accept(overwritten, B2, Command.get("newer"))
        log.entries.pop(compacted)
        assert [slot for slot, _, _ in log.due(1.0, 0.3, self.PEERS, B1)] == [open_]
        assert log.in_flight == 1
        # Deposed: the proposer leads under B2 now, so a B1 proposal is not its to re-send.
        assert list(log.due(2.0, 0.3, self.PEERS, B2)) == [] and log.in_flight == 0

    def test_recover_adopts_chosen_values_and_yields_the_rest(self):
        log = CommandLog()
        log.accept(1, B1, Command.get("mine"))
        log.commit(1)
        log.accept(2, B1, Command.get("accepted"))
        learned = {
            2: (2, B1, Command.get("accepted"), None, False),
            3: (3, B2, Command.get("chosen"), None, True),
            5: (5, B1, Command.get("pending"), None, False),
        }
        walk = [(slot, command and command.key) for slot, command, _ in log.recover(learned)]
        assert walk == [(2, "accepted"), (4, None), (5, "pending")]
        assert log.entries[3].committed and log.entries[3].ballot == B2
        assert log.next_slot == 6


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
