"""Tests for the linearizability and consensus checkers."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.checkers.consensus import PrefixViolation, check_deployment, common_prefix_violations
from repro.checkers.linearizability import (
    check_history,
    check_history_graph,
    constraint_graph,
    has_cycle,
)
from repro.paxi.config import Config
from repro.paxi.deployment import Deployment
from repro.paxi.history import Operation
from repro.paxi.ids import NodeID
from repro.paxi.kvstore import MultiVersionStore
from repro.paxi.message import Command
from repro.protocols.paxos import MultiPaxos

# Every history checked here is checked as a list and as recorder columns.
pytestmark = pytest.mark.usefixtures("columns_agree")


def op(client, kind, key, value, output, t0, t1):
    return Operation(client, kind, key, value, output, t0, t1)


def w(value, t0, t1, client="c", key="k"):
    return op(client, "PUT", key, value, value, t0, t1)


def r(output, t0, t1, client="c", key="k"):
    return op(client, "GET", key, None, output, t0, t1)


class TestLegalHistories:
    def test_empty(self):
        assert check_history([]).ok

    def test_sequential_write_read(self):
        assert check_history([w("a", 0, 1), r("a", 2, 3)]).ok

    def test_read_initial_before_any_write(self):
        assert check_history([r(None, 0, 1), w("a", 2, 3)]).ok

    def test_concurrent_write_read_either_value(self):
        # Read overlaps the write: may return old or new.
        assert check_history([w("a", 0, 10), r(None, 1, 2)]).ok
        assert check_history([w("a", 0, 10), r("a", 1, 2)]).ok

    def test_read_of_in_flight_write_is_legal(self):
        # The write never returned (client crash / run cutoff) but took effect.
        assert check_history([w("a", 0, math.inf), r("a", 5, 6)]).ok

    def test_two_concurrent_writes_any_order(self):
        history = [w("a", 0, 10), w("b", 1, 9), r("a", 20, 21)]
        assert check_history(history).ok
        history2 = [w("a", 0, 10), w("b", 1, 9), r("b", 20, 21)]
        assert check_history(history2).ok

    def test_keys_are_independent(self):
        history = [
            w("a", 0, 1, key="x"),
            w("b", 0, 1, key="y"),
            r("a", 2, 3, key="x"),
            r("b", 2, 3, key="y"),
        ]
        assert check_history(history).ok


class TestViolations:
    def test_stale_read(self):
        result = check_history([w("a", 0, 1), w("b", 2, 3), r("a", 4, 5)])
        assert not result.ok
        assert result.anomalies[0].kind == "stale-read"

    def test_stale_initial_read(self):
        result = check_history([w("a", 0, 1), r(None, 2, 3)])
        assert not result.ok
        assert result.anomalies[0].kind == "stale-read"

    def test_future_read(self):
        result = check_history([r("a", 0, 1), w("a", 2, 3)])
        assert not result.ok
        assert result.anomalies[0].kind == "future-read"

    def test_dirty_read(self):
        result = check_history([r("ghost", 0, 1)])
        assert not result.ok
        assert result.anomalies[0].kind == "dirty-read"

    def test_concurrent_write_does_not_mask_staleness(self):
        # b strictly between a's write and the read -> stale even though c
        # overlaps the read.
        history = [w("a", 0, 1), w("b", 2, 3), w("c", 4, 10), r("a", 5, 6)]
        assert not check_history(history).ok


class TestGraphFormulation:
    def test_agrees_on_legal(self):
        history = [w("a", 0, 1), r("a", 2, 3), w("b", 4, 5), r("b", 6, 7)]
        assert check_history(history).ok
        assert check_history_graph(history)

    def test_agrees_on_stale(self):
        history = [w("a", 0, 1), w("b", 2, 3), r("a", 4, 5)]
        assert not check_history(history).ok
        assert not check_history_graph(history)

    def test_agrees_on_future(self):
        history = [r("a", 0, 1), w("a", 2, 3)]
        assert not check_history_graph(history)

    def test_cycle_detector(self):
        assert has_cycle({1: {2}, 2: {1}})
        assert not has_cycle({1: {2}, 2: set()})
        assert has_cycle({1: {1}})
        assert not has_cycle({})

    def test_constraint_graph_read_from_edge(self):
        history = [w("a", 0, 1), r("a", 10, 11)]
        edges = constraint_graph(history)
        assert 1 in edges[0]  # write -> read


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),  # invocation slot
            st.integers(min_value=1, max_value=5),  # duration
        ),
        min_size=1,
        max_size=12,
    )
)
def test_sequential_register_histories_always_pass(intervals):
    """Property: histories generated by a true sequential register are
    always accepted, regardless of timing."""
    # Build non-overlapping operations in invocation order: write i then
    # read-back, executed sequentially => trivially linearizable.
    t = 0.0
    history = []
    for i, (_slot, dur) in enumerate(intervals):
        history.append(w(f"v{i}", t, t + dur))
        t += dur
        history.append(r(f"v{i}", t, t + 1))
        t += 1
    result = check_history(history)
    assert result.ok, [a.detail for a in result.anomalies]
    assert check_history_graph(history)


def _scan(ops):
    """The stale-read test as a scan over every write of the key, the way
    the checker ran it before its writes were indexed.  Kept as the oracle:
    each read with its verdict (an anomaly kind or None), in the order
    ``check_history`` reports anomalies."""
    per_key = {}
    for o in ops:
        per_key.setdefault(o.key, []).append(o)
    verdicts = []
    for key_ops in per_key.values():
        key_ops.sort(key=lambda o: (o.invoked_at, o.returned_at))
        writes = [o for o in key_ops if not o.is_read]
        by_value = {o.value: o for o in writes}
        verdicts += [(o, _scan_read(o, writes, by_value)) for o in key_ops if o.is_read]
    return verdicts


def _scan_read(read, writes, by_value):
    if read.output is None:
        stale = any(w2.returned_at < read.invoked_at for w2 in writes)
        return "stale-read" if stale else None
    source = by_value.get(read.output)
    if source is None:
        return "dirty-read"
    if source.invoked_at > read.returned_at:
        return "future-read"
    for w2 in writes:
        if w2 is not source and source.returned_at < w2.invoked_at and w2.returned_at < read.invoked_at:
            return "stale-read"
    return None


_DURATIONS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0, math.inf])


@st.composite
def _histories(draw):
    """Two keys, a few writes and reads each on a coarse clock (so ties
    happen), some writes still open; a read returns the initial value or
    one that was written."""
    ops = []
    for key in ("a", "b"):
        values = [f"{key}{i}" for i in range(draw(st.integers(0, 5)))]
        for value in values:
            t0 = float(draw(st.integers(0, 12)))
            ops.append(w(value, t0, t0 + draw(_DURATIONS), client=len(ops), key=key))
        for _ in range(draw(st.integers(0, 4))):
            t0 = float(draw(st.integers(0, 14)))
            output = draw(st.sampled_from([None, *values]))
            t1 = t0 + draw(_DURATIONS.filter(math.isfinite))
            ops.append(r(output, t0, t1, client=len(ops), key=key))
    return draw(st.permutations(ops))


@given(_histories())
def test_indexed_stale_test_agrees_with_the_scan_and_the_graph(ops):
    """Property: per read, the indexed check, the scan it replaced and a
    cycle in the constraint graph of that read and its key's writes give
    one verdict; over a whole history with one read per key, so do
    ``check_history`` and ``check_history_graph``."""
    verdicts = _scan(ops)
    result = check_history(ops)
    assert [(a.read, a.kind) for a in result.anomalies] == [v for v in verdicts if v[1]]
    for read, kind in verdicts:
        writes = [o for o in ops if o.key == read.key and not o.is_read]
        assert has_cycle(constraint_graph([*writes, read])) == (kind is not None)
    if all(sum(o.is_read and o.key == key for o in ops) <= 1 for key in ("a", "b")):
        assert check_history_graph(ops) == result.ok


class TestConsensusChecker:
    def test_identical_histories_pass(self):
        histories = {
            NodeID(1, 1): ["a", "b"],
            NodeID(1, 2): ["a", "b"],
        }
        assert common_prefix_violations(histories) == []

    def test_prefix_histories_pass(self):
        histories = {
            NodeID(1, 1): ["a", "b", "c"],
            NodeID(1, 2): ["a"],
            NodeID(1, 3): [],
        }
        assert common_prefix_violations(histories) == []

    def test_divergence_detected(self):
        histories = {
            NodeID(1, 1): ["a", "b"],
            NodeID(1, 2): ["a", "x"],
        }
        violations = common_prefix_violations(histories, key="k")
        assert len(violations) == 1
        v = violations[0]
        assert v.position == 1
        assert {v.value_a, v.value_b} == {"b", "x"}
        assert v.key == "k"

    def test_first_divergence_reported(self):
        histories = {
            NodeID(1, 1): ["x", "b"],
            NodeID(1, 2): ["y", "c"],
        }
        violations = common_prefix_violations(histories)
        assert violations[0].position == 0

    def test_matches_the_pairwise_scan_on_planted_divergences(self):
        """The longest-chain shortcut reports exactly what the pairwise scan
        reports, divergent pair by pair, over generated chains."""
        rng = random.Random(11)
        diverged = 0
        for _ in range(600):
            base = [rng.choice("abc") for _ in range(rng.randrange(12))]
            histories = {
                NodeID(1 + i // 3, 1 + i % 3): base[: rng.randrange(len(base) + 1)]
                for i in range(rng.randrange(1, 10))
            }
            for chain in histories.values():
                if chain and rng.random() < 0.15:  # plant a divergence
                    chain[rng.randrange(len(chain))] = rng.choice("abx")
            want = _pairwise_prefix_violations(histories, key="k")
            assert common_prefix_violations(histories, key="k") == want
            diverged += bool(want)
        assert 100 < diverged < 500  # both outcomes well covered

    def test_deployment_check_reads_chains_in_place(self, monkeypatch):
        dep = Deployment(Config.lan(1, 3, seed=1)).start(MultiPaxos)
        client = dep.new_client()
        for i in range(3):
            client.invoke(Command.put("k", i))
            dep.run_for(0.02)

        def copied(store, key):
            raise AssertionError("the checker copied a chain")

        monkeypatch.setattr(MultiVersionStore, "history", copied)
        assert check_deployment(dep).ok
        store = dep.replicas[NodeID(1, 2)].store
        forged = store.dump()
        forged["k"][1] = "forged"
        store.restore(forged)
        assert check_deployment(dep).violations == [
            PrefixViolation("k", NodeID(1, 1), NodeID(1, 2), 1, 1, "forged"),
            PrefixViolation("k", NodeID(1, 2), NodeID(1, 3), 1, "forged", 1),
        ]


def _pairwise_prefix_violations(histories, key=None):
    """The consensus checker before its longest-chain shortcut, verbatim:
    the reference it must agree with."""
    violations = []
    nodes = sorted(histories)
    for index, node_a in enumerate(nodes):
        for node_b in nodes[index + 1 :]:
            chain_a = histories[node_a]
            chain_b = histories[node_b]
            for position in range(min(len(chain_a), len(chain_b))):
                if chain_a[position] != chain_b[position]:
                    violations.append(
                        PrefixViolation(
                            key=key,
                            node_a=node_a,
                            node_b=node_b,
                            position=position,
                            value_a=chain_a[position],
                            value_b=chain_b[position],
                        )
                    )
                    break
    return violations
