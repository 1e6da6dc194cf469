"""Unit tests for the multi-version store and history recording."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.paxi.history import HistoryRecorder, Operation
from repro.paxi.kvstore import CasFailed, MultiVersionStore
from repro.paxi.message import Command


class TestStore:
    def test_read_missing_key_returns_none(self):
        store = MultiVersionStore()
        assert store.execute(Command.get("nope")) is None

    def test_write_then_read(self):
        store = MultiVersionStore()
        assert store.execute(Command.put("k", "v1")) == "v1"
        assert store.execute(Command.get("k")) == "v1"

    def test_versions_accumulate(self):
        store = MultiVersionStore()
        for i in range(3):
            store.execute(Command.put("k", f"v{i}"))
        assert store.version("k") == 3
        assert store.history("k") == ["v0", "v1", "v2"]

    def test_reads_do_not_create_versions(self):
        store = MultiVersionStore()
        store.execute(Command.get("k"))
        assert store.version("k") == 0
        assert len(store) == 0

    def test_execution_counter(self):
        store = MultiVersionStore()
        store.execute(Command.get("a"))
        store.execute(Command.put("a", 1))
        assert store.executions == 2

    def test_peek_read_does_not_count(self):
        store = MultiVersionStore()
        store.read("a")
        assert store.executions == 0

    def test_keys(self):
        store = MultiVersionStore()
        store.execute(Command.put("a", 1))
        store.execute(Command.put("b", 2))
        assert sorted(store.keys()) == ["a", "b"]

    def test_adopt_extends(self):
        store = MultiVersionStore()
        store.execute(Command.put("k", "v1"))
        store.adopt("k", ["v1", "v2", "v3"])
        assert store.history("k") == ["v1", "v2", "v3"]
        assert store.version("k") == 3

    def test_adopt_ignores_stale_shorter_chain(self):
        store = MultiVersionStore()
        store.adopt("k", ["a", "b"])
        store.adopt("k", ["a"])
        assert store.history("k") == ["a", "b"]

    def test_failed_cas_appends_nothing(self):
        store = MultiVersionStore()
        store.execute(Command.put("k", "a"))
        assert store.execute(Command.cas("k", "not-a", "b")) == CasFailed("a")
        assert store.version("k") == 1 and store.history("k") == ["a"]
        assert store.execute(Command.cas("k", "a", "b")) == "b"
        assert store.version("k") == 2 and store.read("k") == "b"
        assert store.execute(Command.cas("fresh", None, "x")) == "x"

    def test_dump_restore_round_trip_shares_nothing(self):
        store = MultiVersionStore()
        for key, value in (("a", 1), ("a", 2), ("b", 3)):
            store.execute(Command.put(key, value))
        dump = store.dump()
        assert dump == {"a": [1, 2], "b": [3]}
        twin = MultiVersionStore()
        twin.restore(dump)
        # Writes on any side stay on that side: chains are plain lists now,
        # so a dump / restore / adopt / history that aliased one would leak.
        store.execute(Command.put("a", 99))
        twin.execute(Command.put("b", 4))
        dump["a"].append("scribble")
        assert store.history("a") == [1, 2, 99] and store.version("b") == 1
        assert twin.history("a") == [1, 2] and twin.history("b") == [3, 4]
        assert twin.version("a") == 2 and twin.read("b") == 4

    def test_history_and_adopt_copy_their_lists(self):
        store = MultiVersionStore()
        incoming = ["v1", "v2"]
        store.adopt("k", incoming)
        incoming.append("v3")
        store.history("k").append("scribble")
        assert store.history("k") == ["v1", "v2"] and store.version("k") == 2


class TestOperation:
    def test_latency(self):
        op = Operation("c", "GET", "k", None, 1, invoked_at=1.0, returned_at=1.5)
        assert op.latency == pytest.approx(0.5)
        assert op.is_read

    def test_time_travel_rejected(self):
        with pytest.raises(ValueError):
            Operation("c", "GET", "k", None, 1, invoked_at=2.0, returned_at=1.0)


class TestRecorder:
    def test_begin_complete_roundtrip(self):
        rec = HistoryRecorder()
        token = rec.begin("c1", "PUT", "k", "v", 1.0)
        assert rec.in_flight == 1
        rec.complete(token, "v", 2.0)
        assert rec.in_flight == 0
        assert len(rec) == 1
        assert rec.operations[0].latency == pytest.approx(1.0)

    def test_snapshot_includes_pending_writes_with_open_interval(self):
        rec = HistoryRecorder()
        rec.begin("c1", "PUT", "k", "v", 1.0)
        snap = rec.snapshot()
        assert len(snap) == 1
        assert snap[0].returned_at == math.inf

    def test_snapshot_omits_pending_reads(self):
        rec = HistoryRecorder()
        rec.begin("c1", "GET", "k", None, 1.0)
        assert rec.snapshot() == []

    def test_per_key_sorted_by_invocation(self):
        rec = HistoryRecorder()
        rec.record(Operation("c", "PUT", "k", 2, 2, invoked_at=5.0, returned_at=6.0))
        rec.record(Operation("c", "PUT", "k", 1, 1, invoked_at=1.0, returned_at=2.0))
        rec.record(Operation("c", "PUT", "j", 3, 3, invoked_at=0.0, returned_at=1.0))
        ops = sorted(rec.snapshot(), key=lambda o: o.invoked_at)
        assert [op.value for op in ops if op.key == "k"] == [1, 2]
        assert len([op for op in ops if op.key == "j"]) == 1

    def test_latencies(self):
        rec = HistoryRecorder()
        rec.record(Operation("c", "GET", "k", None, 1, invoked_at=0.0, returned_at=0.25))
        assert [op.latency for op in rec.snapshot()] == [0.25]


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_store_history_equals_writes_in_order(values):
    store = MultiVersionStore()
    for v in values:
        store.execute(Command.put("k", v))
    assert store.history("k") == values
    assert store.read("k") == values[-1]
