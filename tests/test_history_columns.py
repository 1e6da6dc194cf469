"""The operation history as columns: what its views show and what they
share with a plain list of operations."""

import math
from types import SimpleNamespace

import pytest

from repro.checkers.linearizability import check_history
from repro.paxi.history import HistoryRecorder, HistoryView, Operation
from repro.paxi.kvstore import CasFailed
from repro.shard.cluster import _MergedHistory

OPS = [
    Operation("c1", "PUT", "k", "a", "a", 0.0, 1.0),
    Operation("c2", "GET", "k", None, "a", 1.5, 2.0),
    Operation("c1", "GET", "j", None, None, 2.0, 2.5),
    Operation("c3", "PUT", "j", "b", "b", 2.0, 3.0),
]


def _recorder(ops=OPS) -> HistoryRecorder:
    recorder = HistoryRecorder()
    for op in ops:
        recorder.record(op)
    return recorder


class TestView:
    def test_len_indexing_iteration_and_equality(self):
        view = _recorder().operations
        assert isinstance(view, HistoryView)
        assert len(view) == 4
        assert view[0] == OPS[0] and view[-1] == OPS[-1] and view[-4] == OPS[0]
        assert list(view) == OPS
        assert view == OPS and OPS == view and view == tuple(OPS)
        assert view != OPS[:-1] and view != [*OPS[:-1], OPS[0]]
        with pytest.raises(IndexError):
            view[4]
        with pytest.raises(IndexError):
            view[-5]

    def test_view_keeps_the_rows_it_was_taken_with(self):
        recorder = _recorder(OPS[:2])
        before = recorder.snapshot()
        recorder.record(OPS[2])
        assert before == OPS[:2]
        assert recorder.operations == OPS[:3]

    def test_rows_outside_the_two_shapes_round_trip(self):
        """A failed CAS, a PUT answered with something else and a GET that
        carries a value keep their second datum on the side."""
        odd = [
            Operation("c", "CAS", "k", "new", CasFailed("old"), 0.0, 1.0),
            Operation("c", "PUT", "k", "v", None, 1.0, 2.0),
            Operation("c", "GET", "k", "hint", "v", 2.0, 3.0),
            Operation("c", "PUT", "k", "w", "w", 3.0, 4.0),
        ]
        recorder = _recorder(odd)
        assert recorder.operations == odd
        assert len(recorder._table.extra) == 3

    def test_time_travel_rejected(self):
        recorder = HistoryRecorder()
        token = recorder.begin("c", "PUT", "k", "v", 2.0)
        with pytest.raises(ValueError):
            recorder.complete(token, "v", 1.0)
        assert len(recorder) == 0


class TestSnapshot:
    def test_in_flight_put_has_an_open_interval_and_in_flight_get_is_left_out(self):
        recorder = _recorder()
        recorder.begin("c4", "PUT", "k", "z", 4.0)
        recorder.begin("c5", "GET", "k", None, 4.5)
        snapshot = recorder.snapshot()
        assert len(snapshot) == len(OPS) + 1
        assert snapshot[-1] == Operation("c4", "PUT", "k", "z", "z", 4.0, math.inf)
        assert [op for op in snapshot if op.is_read] == [op for op in OPS if op.is_read]
        assert recorder.operations == OPS  # completed rows only

    def test_discard_leaves_no_row(self):
        recorder = _recorder()
        token = recorder.begin("c4", "PUT", "k", "z", 4.0)
        recorder.discard(token)
        assert recorder.in_flight == 0
        assert recorder.snapshot() == OPS and len(recorder) == len(OPS)

    def test_merged_view_is_the_union_of_its_groups(self):
        first, second = _recorder(OPS[:2]), _recorder(OPS[2:])
        second.begin("c4", "PUT", "j", "z", 4.0)
        cluster = SimpleNamespace(groups=[SimpleNamespace(history=r) for r in (first, second)])
        merged = _MergedHistory(cluster)
        assert merged.operations == OPS
        assert merged.snapshot() == [*OPS, Operation("c4", "PUT", "j", "z", "z", 4.0, math.inf)]
        assert len(merged) == 4 and merged.in_flight == 1


def test_checker_reads_views_and_lists_alike():
    """Stale, future and dirty reads, across a view made of several parts."""
    ops = [
        Operation("c1", "PUT", "k", "a", "a", 0.0, 1.0),
        Operation("c1", "PUT", "k", "b", "b", 2.0, 3.0),
        Operation("c2", "GET", "k", None, "a", 4.0, 5.0),  # stale
        Operation("c2", "GET", "j", None, "x", 0.0, 1.0),  # future
        Operation("c3", "GET", "j", None, "ghost", 0.0, 1.0),  # dirty
        Operation("c1", "PUT", "j", "x", "x", 2.0, 3.0),
    ]
    view = HistoryView.concat([_recorder(ops[:3]).operations, _recorder(ops[3:]).operations])
    assert len(view.parts) == 2
    result = check_history(view)
    assert result == check_history(ops)
    assert [(a.read, a.kind) for a in result.anomalies] == [
        (ops[2], "stale-read"),
        (ops[3], "future-read"),
        (ops[4], "dirty-read"),
    ]
    assert (result.checked_operations, result.checked_keys) == (6, 2)
