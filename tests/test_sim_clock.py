"""Unit tests for the virtual clock / event loop."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.clock import EventLoop


def test_starts_at_zero():
    assert EventLoop().now == 0.0


def test_call_at_fires_in_time_order():
    loop = EventLoop()
    fired = []
    loop.call_at(2.0, fired.append, "b")
    loop.call_at(1.0, fired.append, "a")
    loop.call_at(3.0, fired.append, "c")
    loop.run()
    assert fired == ["a", "b", "c"]


def test_same_time_fires_in_scheduling_order():
    loop = EventLoop()
    fired = []
    for tag in range(10):
        loop.call_at(1.0, fired.append, tag)
    loop.run()
    assert fired == list(range(10))


def test_call_after_is_relative():
    loop = EventLoop()
    seen = []
    loop.call_after(1.0, lambda: seen.append(loop.now))
    loop.run()
    assert seen == [1.0]


def test_nested_scheduling():
    loop = EventLoop()
    seen = []

    def outer():
        seen.append(("outer", loop.now))
        loop.call_after(0.5, inner)

    def inner():
        seen.append(("inner", loop.now))

    loop.call_at(1.0, outer)
    loop.run()
    assert seen == [("outer", 1.0), ("inner", 1.5)]


def test_scheduling_in_past_raises():
    loop = EventLoop()
    loop.call_at(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.call_at(0.5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        EventLoop().call_after(-0.1, lambda: None)


def test_run_until_stops_at_deadline():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, fired.append, 1)
    loop.call_at(5.0, fired.append, 5)
    loop.run_until(2.0)
    assert fired == [1]
    assert loop.now == 2.0
    loop.run_until(6.0)
    assert fired == [1, 5]


def test_run_until_advances_clock_even_with_empty_heap():
    loop = EventLoop()
    loop.run_until(7.5)
    assert loop.now == 7.5


def test_cancel_prevents_firing():
    loop = EventLoop()
    fired = []
    handle = loop.call_at(1.0, fired.append, "x")
    handle.cancel()
    loop.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_twice_is_noop():
    loop = EventLoop()
    handle = loop.call_at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    loop.run()


def test_stop_interrupts_run():
    loop = EventLoop()
    fired = []
    loop.call_at(1.0, fired.append, 1)
    loop.call_at(2.0, loop.stop)
    loop.call_at(3.0, fired.append, 3)
    loop.run()
    assert fired == [1]
    loop.run()
    assert fired == [1, 3]


def test_events_fired_counter():
    loop = EventLoop()
    for i in range(5):
        loop.call_at(float(i), lambda: None)
    loop.run()
    assert loop.events_fired == 5


def test_max_events_bound():
    loop = EventLoop()
    fired = []
    for i in range(10):
        loop.call_at(float(i), fired.append, i)
    loop.run(max_events=3)
    assert fired == [0, 1, 2]


def test_handle_reports_time():
    loop = EventLoop()
    handle = loop.call_at(4.2, lambda: None)
    assert handle.time == 4.2


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(times):
    loop = EventLoop()
    seen = []
    for t in times:
        loop.call_at(t, lambda: seen.append(loop.now))
    loop.run()
    assert seen == sorted(seen)
    assert len(seen) == len(times)


class TestCancelledEventCompaction:
    """The heap must not leak cancelled entries (clients cancel a retry
    timer on nearly every reply, so an uncompacted heap grows with
    *issued* requests instead of *outstanding* ones)."""

    def test_live_pending_excludes_cancelled(self):
        loop = EventLoop()
        handles = [loop.call_at(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles[:4]:
            handle.cancel()
        assert loop.pending() == 10
        assert loop.live_pending() == 6

    def test_mass_cancellation_compacts_the_heap(self):
        from repro.sim.clock import _COMPACT_MIN

        loop = EventLoop()
        keep = loop.call_at(1e9, lambda: None)
        handles = [loop.call_at(float(i + 1), lambda: None) for i in range(4 * _COMPACT_MIN)]
        for handle in handles:
            handle.cancel()
        assert loop.compactions >= 1
        # The heap physically shrank: below the compaction threshold, far
        # from the 4 * _COMPACT_MIN entries cancelled.
        assert loop.live_pending() == 1
        assert loop.pending() <= _COMPACT_MIN
        assert not keep.cancelled

    def test_heap_stays_bounded_under_schedule_cancel_churn(self):
        from repro.sim.clock import _COMPACT_MIN, _COMPACT_RATIO

        loop = EventLoop()
        for i in range(50_000):
            loop.call_at(float(i + 1), lambda: None).cancel()
        # Amortized bound: at most ratio * live + compaction threshold
        # cancelled entries linger, never all 50k.
        assert loop.pending() <= _COMPACT_MIN + _COMPACT_RATIO * loop.live_pending() + 1
        assert loop.compactions >= 1

    def test_compaction_preserves_dispatch_order(self):
        from repro.sim.clock import _COMPACT_MIN

        loop = EventLoop()
        fired = []
        for i in range(20):
            loop.call_at(float(i), fired.append, i)
        # Force a compaction mid-stream with disposable far-future events.
        for handle in [loop.call_at(1e6, lambda: None) for _ in range(4 * _COMPACT_MIN)]:
            handle.cancel()
        assert loop.compactions >= 1
        loop.run()
        assert fired == list(range(20))

    def test_cancel_after_fire_is_noop(self):
        loop = EventLoop()
        fired = []
        handle = loop.call_at(1.0, fired.append, "x")
        loop.run()
        handle.cancel()  # late cancel of an already-fired event
        assert fired == ["x"]
        assert not handle.cancelled
        # The stray cancel must not skew the cancelled-entry accounting.
        assert loop.live_pending() == loop.pending() == 0

    def test_popping_cancelled_entries_updates_live_count(self):
        loop = EventLoop()
        for i in range(6):
            handle = loop.call_at(float(i + 1), lambda: None)
            if i % 2:
                handle.cancel()
        loop.run()
        assert loop.pending() == 0
        assert loop.live_pending() == 0
        assert loop.events_fired == 3


class TestEventHandle:
    """The handle ``call_at`` returns is the heap entry itself; its
    ``cancel()`` / ``cancelled`` / ``time`` behave as a separate handle
    object's did, whatever has happened to the entry since."""

    def test_scheduling_returns_the_heap_entry(self):
        from repro.sim.clock import EventHandle

        loop = EventLoop()
        handle = loop.call_at(4.2, lambda: None)
        assert type(handle) is EventHandle
        assert loop._heap[0] is handle
        assert loop.call_after(1.0, lambda: None).time == 1.0

    def test_handles_are_identity_tokens(self):
        loop = EventLoop()
        first = loop.call_at(1.0, lambda: None)
        second = loop.call_at(1.0, lambda: None)
        other_loop = EventLoop().call_at(1.0, lambda: None)
        assert first != second and first != other_loop
        assert hash(first) == object.__hash__(first)
        timers = {first: "a", second: "b"}
        loop.run()  # firing rewrites the entry; the key must not move
        assert timers[first] == "a" and len({first, second, other_loop}) == 3

    def test_state_before_and_after_firing(self):
        loop = EventLoop()
        fired = []
        handle = loop.call_at(4.2, fired.append, "x")
        assert (handle.time, handle.cancelled) == (4.2, False)
        loop.run()
        assert fired == ["x"]
        assert (handle.time, handle.cancelled) == (4.2, False)
        handle.cancel()
        assert not handle.cancelled  # it ran; there was nothing to cancel

    def test_double_cancel_counts_once(self):
        loop = EventLoop()
        handle = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        assert (loop.pending(), loop.live_pending()) == (2, 1)
        loop.run()
        assert loop.events_fired == 1
        assert (loop.pending(), loop.live_pending()) == (0, 0)

    def test_cancel_across_a_compaction(self):
        from repro.sim.clock import _COMPACT_MIN

        loop = EventLoop()
        fired = []
        survivor = loop.call_at(5.0, fired.append, "survivor")
        doomed = loop.call_at(6.0, fired.append, "doomed")
        dropped = [loop.call_at(1e6, fired.append, "dropped") for _ in range(4 * _COMPACT_MIN)]
        for handle in dropped:
            handle.cancel()
        assert loop.compactions >= 1
        assert loop._heap[0] is survivor  # the same objects, re-heapified
        # An entry the compaction threw out: still cancelled, still
        # readable, and cancelling it again touches no accounting.
        dropped[0].cancel()
        assert dropped[0].cancelled and dropped[0].time == 1e6
        # An entry that survived it: cancellable as before.
        doomed.cancel()
        assert loop.live_pending() == 1
        loop.run()
        assert fired == ["survivor"]
        assert (loop.pending(), loop.live_pending()) == (0, 0)


both_drains = pytest.mark.parametrize(
    "drain", [lambda loop: loop.run_until(2.0), lambda loop: loop.run()], ids=["run_until", "run"]
)


class TestGcPacing:
    """A drain raises the collector's generation-0 threshold and always
    hands the caller's thresholds back."""

    @pytest.fixture(autouse=True)
    def _callers_thresholds(self):
        before = gc.get_threshold()
        gc.set_threshold(700, 10, 10)
        yield
        gc.set_threshold(*before)

    @both_drains
    def test_raised_inside_restored_after(self, drain):
        from repro.sim.clock import _GC_GEN0_THRESHOLD

        loop = EventLoop()
        seen = []
        loop.call_at(1.0, lambda: seen.append(gc.get_threshold()))
        drain(loop)
        assert seen == [(_GC_GEN0_THRESHOLD, 10, 10)]
        assert gc.get_threshold() == (700, 10, 10)

    @both_drains
    def test_restored_when_a_handler_raises(self, drain):
        loop = EventLoop()
        loop.call_at(1.0, lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            drain(loop)
        assert gc.get_threshold() == (700, 10, 10)

    def test_nested_run_until_leaves_the_outer_drain_paced(self):
        from repro.sim.clock import _GC_GEN0_THRESHOLD

        loop = EventLoop()
        seen = []

        def nested():
            loop.run_until(1.5)  # a handler that drives the loop itself
            seen.append(gc.get_threshold())

        loop.call_at(1.0, nested)
        loop.call_at(1.2, lambda: seen.append(gc.get_threshold()))
        loop.run_until(2.0)
        assert seen == [(_GC_GEN0_THRESHOLD, 10, 10)] * 2
        assert gc.get_threshold() == (700, 10, 10)

    def test_a_disabled_or_laxer_collector_is_left_alone(self):
        loop = EventLoop()
        seen = []
        for caller in ((0, 10, 10), (1_000_000, 10, 10)):
            gc.set_threshold(*caller)
            loop.call_after(1.0, lambda: seen.append(gc.get_threshold()))
            loop.run()
            assert gc.get_threshold() == caller
        assert seen == [(0, 10, 10), (1_000_000, 10, 10)]
