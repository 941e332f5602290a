"""Tests for the discrete-event simulation loop."""

import pytest

from repro.simulation.event_loop import EventLoop, SimulationError


def test_events_run_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule_at(3.0, fired.append, "c")
    loop.schedule_at(1.0, fired.append, "a")
    loop.schedule_at(2.0, fired.append, "b")
    loop.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_run_in_scheduling_order():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, fired.append, "first")
    loop.schedule_at(1.0, fired.append, "second")
    loop.schedule_at(1.0, fired.append, "third")
    loop.run()
    assert fired == ["first", "second", "third"]


def test_priority_breaks_ties_before_sequence():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, fired.append, "low", priority=5)
    loop.schedule_at(1.0, fired.append, "high", priority=-5)
    loop.run()
    assert fired == ["high", "low"]


def test_now_advances_to_executed_event_time():
    loop = EventLoop()
    loop.schedule_at(2.5, lambda: None)
    loop.run()
    assert loop.now == 2.5


def test_run_until_stops_before_later_events():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, fired.append, "early")
    loop.schedule_at(5.0, fired.append, "late")
    executed = loop.run(until=2.0)
    assert executed == 1
    assert fired == ["early"]
    assert loop.now == 2.0
    loop.run()
    assert fired == ["early", "late"]


def test_run_until_advances_time_even_with_empty_queue():
    loop = EventLoop()
    loop.run(until=7.0)
    assert loop.now == 7.0


def test_schedule_after_uses_relative_delay():
    loop = EventLoop(start_time=10.0)
    times = []
    loop.schedule_after(1.5, lambda: times.append(loop.now))
    loop.run()
    assert times == [11.5]


def test_scheduling_in_the_past_raises():
    loop = EventLoop(start_time=5.0)
    with pytest.raises(SimulationError):
        loop.schedule_at(4.0, lambda: None)


def test_negative_delay_raises():
    loop = EventLoop()
    with pytest.raises(SimulationError):
        loop.schedule_after(-0.1, lambda: None)


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    fired = []
    event = loop.schedule_at(1.0, fired.append, "x")
    loop.cancel(event)
    loop.run()
    assert fired == []
    assert loop.stats()["cancelled"] == 1


def test_events_can_schedule_more_events():
    loop = EventLoop()
    fired = []

    def first():
        fired.append("first")
        loop.schedule_after(1.0, second)

    def second():
        fired.append("second")

    loop.schedule_at(1.0, first)
    loop.run()
    assert fired == ["first", "second"]
    assert loop.now == 2.0


def test_stop_halts_run():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, lambda: (fired.append("a"), loop.stop()))
    loop.schedule_at(2.0, fired.append, "b")
    loop.run()
    assert fired == ["a"]


def test_max_events_limits_execution():
    loop = EventLoop()
    fired = []
    for k in range(5):
        loop.schedule_at(float(k + 1), fired.append, k)
    executed = loop.run(max_events=3)
    assert executed == 3
    assert fired == [0, 1, 2]


def test_step_returns_none_when_idle():
    loop = EventLoop()
    assert loop.step() is None


def test_next_event_time_skips_cancelled():
    loop = EventLoop()
    event = loop.schedule_at(1.0, lambda: None)
    loop.schedule_at(2.0, lambda: None)
    loop.cancel(event)
    assert loop.next_event_time() == 2.0


def test_callback_args_and_kwargs_are_passed():
    loop = EventLoop()
    seen = {}
    loop.schedule_at(1.0, lambda a, b=None: seen.update({"a": a, "b": b}), 1, b=2)
    loop.run()
    assert seen == {"a": 1, "b": 2}


def test_stats_track_scheduled_and_executed():
    loop = EventLoop()
    loop.schedule_at(1.0, lambda: None)
    loop.schedule_at(2.0, lambda: None)
    loop.run()
    stats = loop.stats()
    assert stats["scheduled"] == 2
    assert stats["executed"] == 2


def test_heap_compaction_bounds_cancelled_event_pileup():
    # the online sequencer's cancel-and-reschedule-per-arrival pattern: a
    # 10k-arrival burst must not grow the heap with dead events
    loop = EventLoop()
    live = None
    for k in range(10_000):
        if live is not None:
            loop.cancel(live)
        live = loop.schedule_at(100.0, lambda: None)
        # compaction keeps the queue within ~2x the live event count (+1
        # for the not-yet-reaped newest cancellation)
        assert loop.pending_events <= max(EventLoop.COMPACTION_MIN_QUEUE, 3)
    stats = loop.stats()
    assert stats["compactions"] > 0
    assert stats["cancelled"] == 9_999
    executed = loop.run()
    assert executed == 1  # only the last scheduled check survives


def test_heap_compaction_preserves_execution_order():
    loop = EventLoop()
    fired = []
    keep = [loop.schedule_at(float(k), fired.append, k) for k in range(200)]
    doomed = [loop.schedule_at(float(k % 200) + 0.5, fired.append, -k) for k in range(300)]
    for event in doomed:
        loop.cancel(event)
    assert loop.stats()["compactions"] > 0
    loop.run()
    assert fired == list(range(200))


def test_small_queues_are_never_compacted():
    loop = EventLoop()
    event = loop.schedule_at(1.0, lambda: None)
    loop.schedule_at(2.0, lambda: None)
    loop.cancel(event)
    assert loop.stats()["compactions"] == 0
    assert loop.pending_events == 2  # lazy removal still applies below the floor


def test_equal_time_events_order_by_priority_then_by_scheduling_order():
    loop = EventLoop()
    fired = []
    for label, priority in [("b1", 1), ("a1", 0), ("b2", 1), ("z", -1), ("a2", 0), ("b3", 1)]:
        loop.schedule_at(1.0, fired.append, label, priority=priority)
    loop.schedule_at(0.5, fired.append, "early", priority=9)
    loop.run()
    assert fired == ["early", "z", "a1", "a2", "b1", "b2", "b3"]


def test_heap_entries_are_keyed_tuples_and_events_never_compare():
    loop = EventLoop()
    first = loop.schedule_at(2.0, lambda: None, priority=3, label="x")
    second = loop.schedule_at(1.0, lambda: None)
    assert (first.time, first.priority, first.seq, first.label) == (2.0, 3, 0, "x")
    assert sorted(loop._queue) == [(1.0, 0, 1, second), (2.0, 3, 0, first)]
    with pytest.raises(TypeError):
        first < second  # the heap orders its keys; the handle has no ordering


def test_peek_reaps_cancelled_heads_and_returns_the_event():
    loop = EventLoop()
    doomed = [loop.schedule_at(float(k), lambda: None) for k in range(3)]
    survivor = loop.schedule_at(5.0, lambda: None, label="survivor")
    for event in doomed:
        loop.cancel(event)
    assert loop.pending_events == 4
    assert loop._peek() is survivor
    assert loop.next_event_time() == 5.0
    assert loop.pending_events == 1  # the three cancelled heads were popped
    assert loop.step() is survivor
    assert loop._peek() is None and loop.next_event_time() is None


def test_compaction_keeps_the_live_entries_in_order():
    loop = EventLoop()
    fired = []
    live = [loop.schedule_at(1.0, fired.append, k, priority=k % 3) for k in range(40)]
    doomed = [loop.schedule_at(0.5, fired.append, -k) for k in range(60)]
    for event in doomed:
        loop.cancel(event)
    assert loop.stats()["compactions"] == 1
    assert loop.pending_events < 100
    queued = [entry[3] for entry in loop._queue if not entry[3].cancelled]
    assert sorted(queued, key=lambda event: event.seq) == live
    loop.run()
    expected = sorted(range(40), key=lambda k: (k % 3, k))
    assert fired == expected
