"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import SimulationEngine


def test_events_fire_in_time_order():
    engine = SimulationEngine()
    fired = []
    engine.schedule(5.0, lambda: fired.append("b"))
    engine.schedule(1.0, lambda: fired.append("a"))
    engine.schedule(9.0, lambda: fired.append("c"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    engine = SimulationEngine()
    fired = []
    for tag in ("first", "second", "third"):
        engine.schedule(2.0, lambda t=tag: fired.append(t))
    engine.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    engine = SimulationEngine()
    seen = []
    engine.schedule(3.5, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [3.5]
    assert engine.now == 3.5


def test_schedule_after_is_relative():
    engine = SimulationEngine()
    seen = []
    engine.schedule(2.0, lambda: engine.schedule_after(1.5, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [3.5]


def test_cannot_schedule_into_the_past():
    engine = SimulationEngine()
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(1.0, lambda: None)


def test_negative_delay_rejected():
    engine = SimulationEngine()
    with pytest.raises(SimulationError):
        engine.schedule_after(-0.1, lambda: None)


def test_schedule_is_fire_and_forget():
    engine = SimulationEngine()
    assert engine.schedule(1.0, lambda: None) is None
    assert engine.schedule_after(1.0, lambda: None) is None


def test_cancelled_events_do_not_fire():
    engine = SimulationEngine()
    fired = []
    timer = engine.timer(lambda: fired.append("cancelled"))
    timer.schedule_at(1.0)
    engine.schedule(2.0, lambda: fired.append("kept"))
    timer.cancel()
    engine.run()
    assert fired == ["kept"]


def test_cancel_from_within_earlier_event():
    engine = SimulationEngine()
    fired = []
    late = engine.timer(lambda: fired.append("late"))
    late.schedule_at(5.0)
    engine.schedule(1.0, late.cancel)
    engine.run()
    assert fired == []


def test_run_until_stops_before_later_events():
    engine = SimulationEngine()
    fired = []
    engine.schedule(1.0, lambda: fired.append(1))
    engine.schedule(10.0, lambda: fired.append(10))
    engine.run(until=5.0)
    assert fired == [1]
    assert engine.now == 5.0
    engine.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_even_with_no_events():
    engine = SimulationEngine()
    engine.run(until=42.0)
    assert engine.now == 42.0


def test_events_scheduled_during_run_are_processed():
    engine = SimulationEngine()
    fired = []

    def cascade():
        fired.append("first")
        engine.schedule_after(1.0, lambda: fired.append("second"))

    engine.schedule(1.0, cascade)
    engine.run()
    assert fired == ["first", "second"]


def test_peek_time_skips_cancelled():
    engine = SimulationEngine()
    timer = engine.timer(lambda: None)
    timer.schedule_at(1.0)
    engine.schedule(2.0, lambda: None)
    timer.cancel()
    assert engine.peek_time() == 2.0


def test_peek_time_reports_a_migrated_deadline():
    engine = SimulationEngine()
    timer = engine.timer(lambda: None)
    timer.schedule_at(1.0)
    timer.schedule_at(3.0)  # later: the 1.0 entry migrates on surfacing
    engine.schedule(2.0, lambda: None)
    assert engine.peek_time() == 2.0
    engine.run(until=2.0)
    assert engine.peek_time() == 3.0


def test_events_processed_counter():
    engine = SimulationEngine()
    for t in range(5):
        engine.schedule(float(t), lambda: None)
    engine.run()
    assert engine.events_processed == 5


def test_events_processed_excludes_cancelled():
    engine = SimulationEngine()
    engine.schedule(1.0, lambda: None)
    cancelled = engine.timer(lambda: None)
    cancelled.schedule_at(2.0)
    engine.schedule(3.0, lambda: None)
    cancelled.cancel()
    engine.run()
    assert engine.events_processed == 2


def test_events_processed_excludes_timer_cancelled_mid_run():
    """A timer cancelled by an earlier event never counts as processed."""
    engine = SimulationEngine()
    late = engine.timer(lambda: None)
    late.schedule_at(5.0)
    engine.schedule(1.0, late.cancel)
    engine.run()
    assert engine.events_processed == 1


def test_run_not_reentrant():
    engine = SimulationEngine()
    error = []

    def recurse():
        try:
            engine.run()
        except SimulationError as exc:
            error.append(str(exc))

    engine.schedule(1.0, recurse)
    engine.run()
    assert error and "re-entrant" in error[0]


# -- pending_events / queue_depth ------------------------------------------


def test_pending_events_counts_only_live_events():
    engine = SimulationEngine()
    keep = engine.timer(lambda: None)
    keep.schedule_at(1.0)
    dead = engine.timer(lambda: None)
    dead.schedule_at(2.0)
    dead.cancel()
    assert engine.pending_events == 1
    assert engine.queue_depth == 2
    keep.cancel()
    assert engine.pending_events == 0
    assert engine.queue_depth == 2


def test_pending_events_counts_armed_timer_once():
    engine = SimulationEngine()
    timer = engine.timer(lambda: None)
    timer.schedule_at(5.0)
    assert engine.pending_events == 1
    timer.schedule_at(9.0)  # re-arm later: same single heap entry
    assert engine.pending_events == 1
    timer.cancel()
    assert engine.pending_events == 0
    assert engine.queue_depth == 1  # dormant entry awaits reuse


def test_double_cancel_counts_once():
    engine = SimulationEngine()
    timer = engine.timer(lambda: None)
    timer.schedule_at(1.0)
    engine.schedule(2.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert engine.pending_events == 1


def test_abandoned_entry_counts_as_dead():
    engine = SimulationEngine()
    timer = engine.timer(lambda: None)
    timer.schedule_at(9.0)
    timer.schedule_at(1.0)  # earlier: the 9.0 entry is abandoned
    assert engine.pending_events == 1
    assert engine.queue_depth == 2
    engine.run()
    assert engine.pending_events == 0
    assert engine.queue_depth == 0
    assert engine.events_processed == 1


def test_abandoned_entry_never_carries_a_later_arm():
    """An abandoned entry is dropped when it surfaces, even once the
    timer is armed past it again: the live entry alone carries the
    deadline, so ties order by when that entry was pushed."""
    engine = SimulationEngine()
    fired = []
    timer = engine.timer(lambda: fired.append(("timer", engine.now)))
    timer.schedule_at(5.0)
    timer.schedule_at(1.0)  # abandons the 5.0 entry
    engine.schedule(3.0, lambda: None)  # keeps the 5.0 entry off the head
    engine.run(until=2.0)
    timer.schedule_at(8.0)  # fresh entry; the abandoned one is still queued
    timer.schedule_at(10.0)  # in place: the 8.0 entry migrates at t=8
    engine.schedule(
        6.0,
        lambda: engine.schedule(10.0, lambda: fired.append(("event", 10.0))),
    )
    engine.run()
    # The event at 10.0 was pushed at t=6, before the timer's entry
    # migrated at t=8, so it fires first.
    assert fired == [("timer", 1.0), ("event", 10.0), ("timer", 10.0)]
    assert engine.pending_events == 0


# -- arrival stream ---------------------------------------------------------


def test_arrival_fires_before_a_later_live_timer_behind_a_dead_head():
    """A dormant head only underestimates the next live time; once it is
    dropped, an arrival due before the live timer still fires first."""
    engine = SimulationEngine()
    fired = []
    dormant = engine.timer(lambda: fired.append("dormant"))
    dormant.schedule_at(1.0)
    dormant.cancel()
    timer = engine.timer(lambda: fired.append("timer"))
    timer.schedule_at(3.0)
    engine.run(arrivals=([2.0, 3.0], ["a", "b"], fired.append))
    # At t=3.0 the stream fires first, as preloaded events would.
    assert fired == ["a", "b", "timer"]
    assert engine.events_processed == 3


def test_arrival_stream_stops_at_the_horizon():
    engine = SimulationEngine()
    fired = []
    engine.run(until=1.5, arrivals=([1.0, 2.0], ["a", "b"], fired.append))
    assert fired == ["a"]
    assert engine.now == 1.5


# -- ReusableTimer ----------------------------------------------------------


def test_timer_fires_at_deadline():
    engine = SimulationEngine()
    fired = []
    timer = engine.timer(lambda: fired.append(engine.now))
    timer.schedule_at(3.0)
    assert timer.armed and timer.deadline == 3.0
    engine.run()
    assert fired == [3.0]
    assert not timer.armed


def test_timer_rearm_later_fires_once_at_new_deadline():
    engine = SimulationEngine()
    fired = []
    timer = engine.timer(lambda: fired.append(engine.now))
    timer.schedule_at(2.0)
    timer.schedule_at(7.0)  # moves forward without a new heap entry
    assert engine.queue_depth == 1
    engine.run()
    assert fired == [7.0]
    assert engine.events_processed == 1


def test_timer_rearm_earlier_fires_at_new_deadline():
    engine = SimulationEngine()
    fired = []
    timer = engine.timer(lambda: fired.append(engine.now))
    timer.schedule_at(9.0)
    timer.schedule_at(1.0)  # earlier: abandons the old entry
    engine.run()
    assert fired == [1.0]
    assert engine.events_processed == 1


def test_timer_cancel_then_rearm_reuses_the_entry():
    engine = SimulationEngine()
    fired = []
    timer = engine.timer(lambda: fired.append(engine.now))
    timer.schedule_at(2.0)
    timer.cancel()
    assert engine.pending_events == 0
    timer.schedule_at(4.0)  # resurrects the dormant in-heap entry
    assert engine.pending_events == 1
    assert engine.queue_depth == 1
    engine.run()
    assert fired == [4.0]


def test_timer_cancelled_never_fires():
    engine = SimulationEngine()
    fired = []
    timer = engine.timer(lambda: fired.append("timer"))
    timer.schedule_at(2.0)
    engine.schedule(1.0, timer.cancel)
    engine.run()
    assert fired == []
    assert engine.events_processed == 1


def test_timer_refire_after_firing():
    engine = SimulationEngine()
    fired = []

    def tick():
        fired.append(engine.now)
        if engine.now < 3.0:
            timer.schedule_after(1.0)

    timer = engine.timer(tick)
    timer.schedule_at(1.0)
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_rejects_past_deadline():
    engine = SimulationEngine()
    engine.schedule(5.0, lambda: None)
    engine.run()
    timer = engine.timer(lambda: None)
    with pytest.raises(SimulationError):
        timer.schedule_at(1.0)
    with pytest.raises(SimulationError):
        timer.schedule_after(-0.5)


def test_timer_ties_respect_insertion_order():
    engine = SimulationEngine()
    fired = []
    timer = engine.timer(lambda: fired.append("timer"))
    timer.schedule_at(2.0)
    engine.schedule(2.0, lambda: fired.append("event"))
    engine.run()
    assert fired == ["timer", "event"]
