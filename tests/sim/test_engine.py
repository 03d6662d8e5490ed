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


def test_schedule_returns_the_event():
    """The event is its heap entry ``[time, sequence, callback]``."""
    engine = SimulationEngine()

    def callback():
        pass

    event = engine.schedule(1.0, callback)
    assert event[0] == 1.0 and event[2] is callback
    assert engine.schedule_after(2.0, callback)[0] == 2.0


def test_cancelled_events_do_not_fire():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule(1.0, lambda: fired.append("cancelled"))
    engine.schedule(2.0, lambda: fired.append("kept"))
    engine.cancel(event)
    engine.run()
    assert fired == ["kept"]


def test_cancel_from_within_earlier_event():
    engine = SimulationEngine()
    fired = []
    late = engine.schedule(5.0, lambda: fired.append("late"))
    engine.schedule(1.0, lambda: engine.cancel(late))
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
    event = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.cancel(event)
    assert engine.peek_time() == 2.0


def test_events_processed_counter():
    engine = SimulationEngine()
    for t in range(5):
        engine.schedule(float(t), lambda: None)
    engine.run()
    assert engine.events_processed == 5


def test_events_processed_excludes_cancelled():
    engine = SimulationEngine()
    engine.schedule(1.0, lambda: None)
    cancelled = engine.schedule(2.0, lambda: None)
    engine.schedule(3.0, lambda: None)
    engine.cancel(cancelled)
    engine.run()
    assert engine.events_processed == 2


def test_events_processed_excludes_timer_cancelled_mid_run():
    """An event cancelled by an earlier event never counts as processed."""
    engine = SimulationEngine()
    late = engine.schedule(5.0, lambda: None)
    engine.schedule(1.0, lambda: engine.cancel(late))
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
    keep = engine.schedule(1.0, lambda: None)
    dead = engine.schedule(2.0, lambda: None)
    engine.cancel(dead)
    assert engine.pending_events == 1
    assert engine.queue_depth == 2
    engine.cancel(keep)
    assert engine.pending_events == 0
    assert engine.queue_depth == 2


def test_pending_events_counts_armed_timer_once():
    """Re-arming is a cancel and a new event: the heap holds both
    entries, and only the new one counts."""
    engine = SimulationEngine()
    event = engine.schedule(5.0, lambda: None)
    assert engine.pending_events == 1
    engine.cancel(event)
    event = engine.schedule(9.0, lambda: None)
    assert engine.pending_events == 1
    assert engine.queue_depth == 2
    engine.cancel(event)
    assert engine.pending_events == 0


def test_double_cancel_counts_once():
    engine = SimulationEngine()
    event = engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.cancel(event)
    engine.cancel(event)
    assert engine.pending_events == 1


def test_abandoned_entry_counts_as_dead():
    """A timer re-armed earlier leaves its cancelled entry in the heap,
    dead, until the run drops it."""
    engine = SimulationEngine()
    engine.cancel(engine.schedule(9.0, lambda: None))
    engine.schedule(1.0, lambda: None)
    assert engine.pending_events == 1
    assert engine.queue_depth == 2
    engine.run()
    assert engine.pending_events == 0
    assert engine.queue_depth == 0
    assert engine.events_processed == 1


def test_cancel_after_firing_does_nothing():
    engine = SimulationEngine()
    event = engine.schedule(1.0, lambda: None)
    engine.run()
    engine.schedule(2.0, lambda: None)
    engine.cancel(event)
    assert engine.pending_events == 1
    engine.run()
    assert engine.events_processed == 2


def test_an_event_cannot_cancel_itself_once_fired():
    engine = SimulationEngine()
    fired = []

    def fire():
        fired.append(engine.now)
        engine.cancel(event)

    event = engine.schedule(1.0, fire)
    engine.run()
    assert fired == [1.0]
    assert engine.pending_events == 0 and engine.queue_depth == 0


# -- tie rule ---------------------------------------------------------------


def test_ties_fire_in_scheduling_order_and_a_rescheduled_event_goes_last():
    """At one instant events fire in the order they were scheduled, with
    no exception: an event cancelled and scheduled again takes the place
    of its new scheduling, behind events scheduled in between."""
    engine = SimulationEngine()
    fired = []
    first = engine.schedule(3.0, lambda: fired.append("first"))
    engine.schedule(3.0, lambda: fired.append("second"))

    def reschedule():
        engine.cancel(first)
        engine.schedule(3.0, lambda: fired.append("first, again"))
        engine.schedule(3.0, lambda: fired.append("third"))

    engine.schedule(1.0, reschedule)
    engine.run()
    assert fired == ["second", "first, again", "third"]


# -- arrival stream ---------------------------------------------------------


def test_arrival_fires_before_a_later_live_timer_behind_a_dead_head():
    """A cancelled head only underestimates the next live time; once it
    is dropped, an arrival due before the live event still fires first."""
    engine = SimulationEngine()
    fired = []
    engine.cancel(engine.schedule(1.0, lambda: fired.append("dormant")))
    engine.schedule(3.0, lambda: fired.append("timer"))
    engine.run(arrivals=([2.0, 3.0], ["a", "b"], fired.append))
    # At t=3.0 the heap event due there fires first.
    assert fired == ["a", "timer", "b"]
    assert engine.events_processed == 3


def test_arrival_stream_stops_at_the_horizon():
    engine = SimulationEngine()
    fired = []
    engine.run(until=1.5, arrivals=([1.0, 2.0], ["a", "b"], fired.append))
    assert fired == ["a"]
    assert engine.now == 1.5


# -- cancellable events as timers -------------------------------------------


def test_timer_fires_at_deadline():
    engine = SimulationEngine()
    fired = []
    engine.schedule(3.0, lambda: fired.append(engine.now))
    assert engine.pending_events == 1
    engine.run()
    assert fired == [3.0]
    assert engine.pending_events == 0


@pytest.mark.parametrize(
    "first, second", [(2.0, 7.0), (9.0, 1.0)], ids=["later", "earlier"]
)
def test_timer_rearm_fires_once_at_new_deadline(first, second):
    engine = SimulationEngine()
    fired = []
    event = engine.schedule(first, lambda: fired.append(engine.now))
    engine.cancel(event)
    engine.schedule(second, lambda: fired.append(engine.now))
    engine.run()
    assert fired == [second]
    assert engine.events_processed == 1


def test_timer_cancelled_never_fires():
    engine = SimulationEngine()
    fired = []
    event = engine.schedule(2.0, lambda: fired.append("timer"))
    engine.schedule(1.0, lambda: engine.cancel(event))
    engine.run()
    assert fired == []
    assert engine.events_processed == 1


def test_timer_refire_after_firing():
    engine = SimulationEngine()
    fired = []

    def tick():
        fired.append(engine.now)
        if engine.now < 3.0:
            engine.schedule_after(1.0, tick)

    engine.schedule(1.0, tick)
    engine.run()
    assert fired == [1.0, 2.0, 3.0]


def test_timer_rejects_past_deadline():
    engine = SimulationEngine()
    engine.schedule(5.0, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule_after(-0.5, lambda: None)


def test_timer_ties_respect_insertion_order():
    engine = SimulationEngine()
    fired = []
    engine.schedule(2.0, lambda: fired.append("timer"))
    engine.schedule(2.0, lambda: fired.append("event"))
    engine.run()
    assert fired == ["timer", "event"]
