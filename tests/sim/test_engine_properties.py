"""Property-based tests of the event engine against a reference model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine


@st.composite
def schedules(draw):
    """A batch of (time, tag) events plus a set of tags to cancel."""
    count = draw(st.integers(min_value=0, max_value=30))
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=count,
            max_size=count,
        )
    )
    cancel = draw(st.sets(st.integers(min_value=0, max_value=count), max_size=10))
    return times, cancel


@given(data=schedules())
@settings(max_examples=100, deadline=None)
def test_fires_exactly_uncancelled_events_in_stable_time_order(data):
    """Events tagged in ``cancel`` are cancelled before the run."""
    times, cancel = data
    engine = SimulationEngine()
    fired = []
    events = [
        engine.schedule(time, lambda t=tag: fired.append(t))
        for tag, time in enumerate(times)
    ]
    cancelled = {tag for tag in cancel if tag < len(events)}
    for tag in cancelled:
        engine.cancel(events[tag])
    assert engine.pending_events == len(times) - len(cancelled)
    engine.run()

    expected = [
        tag
        for tag, _time in sorted(enumerate(times), key=lambda kv: (kv[1], kv[0]))
        if tag not in cancelled
    ]
    assert fired == expected
    assert engine.events_processed == len(expected)


@given(data=schedules())
@settings(max_examples=50, deadline=None)
def test_clock_is_monotone_across_events(data):
    times, _cancel = data
    engine = SimulationEngine()
    observed = []
    for time in times:
        engine.schedule(time, lambda: observed.append(engine.now))
    engine.run()
    assert observed == sorted(observed)


@given(
    times=st.lists(st.floats(min_value=0.0, max_value=50.0), max_size=20),
    cutoff=st.floats(min_value=0.0, max_value=60.0),
)
@settings(max_examples=60, deadline=None)
def test_run_until_is_a_clean_split(times, cutoff):
    engine = SimulationEngine()
    fired = []
    for tag, time in enumerate(times):
        engine.schedule(time, lambda t=tag: fired.append(t))
    engine.run(until=cutoff)
    early = set(fired)
    assert all(times[tag] <= cutoff for tag in early)
    engine.run()
    assert len(fired) == len(times)
