"""Timer-churn properties of :class:`~repro.sim.engine.ReusableTimer`.

The tape unmount timer cancels and re-arms once per drive visit. These
tests drive that pattern hard and check the two guarantees it relies on:

* timers behave exactly like a plain dict of deadlines — each armed
  timer fires once at its latest deadline, a cancelled one never fires;
* the heap holds at most one entry per timer when every re-arm moves the
  deadline later (the unmount pattern), so cancel churn cannot grow it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationEngine

#: Ops a churn script may apply to one timer.
OP_ARM, OP_CANCEL, OP_ADVANCE = 0, 1, 2
NUM_TIMERS = 8


@st.composite
def churn_scripts(draw):
    """A fixed re-arm timeout (or ``None`` for free delays) and a list of
    (timer index, op, delay-seconds) churn steps."""
    timeout = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)))
    script = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=NUM_TIMERS - 1),
                st.integers(min_value=OP_ARM, max_value=OP_ADVANCE),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=120,
        )
    )
    return timeout, script


@given(data=churn_scripts())
@settings(max_examples=200, deadline=None)
def test_timers_match_a_dict_of_deadlines(data):
    timeout, script = data
    engine = SimulationEngine()
    fired = []
    timers = [
        engine.timer(lambda i=i: fired.append((engine.now, i)))
        for i in range(NUM_TIMERS)
    ]
    model = {}  # timer index -> deadline
    expected = []
    latest = {}  # timer index -> latest deadline ever armed
    only_later = True
    for index, op, delay in script:
        if op == OP_ARM:
            deadline = engine.now + (delay if timeout is None else timeout)
            timers[index].schedule_at(deadline)
            model[index] = deadline
            if deadline < latest.get(index, deadline):
                only_later = False
            latest[index] = max(latest.get(index, deadline), deadline)
        elif op == OP_CANCEL:
            timers[index].cancel()
            model.pop(index, None)
        else:
            until = engine.now + delay
            due = [(t, i) for i, t in model.items() if t <= until]
            expected.extend(due)
            for _, i in due:
                del model[i]
            engine.run(until=until)
        assert engine.pending_events == len(model)
        for i, timer in enumerate(timers):
            assert timer.deadline == model.get(i)
        if only_later:
            assert engine.queue_depth <= NUM_TIMERS
    expected.extend((t, i) for i, t in model.items())
    engine.run()
    # Equal deadlines may fire in either timer order; times never go back.
    assert [t for t, _ in fired] == sorted(t for t, _ in fired)
    assert sorted(fired) == sorted(expected)
    assert engine.events_processed == len(expected)
    assert engine.pending_events == 0
    assert engine.queue_depth == 0


def test_ten_thousand_timer_churn_is_bounded_and_deterministic():
    """10k 2CPM-style timers over repeated arm / cancel-half /
    re-arm-later rounds: one heap entry per timer at most, every armed
    timer fires once, and two runs fire identically."""

    def churn():
        engine = SimulationEngine()
        fired = []
        timers = [
            engine.timer(lambda i=i: fired.append((engine.now, i)))
            for i in range(10_000)
        ]
        max_depth = 0
        for _ in range(4):
            base_s = engine.now
            for offset, timer in enumerate(timers):
                timer.schedule_at(base_s + 1.0 + offset * 1e-4)
            for timer in timers[::2]:
                timer.cancel()
            max_depth = max(max_depth, engine.queue_depth)
            for offset, timer in enumerate(timers):
                if offset % 2 == 0:
                    # Later than the dormant entry: reuses it in place.
                    timer.schedule_at(base_s + 1.5 + offset * 1e-4)
            max_depth = max(max_depth, engine.queue_depth)
            engine.run(until=base_s + 3.0)
        engine.run()
        assert engine.pending_events == 0
        return fired, max_depth

    fired, depth = churn()
    assert depth <= 10_000
    assert len(fired) == 4 * 10_000
    assert [t for t, _ in fired] == sorted(t for t, _ in fired)
    assert churn() == (fired, depth)
