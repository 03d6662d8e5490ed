"""Timer churn on the engine's cancellable events.

The tape unmount timer cancels and re-arms once per drive visit, and a
crash cancels a disk's spin-up. A timer is a scheduled event: arming it
again is a cancel of its pending event followed by a new
:meth:`~repro.sim.engine.SimulationEngine.schedule`. This test drives
that pattern hard and checks that timers behave exactly like a plain
dict of deadlines: each armed timer fires once at its latest deadline,
and a cancelled one never fires.
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
    events = {}  # timer index -> its latest event
    model = {}  # timer index -> deadline
    expected = []
    for index, op, delay in script:
        if op == OP_ARM:
            deadline = engine.now + (delay if timeout is None else timeout)
            if index in events:
                engine.cancel(events[index])
            events[index] = engine.schedule(
                deadline, lambda i=index: fired.append((engine.now, i))
            )
            model[index] = deadline
        elif op == OP_CANCEL:
            if index in events:
                engine.cancel(events[index])
            model.pop(index, None)
        else:
            until = engine.now + delay
            due = [(t, i) for i, t in model.items() if t <= until]
            expected.extend(due)
            for _, i in due:
                del model[i]
            engine.run(until=until)
        assert engine.pending_events == len(model)
    expected.extend((t, i) for i, t in model.items())
    engine.run()
    # Equal deadlines may fire in either timer order; times never go back.
    assert [t for t, _ in fired] == sorted(t for t, _ in fired)
    assert sorted(fired) == sorted(expected)
    assert engine.events_processed == len(expected)
    assert engine.pending_events == 0
    assert engine.queue_depth == 0
