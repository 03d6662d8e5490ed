"""Profiler behaviour: zero-cost when off, accurate when on."""

import pytest

from repro.perf.profiler import (
    Profiler,
    activate,
    deactivate,
    hook_phase,
)


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    """Every test starts and ends with no active profiler."""
    deactivate()
    yield
    deactivate()


def test_hook_phase_without_active_profiler_is_the_shared_nullcontext():
    """The zero-cost-off guarantee: with no active profiler every
    hook_phase() returns one shared singleton — no per-call allocation."""
    first = hook_phase("simulate")
    assert first is hook_phase("binding")
    with first:
        pass


def test_hook_phase_routes_to_the_active_profiler():
    profiler = Profiler()
    activate(profiler)
    with hook_phase("simulate"):
        pass
    with hook_phase("simulate"):
        pass
    (stats,) = profiler.phases
    assert stats.name == "simulate"
    assert stats.calls == 2
    assert stats.wall_s >= 0.0


def test_activate_returns_previous_for_restore():
    outer = Profiler()
    inner = Profiler()
    assert activate(outer) is None
    assert activate(inner) is outer
    deactivate(outer)
    assert activate(inner) is outer


def test_profile_call_returns_value_and_records_stats():
    profiler = Profiler()

    def work(n: int) -> int:
        return sum(range(n))

    assert profiler.profile_call(work, 100) == sum(range(100))
    table = profiler.top_table(limit=5)
    assert "work" in table
    assert "cumulative" in table


def test_top_table_rejects_unknown_sort():
    with pytest.raises(ValueError, match="unknown sort"):
        Profiler().top_table(sort="by-vibes")


def test_phase_table_renders_recorded_phases():
    profiler = Profiler()
    with profiler.phase("binding"):
        pass
    table = profiler.phase_table()
    assert "binding" in table
    assert "calls" in table


def test_runner_is_instrumented_with_phases():
    """execute_spec reports its binding/simulate phases when profiled."""
    from repro.experiments.harness.runner import clear_memos, execute_spec
    from repro.experiments.harness.spec import cell_spec

    profiler = Profiler()
    previous = activate(profiler)
    try:
        spec = cell_spec("cello", 1, "heuristic", scale=0.02, seed=7)
        execute_spec(spec)
    finally:
        deactivate(previous)
        clear_memos()
    names = {stats.name for stats in profiler.phases}
    assert {"binding", "simulate"} <= names
