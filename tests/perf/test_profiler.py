"""Profiler behaviour: merged cProfile tables."""

import pytest

from repro.perf.profiler import Profiler


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
