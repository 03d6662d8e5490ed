"""Tape-sequencer microbenches: every bench runs and reports a rate."""

from repro.perf.microbench import MicrobenchResult, render, run_suite


def test_suite_records_every_microbench():
    results = run_suite(iterations=5)
    assert [result.name for result in results] == [
        f"tape_plan_{policy}_{queue_depth}"
        for policy in ("nearest", "ltsp")
        for queue_depth in (10, 100, 1000)
    ]
    for result in results:
        assert result.iterations > 0
        assert result.rate_per_s > 0
    assert "tape_plan_ltsp_1000" in render(results)


def test_rate_of_zero_wall_is_zero():
    assert MicrobenchResult("x", 10, 0.0).rate_per_s == 0.0
