"""Microbench suite: schema-valid documents and a working regression gate."""

import json

import pytest

from repro.experiments.harness.schema import validate_bench_payload
from repro.perf.microbench import (
    DEFAULT_GATE_TOLERANCE,
    PRE_PR_BASELINE_EPS,
    MicrobenchResult,
    bench_engine_dispatch,
    bench_timer_churn,
    build_parser,
    check_regression,
    run_suite,
)


@pytest.fixture(scope="module")
def quick_payload():
    """One shrunken suite run shared by every test in this module."""
    return run_suite(quick=True, seed=1)


def test_quick_suite_emits_a_schema_valid_document(quick_payload):
    assert validate_bench_payload(quick_payload) == []
    assert quick_payload["bench"] == "perf_core"
    assert quick_payload["cache"]["enabled"] is False


def test_suite_records_every_microbench(quick_payload):
    micro = quick_payload["result"]["microbench"]
    expected = {
        "engine_dispatch",
        "timer_churn",
        "scheduler_choose",
        "storage_dispatch",
    }
    for size in (10, 180, 1000):
        expected.add(f"fleet_choose_{size}")
    expected.add("wsc_choose_batch_180")
    for policy in ("nearest", "ltsp"):
        for queue_depth in (10, 100, 1000):
            expected.add(f"tape_plan_{policy}_{queue_depth}")
    assert set(micro) == expected
    for measurement in micro.values():
        assert measurement["iterations"] > 0
        assert measurement["rate_per_s"] > 0


def test_suite_reports_speedup_vs_recorded_baseline(quick_payload):
    result = quick_payload["result"]
    assert result["baseline_events_per_sec"] == PRE_PR_BASELINE_EPS
    assert result["speedup"] == pytest.approx(
        result["events_per_sec"] / PRE_PR_BASELINE_EPS
    )


def test_engine_dispatch_counts_every_posted_event():
    result = bench_engine_dispatch(num_events=500)
    assert result.iterations == 500
    assert result.wall_s > 0


def test_timer_churn_runs_the_requested_rounds():
    result = bench_timer_churn(num_timers=16, rounds=3)
    assert result.iterations == 3 * (16 + 8 + 8)


def test_rate_of_zero_wall_is_zero():
    assert MicrobenchResult("x", 10, 0.0).rate_per_s == 0.0


def test_gate_passes_within_tolerance(tmp_path, quick_payload):
    baseline = tmp_path / "BENCH_perf_core.json"
    baseline.write_text(json.dumps(quick_payload))
    assert check_regression(quick_payload, baseline) is None


def test_gate_fails_on_regression(tmp_path, quick_payload):
    inflated = dict(quick_payload)
    inflated["events_per_sec"] = quick_payload["events_per_sec"] * 10.0
    baseline = tmp_path / "BENCH_perf_core.json"
    baseline.write_text(json.dumps(inflated))
    failure = check_regression(quick_payload, baseline, tolerance=0.2)
    assert failure is not None and "perf regression" in failure


def test_gate_tolerance_is_respected(tmp_path, quick_payload):
    # 10% above measured passes at 20% tolerance, fails at 5%.
    ahead = dict(quick_payload)
    ahead["events_per_sec"] = quick_payload["events_per_sec"] * 1.1
    baseline = tmp_path / "BENCH_perf_core.json"
    baseline.write_text(json.dumps(ahead))
    assert check_regression(quick_payload, baseline, tolerance=0.2) is None
    assert check_regression(quick_payload, baseline, tolerance=0.05) is not None


def test_parser_defaults_match_the_gate_contract():
    args = build_parser().parse_args([])
    assert args.tolerance == DEFAULT_GATE_TOLERANCE
    assert args.repeats == 3
    assert args.output == "BENCH_perf_core.json"


def test_run_suite_rejects_nonpositive_repeats():
    with pytest.raises(ValueError, match="repeats"):
        run_suite(repeats=0)
