"""The paired perf gate decides on synthetic paired runs."""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.perf import gate

BASE_RUNS = [100_000.0, 102_000.0, 98_000.0, 101_000.0, 99_000.0]


def scaled(runs, factor):
    return [value * factor for value in runs]


def test_head_25_percent_slower_fails():
    verdict = gate.decide("faulty-financial", scaled(BASE_RUNS, 0.75), BASE_RUNS, 0.2)
    assert verdict.change == pytest.approx(-0.25)
    assert not verdict.passed
    assert verdict.summary().startswith("perf gate FAILED: faulty-financial median")


def test_head_10_percent_slower_passes():
    verdict = gate.decide("online-cello", scaled(BASE_RUNS, 0.9), BASE_RUNS, 0.2)
    assert verdict.change == pytest.approx(-0.1)
    assert verdict.passed


def test_faster_head_passes():
    verdict = gate.decide("online-cello", scaled(BASE_RUNS, 1.3), BASE_RUNS, 0.2)
    assert verdict.change == pytest.approx(0.3)
    assert verdict.passed


def test_the_median_decides_not_an_outlier():
    # One very slow head run out of five does not move the median.
    head = list(BASE_RUNS)
    head[0] = 10_000.0
    assert gate.decide("online-cello", head, BASE_RUNS, 0.2).passed


def test_bound_comes_from_benchmark_json(tmp_path, monkeypatch):
    declared = json.loads((gate.ROOT / "BENCHMARK.json").read_text())
    (expected,) = [
        meta["bound"]
        for meta in declared["end_to_end"]
        if meta["name"] == gate.GATE_METRIC
    ]
    assert gate.metric_bound() == expected
    (tmp_path / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": gate.GATE_METRIC, "bound": 0.05}]})
    )
    monkeypatch.setattr(gate, "ROOT", tmp_path)
    assert gate.metric_bound() == 0.05


def test_gate_pairs_the_fault_run_as_well():
    assert gate.GATE_WORKLOADS == ("online-cello", "faulty-financial", "offline-mwis")


def _fake_runs(monkeypatch, rate):
    """Replace the benchmark runs with ``rate(tree, workload)``; returns
    the list every call is recorded in."""
    calls = []

    def run_once(tree: Path, workload, seed, seconds):
        calls.append((tree, workload, seed))
        return {gate.GATE_METRIC: rate(tree, workload)}

    real = gate._compare()
    monkeypatch.setattr(
        gate, "_compare", lambda: SimpleNamespace(run_once=run_once, spread=real.spread)
    )
    return calls


def _fake_base(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    return tmp_path


def test_run_gate_pairs_and_alternates_the_sides(tmp_path, monkeypatch):
    base = _fake_base(tmp_path)
    calls = _fake_runs(
        monkeypatch, lambda tree, workload: 100_000.0 if tree == base else 70_000.0
    )
    lines = []
    assert gate.run_gate(base, emit=lines.append) == 1
    assert [(workload, seed) for _, workload, seed in calls] == [
        (workload, seed)
        for workload in gate.GATE_WORKLOADS
        for seed in gate.GATE_SEEDS
        for _ in (0, 1)
    ]
    per_workload = len(gate.GATE_SEEDS) * 2
    for start in range(0, len(calls), per_workload):
        firsts = [tree for tree, _, _ in calls[start : start + per_workload : 2]]
        assert firsts[:2] == [base, gate.ROOT]
    assert lines[-1] == "perf gate FAILED on online-cello, faulty-financial, offline-mwis"


def test_run_gate_fails_when_only_the_fault_run_slows(tmp_path, monkeypatch):
    base = _fake_base(tmp_path)

    def rate(tree, workload):
        slow = tree == gate.ROOT and workload == "faulty-financial"
        return 60_000.0 if slow else 100_000.0

    _fake_runs(monkeypatch, rate)
    lines = []
    assert gate.run_gate(base, emit=lines.append) == 1
    summaries = [line for line in lines if line.startswith("perf gate ")]
    assert summaries[0].startswith("perf gate ok: online-cello median")
    assert summaries[1].startswith("perf gate FAILED: faulty-financial median")
    assert lines[-1] == "perf gate FAILED on faulty-financial"


def test_run_gate_passes_when_every_workload_holds(tmp_path, monkeypatch):
    base = _fake_base(tmp_path)
    _fake_runs(monkeypatch, lambda tree, workload: 100_000.0)
    lines = []
    assert gate.run_gate(base, emit=lines.append) == 0
    assert lines[-1] == "perf gate ok on online-cello, faulty-financial, offline-mwis"


def test_run_gate_rejects_a_base_without_the_benchmark(tmp_path):
    lines = []
    assert gate.run_gate(tmp_path, emit=lines.append) == 2
    assert "perfbench" in lines[0]
