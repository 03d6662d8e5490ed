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
    verdict = gate.decide(scaled(BASE_RUNS, 0.75), BASE_RUNS, 0.2)
    assert verdict.change == pytest.approx(-0.25)
    assert not verdict.passed
    assert "FAILED" in verdict.summary()


def test_head_10_percent_slower_passes():
    verdict = gate.decide(scaled(BASE_RUNS, 0.9), BASE_RUNS, 0.2)
    assert verdict.change == pytest.approx(-0.1)
    assert verdict.passed


def test_faster_head_passes():
    verdict = gate.decide(scaled(BASE_RUNS, 1.3), BASE_RUNS, 0.2)
    assert verdict.change == pytest.approx(0.3)
    assert verdict.passed


def test_the_median_decides_not_an_outlier():
    # One very slow head run out of five does not move the median.
    head = list(BASE_RUNS)
    head[0] = 10_000.0
    assert gate.decide(head, BASE_RUNS, 0.2).passed


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


def test_run_gate_pairs_and_alternates_the_sides(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    calls = []

    def run_once(tree: Path, workload, seed, seconds):
        calls.append((tree, seed))
        rate = 100_000.0 if tree == tmp_path else 70_000.0
        return {gate.GATE_METRIC: rate}

    real = gate._compare()
    monkeypatch.setattr(
        gate, "_compare", lambda: SimpleNamespace(run_once=run_once, spread=real.spread)
    )
    lines = []
    assert gate.run_gate(tmp_path, emit=lines.append) == 1
    assert [seed for _, seed in calls] == [s for s in gate.GATE_SEEDS for _ in (0, 1)]
    firsts = [tree for tree, _ in calls[::2]]
    assert firsts[:2] == [tmp_path, gate.ROOT]
    assert "FAILED" in lines[-1]


def test_run_gate_rejects_a_base_without_the_benchmark(tmp_path):
    lines = []
    assert gate.run_gate(tmp_path, emit=lines.append) == 2
    assert "perfbench" in lines[0]
