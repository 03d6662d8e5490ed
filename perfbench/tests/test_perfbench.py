"""Tests of the benchmark itself, at a scale that runs in seconds.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import suite  # noqa: E402
from repro.experiments.harness.serialize import canonical_json  # noqa: E402
from spans import TARGETS, TracedServiceModel, Tracer  # noqa: E402

SPEC: Dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SCALE = 0.02


def test_names_units_and_directions_match_the_spec() -> None:
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(suite.WORKLOADS)
    for section, table in (("end_to_end", suite.END_TO_END), ("per_layer", suite.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
        assert declared == table


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_every_workload_runs_tiny_and_reports_every_metric(
    name: str, trace: bool, tmp_path: Path
) -> None:
    lines = []
    result = suite.run(
        name, seed=3, seconds=0.0, trace=trace, scale=TINY_SCALE,
        out_dir=tmp_path, emit=lines.append,
    )
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] == (2 * suite.MIN_REPLAYS if trace else suite.MIN_REPLAYS)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {key: entry["unit"] for key, entry in result["metrics"].items()} == expected
    assert any(line.startswith(f"digest {name} seed 3 sha256:") for line in lines)
    if trace:
        assert (tmp_path / f"spans-{name}-seed3.json").is_file()
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_tracing_leaves_the_simulation_byte_identical(name: str) -> None:
    workload = suite.WORKLOADS[name]
    prepared, _ = suite.prepare(workload, seed=5, scale=TINY_SCALE)
    plain = suite.replay(prepared, prepared.config)
    tracer = Tracer()
    assert tracer.install() == []
    try:
        config = suite.replace(
            prepared.config,
            service_model=TracedServiceModel(prepared.config.service_model, tracer),
        )
        traced = suite.replay(prepared, config, tracer.wrap("report.payload", suite.report_to_payload))
    finally:
        tracer.uninstall()
    assert canonical_json(traced.payload) == canonical_json(plain.payload)
    assert tracer.totals(), "no spans were recorded"
    energy = None if workload.offline else 1.0
    assert suite.simulated_metrics(prepared, traced, energy) == suite.simulated_metrics(
        prepared, plain, energy
    )


def test_uninstall_restores_every_target() -> None:
    def current() -> list:
        found = []
        for _, module_name, class_name, attr, _ in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            found.append(getattr(owner, attr))
        return found

    before = current()
    tracer = Tracer()
    tracer.install()
    assert current() != before
    tracer.uninstall()
    assert current() == before


def test_a_missing_trace_target_fails_the_run(
    monkeypatch: pytest.MonkeyPatch, tmp_path: Path
) -> None:
    import spans

    gone = ("core.gone", "repro.core.mwis", None, "no_such_function", None)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (gone,))
    lines: list = []
    result = suite.run(
        "offline-mwis", seed=3, seconds=0.0, trace=True, scale=TINY_SCALE,
        out_dir=tmp_path, emit=lines.append,
    )
    assert not result["correct"]
    assert any("no_such_function not found" in line for line in lines)


def test_without_the_library_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "online-cello",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
