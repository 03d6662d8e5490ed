"""Paired same-host perf gate: ``python -m repro.perf --base <checkout>``.

The repo benchmark under ``perfbench/`` is the one end-to-end perf
instrument; this module only turns it into a pass/fail decision. For
each of :data:`GATE_WORKLOADS` and each of :data:`GATE_SEEDS` it runs
the workload once in the base checkout and once in this tree, on the
same host, alternating which side runs first. It fails when, on any
workload, this tree's median normalised ``requests_per_s`` is lower
than the base's by more than that metric's ``bound`` in
``BENCHMARK.json``.

The runs and their medians are ``perfbench/compare.py``'s own
``run_once`` and ``spread``, loaded from that file. Simulated results
are the digest pins' job (``repro.experiments.pins``).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError

#: The checkout this module belongs to: the gate's head side.
ROOT = Path(__file__).resolve().parents[3]
#: The benchmark workloads both sides run: the Fig. 6 cell, the fault
#: run and the offline MWIS schedule, so that neither a fault-free nor a
#: faulty replay nor the offline graph build and solve can slow down
#: unseen.
GATE_WORKLOADS = ("online-cello", "faulty-financial", "offline-mwis")
#: The end-to-end metric compared (higher is better).
GATE_METRIC = "requests_per_s"
#: One paired run per seed.
GATE_SEEDS = (1, 2, 3, 4, 5)


@functools.lru_cache(maxsize=None)
def _compare() -> ModuleType:
    """``perfbench/compare.py`` of this tree, loaded as a module."""
    path = ROOT / "perfbench" / "compare.py"
    spec = importlib.util.spec_from_file_location("perfbench_compare", path)
    if not path.is_file() or spec is None or spec.loader is None:
        raise ConfigurationError(f"benchmark driver not found at {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark() -> Dict[str, Any]:
    """This tree's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_bound() -> float:
    """:data:`GATE_METRIC`'s end-to-end ``bound`` in ``BENCHMARK.json``."""
    for meta in _benchmark()["end_to_end"]:
        if meta["name"] == GATE_METRIC:
            return float(meta["bound"])
    raise ConfigurationError(f"BENCHMARK.json declares no metric {GATE_METRIC!r}")


@dataclass(frozen=True)
class Verdict:
    """The gate's decision over one workload's paired runs.

    Attributes:
        workload: The benchmark workload both sides ran.
        head_median: Median of this tree's runs.
        base_median: Median of the base checkout's runs.
        bound: Largest allowed fractional drop of ``head_median``.
    """

    workload: str
    head_median: float
    base_median: float
    bound: float

    @property
    def change(self) -> float:
        """Fractional change of the head median (negative = slower)."""
        return (self.head_median - self.base_median) / self.base_median

    @property
    def passed(self) -> bool:
        """True unless the head is slower by more than ``bound``."""
        return self.change >= -self.bound

    def summary(self) -> str:
        """One line: both medians, the change and the outcome."""
        outcome = "ok" if self.passed else "FAILED"
        return (
            f"perf gate {outcome}: {self.workload} median {GATE_METRIC} "
            f"head {self.head_median:.0f} vs base {self.base_median:.0f} "
            f"({self.change:+.1%}, bound -{self.bound:.0%})"
        )


def decide(
    workload: str, head: Sequence[float], base: Sequence[float], bound: float
) -> Verdict:
    """Compare one workload's paired runs' medians of :data:`GATE_METRIC`."""
    spread = _compare().spread
    return Verdict(
        workload=workload,
        head_median=spread(list(head))["median"],
        base_median=spread(list(base))["median"],
        bound=bound,
    )


def run_gate(
    base: Path, emit: Callable[[str], None] = functools.partial(print, flush=True)
) -> int:
    """Run the paired gate against ``base``; returns the exit code.

    0 when this tree passes on every workload, 1 when it is slower
    beyond the bound on any, 2 when ``base`` holds no benchmark to run.
    """
    if not (base / "perfbench" / "run.py").is_file():
        emit(f"error: {base} holds no perfbench/run.py")
        return 2
    run_once = _compare().run_once
    seconds = _benchmark()["run_seconds"]
    bound = metric_bound()
    failed: List[str] = []
    for workload in GATE_WORKLOADS:
        head_rates: List[float] = []
        base_rates: List[float] = []
        for index, seed in enumerate(GATE_SEEDS):
            sides = [(base, base_rates), (ROOT, head_rates)]
            for tree, rates in sides if index % 2 == 0 else sides[::-1]:
                rates.append(run_once(tree, workload, seed, seconds)[GATE_METRIC])
            emit(
                f"{workload} seed {seed}: {GATE_METRIC} "
                f"head {head_rates[-1]:.0f} base {base_rates[-1]:.0f}"
            )
        verdict = decide(workload, head_rates, base_rates, bound)
        emit(verdict.summary())
        if not verdict.passed:
            failed.append(workload)
    if failed:
        emit(f"perf gate FAILED on {', '.join(failed)}")
        return 1
    emit(f"perf gate ok on {', '.join(GATE_WORKLOADS)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--base", type=Path, required=True, help="checkout to compare against"
    )
    return run_gate(parser.parse_args(argv).base)
