"""Shared experiment plumbing: the campaign's cells, one memo, one fetch.

The figure modules all read their runs through this module, so a process
computes each (trace, placement, scheduler) combination exactly once —
Fig. 6, 7, 8, 9, 12 and 13 share the same underlying runs, just as the
paper's figures all describe one experiment campaign.

Every run is a :class:`~repro.experiments.harness.spec.RunSpec`. Each
figure family lists the specs it reads once, next to the code that draws
it, and passes that cell list to :func:`fetch`, which sends the specs
not yet in the in-memory memo through one
:class:`~repro.experiments.harness.runner.SweepRunner` sweep: the
persistent on-disk cache in front, fresh computes behind. So repeated
figure benches and pytest sessions reuse runs across processes and
invocations. :func:`run_cell` and :func:`get_baseline` read the memo,
fetching one cell the same way on a miss. :func:`recording` lends the
fetches a bench's runner (and its ``--jobs`` pool) and collects the
points of every sweep they ran.

Scale control (environment variables, read at import; override at
runtime with :func:`configure` or by assigning the module globals):

* ``REPRO_SCALE`` — trace/disks scale factor for simulated runs
  (default 1.0 = the paper's full 70 000 requests on 180 disks). Every
  cell runs at it, offline MWIS included, so every scheduler of a figure
  sees the same binding and normalises against the same always-on run.
* ``REPRO_SEED`` — base RNG seed (default 1).
* ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` — persistent run cache
  location / kill-switch (see :mod:`repro.experiments.harness.cache`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.scheduler import Scheduler
from repro.experiments.harness import cache as harness_cache
from repro.experiments.harness import runner as harness_runner
from repro.experiments.harness.cache import RunCache
from repro.experiments.harness.runner import SweepOutcome, SweepRunner
from repro.experiments.harness.serialize import report_from_payload
from repro.experiments.harness.spec import (
    DEFAULT_PROFILE,
    RunSpec,
    baseline_of,
    baseline_spec,
    cell_spec,
)
from repro.placement.catalog import PlacementCatalog
from repro.report import SimulationReport
from repro.sim import SimulationConfig
from repro.traces import Workload
from repro.types import Request

SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))
BASE_SEED = int(os.environ.get("REPRO_SEED", "1"))

PAPER_NUM_DISKS = harness_runner.PAPER_NUM_DISKS
REPLICATION_FACTORS = (1, 2, 3, 4, 5)

#: Display names matching the paper's legends.
SCHEDULER_LABELS = {
    "random": "Random",
    "static": "Static",
    "heuristic": "Energy-aware Heuristic",
    "wsc": "Energy-aware WSC(batch 0.1s)",
    "mwis": "Energy-aware MWIS(offline)",
    "always-on": "Always-on",
}

#: A bench's cell list: (scale, seed) -> every spec its figure reads,
#: always-on baselines included.
CellList = Callable[[float, int], List[RunSpec]]

#: The one spec-keyed memo; a baseline maps to its run normalised to itself.
_results: Dict[RunSpec, "RunResult"] = {}
_persistent_cache: Optional[RunCache] = None
#: The open :func:`recording`'s runner and merged sweep provenance.
_runner: Optional[SweepRunner] = None
_log: Optional[SweepOutcome] = None


def configure(scale: Optional[float] = None, seed: Optional[int] = None) -> None:
    """Override the campaign's scale/seed at runtime (CLI ``--scale``)."""
    global SCALE, BASE_SEED
    if scale is not None:
        SCALE = scale
    if seed is not None:
        BASE_SEED = seed


def persistent_cache() -> RunCache:
    """The process-wide persistent run cache (lazily constructed)."""
    global _persistent_cache
    if _persistent_cache is None:
        _persistent_cache = RunCache()
    return _persistent_cache


def set_persistent_cache(cache: Optional[RunCache]) -> None:
    """Swap (or, with ``None``, lazily re-resolve) the persistent cache."""
    global _persistent_cache
    _persistent_cache = cache


@dataclass(frozen=True)
class RunResult:
    """One (trace, placement, scheduler) cell of the evaluation.

    ``baseline_energy`` is the always-on energy in joules over the same
    horizon.
    """

    scheduler_key: str
    report: SimulationReport
    baseline_energy: float

    @property
    def normalized_energy(self) -> float:
        """Energy as a fraction of the always-on baseline (unitless)."""
        return self.report.total_energy / self.baseline_energy

    @property
    def spin_operations(self) -> int:
        return self.report.spin_operations

    @property
    def mean_response_time(self) -> float:
        """Mean response time in seconds."""
        return self.report.mean_response_time

    def response_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of this run's response times."""
        if not self.report.response_times:
            return 0.0
        return self.report.response_percentile(fraction)


def num_disks_for(scale: float) -> int:
    """Disk count at a given scale (paper: 180 at scale 1.0)."""
    return harness_runner.num_disks_for(scale)


def get_workload(
    trace: str, scale: float, seed: Optional[int] = None
) -> Workload:
    """Cached synthetic workload (``trace`` in {"cello", "financial"})."""
    return harness_runner.get_workload(
        trace, scale, BASE_SEED if seed is None else seed
    )


def get_binding(
    trace: str,
    replication_factor: int,
    zipf_exponent: float = 1.0,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
) -> Tuple[Sequence[Request], PlacementCatalog, int]:
    """Cached (requests, catalog, num_disks) for one placement."""
    return harness_runner.get_binding(
        trace,
        replication_factor,
        zipf_exponent,
        SCALE if scale is None else scale,
        BASE_SEED if seed is None else seed,
    )


def make_config(num_disks: int, seed: Optional[int] = None) -> SimulationConfig:
    """The evaluation's simulation config (PAPER_EVAL profile, 2CPM)."""
    return harness_runner.make_config(
        num_disks, DEFAULT_PROFILE, BASE_SEED if seed is None else seed
    )


def make_scheduler_for_key(
    key: str, alpha: float = 0.2, beta: float = 100.0
) -> Scheduler:
    """Instantiate the scheduler a key refers to (paper configurations)."""
    spec = cell_spec(
        "cello", 1, key, alpha=alpha, beta=beta, scale=1.0, seed=BASE_SEED
    )
    return harness_runner.make_scheduler(spec)


def with_baselines(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """The distinct specs, then the always-on baselines they normalise
    against, each in first-seen order."""
    return list(dict.fromkeys([*specs, *map(baseline_of, specs)]))


def knobs(
    scale: Optional[float] = None, seed: Optional[int] = None
) -> Tuple[float, int]:
    """A cell list's (scale, seed): the campaign's, unless given."""
    return (
        SCALE if scale is None else scale,
        BASE_SEED if seed is None else seed,
    )


def fetch(specs: Sequence[RunSpec]) -> None:
    """Memoise specs and their baselines: one sweep over the misses."""
    missing = [spec for spec in with_baselines(specs) if spec not in _results]
    if not missing:
        return
    runner = _runner if _runner is not None else SweepRunner(persistent_cache())
    outcome = runner.run(missing)
    if _log is not None:
        _log.points.extend(outcome.points)
        _log.cache_hits += outcome.cache_hits
        _log.cache_misses += outcome.cache_misses
        _log.cache_corrupt += outcome.cache_corrupt
    reports = {s: report_from_payload(p["report"]) for s, p in outcome.payloads.items()}
    for spec, report in reports.items():
        # A baseline normalises against itself; a cell's may be memoised.
        base = baseline_of(spec)
        baseline = reports[base] if base in reports else _results[base].report
        _results[spec] = RunResult(spec.scheduler_key, report, baseline.total_energy)


@contextmanager
def recording(runner: SweepRunner) -> Iterator[SweepOutcome]:
    """Fetch through ``runner`` inside the block; yield one outcome
    merging the points and cache counts of every sweep it ran."""
    global _runner, _log
    saved = _runner, _log
    _runner, _log = runner, SweepOutcome()
    try:
        yield _log
    finally:
        _runner, _log = saved


def get_baseline(
    trace: str, scale: Optional[float] = None, seed: Optional[int] = None
) -> SimulationReport:
    """Always-on energy for a trace (placement-independent up to ~0.1%)."""
    scale, seed = knobs(scale, seed)
    spec = baseline_spec(trace, scale=scale, seed=seed)
    fetch([spec])
    return _results[spec].report


def run_cell(
    trace: str,
    replication_factor: int,
    scheduler_key: str,
    zipf_exponent: float = 1.0,
    alpha: float = 0.2,
    beta: float = 100.0,
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    fault_rate: float = 0.0,
) -> RunResult:
    """Run (or fetch from cache) one cell of the evaluation matrix.

    ``fault_rate`` (per-disk permanent failures per simulated second)
    > 0 turns on fault injection for the cell; its baseline stays
    fault-free so normalised energy remains a fraction of the healthy
    always-on fleet.
    """
    scale, seed = knobs(scale, seed)
    spec = cell_spec(
        trace,
        replication_factor,
        scheduler_key,
        scale=scale,
        seed=seed,
        zipf_exponent=zipf_exponent,
        alpha=alpha,
        beta=beta,
        fault_rate=fault_rate,
    )
    fetch([spec])
    return _results[spec]


def clear_caches() -> None:
    """Testing hook: drop all in-memory memos (not the on-disk cache)."""
    _results.clear()
    harness_runner.clear_memos()


# Re-exported for callers that poke the cache machinery directly.
__all__ = [
    "BASE_SEED",
    "CellList",
    "PAPER_NUM_DISKS",
    "REPLICATION_FACTORS",
    "RunResult",
    "SCALE",
    "SCHEDULER_LABELS",
    "clear_caches",
    "configure",
    "fetch",
    "knobs",
    "get_baseline",
    "get_binding",
    "get_workload",
    "harness_cache",
    "make_config",
    "make_scheduler_for_key",
    "num_disks_for",
    "persistent_cache",
    "recording",
    "run_cell",
    "set_persistent_cache",
    "with_baselines",
]
