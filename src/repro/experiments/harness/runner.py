"""Spec execution and the parallel sweep runner.

:func:`execute_spec` is the one process-safe entry point that turns a
:class:`~repro.experiments.harness.spec.RunSpec` into a result payload —
it regenerates the workload from the spec alone, so it computes the same
bytes whether it runs in this interpreter or in a
:class:`~concurrent.futures.ProcessPoolExecutor` worker.

:class:`SweepRunner` fans a list of specs out: persistent-cache hits are
returned instantly, misses are computed (in parallel when ``jobs > 1``)
and written back, and every point's wall-clock / event count / cache
status is recorded for the bench trajectory files.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import (
    CostFunction,
    HeuristicScheduler,
    MWISOfflineScheduler,
    RandomScheduler,
    StaticScheduler,
    WSCBatchScheduler,
)
from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.experiments.harness.cache import RunCache
from repro.experiments.harness.serialize import report_to_payload
from repro.experiments.harness.spec import KIND_BASELINE, RunSpec
from repro.faults.plan import FaultPlan
from repro.placement.catalog import PlacementCatalog
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.profile import get_profile
from repro.sim import SimulationConfig, always_on_baseline, simulate
from repro.traces import (
    CelloLikeConfig,
    FinancialLikeConfig,
    Workload,
    generate_cello_like,
    generate_financial_like,
)
from repro.types import Request

#: The paper's disk count at scale 1.0.
PAPER_NUM_DISKS = 180

_WorkloadKey = Tuple[str, float, int]
_BindingKey = Tuple[str, int, float, float, int]
_Binding = Tuple[Sequence[Request], PlacementCatalog, int]

# Process-local memos: fork()ed pool workers inherit a snapshot, and each
# worker reuses its own copies across the specs it executes.
_workloads: Dict[_WorkloadKey, Workload] = {}
_bindings: Dict[_BindingKey, _Binding] = {}


def num_disks_for(scale: float) -> int:
    """Disk count at a given scale (paper: 180 at scale 1.0)."""
    return max(2, round(PAPER_NUM_DISKS * scale))


def get_workload(trace: str, scale: float, seed: int) -> Workload:
    """Memoised synthetic workload (``trace`` in {"cello", "financial"})."""
    key = (trace, scale, seed)
    if key not in _workloads:
        if trace == "cello":
            records = generate_cello_like(CelloLikeConfig().scaled(scale), seed=seed)
        elif trace == "financial":
            records = generate_financial_like(
                FinancialLikeConfig().scaled(scale), seed=seed
            )
        else:
            raise ConfigurationError(f"unknown trace {trace!r}")
        _workloads[key] = Workload(records)
    return _workloads[key]


def get_binding(
    trace: str,
    replication_factor: int,
    zipf_exponent: float,
    scale: float,
    seed: int,
) -> _Binding:
    """Memoised (requests, catalog, num_disks) for one placement."""
    key = (trace, replication_factor, zipf_exponent, scale, seed)
    if key not in _bindings:
        workload = get_workload(trace, scale, seed)
        disks = num_disks_for(scale)
        requests, catalog = workload.bind(
            ZipfOriginalUniformReplicas(
                replication_factor=replication_factor,
                zipf_exponent=zipf_exponent,
            ),
            num_disks=disks,
            seed=seed + 7,
        )
        _bindings[key] = (requests, catalog, disks)
    return _bindings[key]


def clear_memos() -> None:
    """Drop the process-local workload/binding memos (testing hook)."""
    _workloads.clear()
    _bindings.clear()


def make_config(num_disks: int, profile_name: str, seed: int) -> SimulationConfig:
    """The evaluation's simulation config for one spec."""
    return SimulationConfig(
        num_disks=num_disks, profile=get_profile(profile_name), seed=seed
    )


def make_scheduler(spec: RunSpec) -> Scheduler:
    """Instantiate the scheduler a cell spec refers to."""
    key = spec.scheduler_key
    cost = CostFunction(alpha=spec.alpha, beta=spec.beta)
    if key == "static":
        return StaticScheduler()
    if key == "random":
        return RandomScheduler(seed=spec.seed)
    if key == "heuristic":
        return HeuristicScheduler(cost_function=cost)
    if key == "wsc":
        return WSCBatchScheduler(cost_function=cost)
    if key == "mwis":
        return MWISOfflineScheduler(method="gwmin", neighborhood=4)
    raise ConfigurationError(f"unknown scheduler key {key!r}")


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Compute one spec's result payload (self-contained; pool-safe).

    Returns ``{"report": <report payload>, "wall_s": <compute seconds>}``.
    Only the ``report`` part is deterministic; ``wall_s`` is measurement
    metadata and never participates in cache keys or byte comparisons.
    """
    started = time.perf_counter()
    requests, catalog, disks = get_binding(
        spec.trace,
        spec.replication_factor,
        spec.zipf_exponent,
        spec.scale,
        spec.seed,
    )
    config = make_config(disks, spec.profile, spec.seed)
    if spec.fault_rate > 0:
        # The plan seed derives from the run seed so replication seeds get
        # independent failure schedules, while staying identical across
        # serial, pooled and cache-replayed executions of one spec.
        config = replace(
            config,
            fault_plan=FaultPlan.canonical(spec.fault_rate, seed=spec.seed),
        )
    if spec.kind == KIND_BASELINE:
        report = always_on_baseline(requests, catalog, config)
    else:
        report = simulate(requests, catalog, make_scheduler(spec), config)
    return {
        "report": report_to_payload(report),
        "wall_s": time.perf_counter() - started,
    }


@dataclass(frozen=True)
class SweepPoint:
    """Per-spec measurement of one sweep: provenance + cost."""

    spec: RunSpec
    cached: bool
    wall_s: float
    events_processed: int


@dataclass
class SweepOutcome:
    """Everything a sweep produced: payloads by spec + per-point stats."""

    payloads: Dict[RunSpec, Dict[str, Any]] = field(default_factory=dict)
    points: List[SweepPoint] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    cache_corrupt: int = 0

    @property
    def events_processed(self) -> int:
        """Simulator events across all points (cached points included —
        their counts were paid for once and recorded)."""
        return sum(point.events_processed for point in self.points)

    @property
    def hit_rate(self) -> float:
        """Cache hits over lookups (0.0 when the cache was disabled)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class SweepRunner:
    """Fan specs over workers, with the persistent cache in front."""

    def __init__(self, cache: Optional[RunCache] = None, jobs: int = 1) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self._cache = cache
        self._jobs = jobs

    def run(self, specs: Sequence[RunSpec]) -> SweepOutcome:
        """Resolve every spec to a payload (cache hit or fresh compute).

        Duplicate specs are computed once.  Results are deterministic and
        independent of ``jobs``: each worker recomputes its workload from
        the spec alone, so serial and parallel sweeps produce identical
        canonical report bytes.
        """
        outcome = SweepOutcome()
        unique: List[RunSpec] = []
        seen: Set[RunSpec] = set()
        for spec in specs:
            if spec not in seen:
                seen.add(spec)
                unique.append(spec)

        to_compute: List[RunSpec] = []
        corrupt_before = self._cache.stats.corrupt if self._cache else 0
        for spec in unique:
            payload = self._cache.load_payload(spec) if self._cache else None
            if payload is not None:
                outcome.payloads[spec] = payload
                outcome.cache_hits += 1
                outcome.points.append(
                    SweepPoint(
                        spec=spec,
                        cached=True,
                        wall_s=0.0,
                        events_processed=payload["report"]["events_processed"],
                    )
                )
            else:
                to_compute.append(spec)
                if self._cache is not None and self._cache.enabled:
                    outcome.cache_misses += 1
        if self._cache is not None:
            outcome.cache_corrupt = self._cache.stats.corrupt - corrupt_before

        for spec, payload in zip(to_compute, self._compute(to_compute)):
            outcome.payloads[spec] = payload
            if self._cache is not None:
                self._cache.store_payload(spec, payload)
            outcome.points.append(
                SweepPoint(
                    spec=spec,
                    cached=False,
                    wall_s=payload["wall_s"],
                    events_processed=payload["report"]["events_processed"],
                )
            )
        return outcome

    def _compute(self, specs: List[RunSpec]) -> List[Dict[str, Any]]:
        if not specs:
            return []
        if self._jobs > 1 and len(specs) > 1:
            workers = min(self._jobs, len(specs))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(execute_spec, specs))
        return [execute_spec(spec) for spec in specs]
