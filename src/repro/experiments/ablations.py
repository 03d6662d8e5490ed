"""Ablation sweeps beyond the paper's figures, runnable by id.

Each ablation used to live inline in one ``benchmarks/bench_ablation_*``
file; the sweeps now live here so the bench files are thin assertion
wrappers and ``repro-storage bench ablation_<name>`` can run, time and
record any of them.  Every sweep returns an :class:`AblationResult` —
one or more :class:`Panel` series blocks plus the total simulator event
count — which serialises straight into the ``BENCH_*.json`` trajectory
documents.

These sweeps exercise knobs (block caches, power policies, custom
traces) that a :class:`~repro.experiments.harness.spec.RunSpec` does not
encode, so they run outside the persistent run cache. Every sweep runs
at the campaign's ``(scale, seed)`` (:func:`repro.experiments.common.knobs`):
the disk count is ``num_disks_for(scale)`` and the placement seed
``seed + 7``, as for every figure cell. The threshold and MWIS sweeps
also take an explicit pair, which their digest pins pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.idleness import period_summary, standby_periods_of_report
from repro.analysis.tables import format_series_table
from repro.cache.policy import BlockCache, LRUBlockCache, PowerAwareLRUCache
from repro.core.covering_scheduler import CoveringSetScheduler
from repro.core.heuristic import HeuristicScheduler
from repro.core.mwis import MWISOfflineScheduler
from repro.core.offline import OfflineEvaluator
from repro.core.prediction import PredictiveHeuristicScheduler
from repro.core.problem import SchedulingProblem
from repro.core.scheduler import OnlineScheduler, Picker, SystemView
from repro.core.writeoffload import WriteOffloadingScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.errors import ConfigurationError
from repro.experiments import common
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.oracle import empirical_competitive_ratio
from repro.power.policy import ScaledBreakevenPolicy
from repro.power.profile import PAPER_EVAL
from repro.sim.runner import always_on_baseline, simulate
from repro.traces.cello import CelloLikeConfig, generate_cello_like
from repro.traces.record import TraceRecord
from repro.traces.synthetic import (
    ParetoArrivals,
    PoissonArrivals,
    ZipfPopularity,
    coefficient_of_variation,
    inter_arrival_gaps,
)
from repro.traces.workload import Workload
from repro.types import DiskId, Request


@dataclass(frozen=True)
class Panel:
    """One series block of an ablation (x axis + named series)."""

    name: str
    x_label: str
    x_values: Sequence[object]
    series: Dict[str, List[float]]
    precision: int = 3

    def render(self) -> str:
        """The panel as a paper-plot-style ASCII table."""
        return format_series_table(
            self.x_label,
            self.x_values,
            self.series,
            title=self.name,
            precision=self.precision,
        )


@dataclass
class AblationResult:
    """All panels of one ablation plus measurement metadata."""

    ablation_id: str
    title: str
    panels: List[Panel] = field(default_factory=list)
    events_processed: int = 0

    def panel(self, name: str) -> Panel:
        """Look a panel up by name (assertion helper for the benches)."""
        for panel in self.panels:
            if panel.name == name:
                return panel
        raise ConfigurationError(
            f"no panel {name!r} in {self.ablation_id}; "
            f"have {[p.name for p in self.panels]}"
        )

    def series(self, panel_name: str, series_name: str) -> List[float]:
        """One series of one panel (assertion helper)."""
        return self.panel(panel_name).series[series_name]

    def render(self) -> str:
        """All panels as ASCII tables."""
        return "\n\n".join(panel.render() for panel in self.panels)


# ---------------------------------------------------------------------------
# ablation_threshold — the 2CPM idleness threshold


class _RecordingScheduler(OnlineScheduler):
    """Wraps a scheduler and records each disk's arrival chain."""

    def __init__(self, inner: OnlineScheduler):
        self._inner = inner
        self.chains: Dict[DiskId, List[float]] = {}

    def bind(self, view: SystemView) -> Picker:
        inner = self._inner.bind(view)
        chains = self.chains

        def pick(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            disk_id = inner(request, locations, now)
            chains.setdefault(disk_id, []).append(now)
            return disk_id

        return pick

    @property
    def name(self) -> str:
        return self._inner.name


THRESHOLD_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)


def run_threshold(
    scale: Optional[float] = None, seed: Optional[int] = None
) -> AblationResult:
    """Sweep the spin-down threshold as a multiple of the breakeven TB.

    Expected story: aggressive thresholds (<< TB) burn transition energy
    and spin-up delays; conservative ones (>> TB) burn idle energy; the
    breakeven threshold (x1) sits near the energy minimum, and the
    measured 2CPM-vs-oracle competitive ratio stays far below the
    worst-case 2.
    """
    scale, seed = common.knobs(scale, seed)
    requests, catalog, disks = common.get_binding("cello", 3, 1.0, scale, seed)
    base_config = common.make_config(disks, seed)
    baseline = always_on_baseline(requests, catalog, base_config)
    events = baseline.events_processed
    energies, responses, ratios = [], [], []
    for factor in THRESHOLD_FACTORS:
        config = replace(base_config, policy=ScaledBreakevenPolicy(factor))
        scheduler = _RecordingScheduler(common.make_scheduler_for_key("heuristic"))
        report = simulate(requests, catalog, scheduler, config)
        events += report.events_processed
        energies.append(report.total_energy / baseline.total_energy)
        responses.append(report.mean_response_time)
        ratios.append(
            empirical_competitive_ratio(
                PAPER_EVAL, list(scheduler.chains.values()), report.duration
            )
        )
    return AblationResult(
        ablation_id="ablation_threshold",
        title="spin-down threshold (cello, rf=3, Heuristic)",
        panels=[
            Panel(
                name="ablation: spin-down threshold (cello, rf=3, Heuristic)",
                x_label="threshold xTB",
                x_values=THRESHOLD_FACTORS,
                series={
                    "energy vs always-on": energies,
                    "mean response (s)": responses,
                    "2CPM/oracle ratio": ratios,
                },
            )
        ],
        events_processed=events,
    )


# ---------------------------------------------------------------------------
# ablation_batch_interval — the WSC batch scheduling interval


BATCH_INTERVALS = (0.01, 0.1, 1.0, 5.0)


def run_batch_interval() -> AblationResult:
    """Sweep the WSC batch interval (the paper fixes 0.1 s).

    A longer interval batches more requests per set-cover instance
    (better covers, fewer woken disks) but every request eats the
    queueing delay.
    """
    scale, seed = common.knobs()
    requests, catalog, disks = common.get_binding("cello", 3, 1.0, scale, seed)
    config = common.make_config(disks, seed)
    baseline = always_on_baseline(requests, catalog, config)
    events = baseline.events_processed
    energies, responses, p90s = [], [], []
    for interval in BATCH_INTERVALS:
        scheduler = WSCBatchScheduler(interval=interval)
        report = simulate(requests, catalog, scheduler, config)
        events += report.events_processed
        energies.append(report.total_energy / baseline.total_energy)
        responses.append(report.mean_response_time)
        p90s.append(report.response_percentile(0.9))
    return AblationResult(
        ablation_id="ablation_batch_interval",
        title="WSC batch interval (cello, rf=3)",
        panels=[
            Panel(
                name="ablation: WSC batch interval (cello, rf=3)",
                x_label="interval (s)",
                x_values=BATCH_INTERVALS,
                series={
                    "energy vs always-on": energies,
                    "mean response (s)": responses,
                    "p90 response (s)": p90s,
                },
            )
        ],
        events_processed=events,
    )


# ---------------------------------------------------------------------------
# ablation_cache — power-aware block caching in front of the scheduler


CACHE_CAPACITIES = (200, 1000)


def run_cache() -> AblationResult:
    """Heuristic with no cache, plain LRU and PA-LRU at several sizes.

    The paper's related work (Zhu & Zhou) argues caching is complementary
    to energy-aware scheduling; power-aware eviction (spare the blocks of
    sleeping disks) turns hits into avoided spin-ups.
    """
    scale, seed = common.knobs()
    requests, catalog, disks = common.get_binding("cello", 3, 1.0, scale, seed)
    base_config = common.make_config(disks, seed)
    baseline = always_on_baseline(requests, catalog, base_config)
    events = baseline.events_processed
    labels: List[str] = []
    energies: List[float] = []
    hit_ratios: List[float] = []
    responses: List[float] = []

    def run(label: str, factory: Optional[Callable[[], BlockCache]]) -> None:
        nonlocal events
        config = (
            base_config
            if factory is None
            else replace(base_config, cache_factory=factory)
        )
        scheduler = common.make_scheduler_for_key("heuristic")
        report = simulate(requests, catalog, scheduler, config)
        events += report.events_processed
        labels.append(label)
        energies.append(report.total_energy / baseline.total_energy)
        hit_ratios.append(report.cache_hit_ratio)
        responses.append(report.mean_response_time)

    run("no cache", None)
    for capacity in CACHE_CAPACITIES:
        run(f"lru({capacity})", lambda c=capacity: LRUBlockCache(c))
        run(
            f"pa-lru({capacity})",
            lambda c=capacity: PowerAwareLRUCache(c, scan_depth=16),
        )
    return AblationResult(
        ablation_id="ablation_cache",
        title="block cache (cello, rf=3, Heuristic)",
        panels=[
            Panel(
                name="ablation: block cache (cello, rf=3, Heuristic)",
                x_label="cache",
                x_values=labels,
                series={
                    "energy vs always-on": energies,
                    "hit ratio": hit_ratios,
                    "mean response (s)": responses,
                },
            )
        ],
        events_processed=events,
    )


# ---------------------------------------------------------------------------
# ablation_mwis_solver — solver choice and graph-construction cap


MWIS_CAPS = (1, 2, 4, 8)
MWIS_METHODS = ("gwmin", "gwmin2", "min-degree")


def run_mwis_solver(
    scale: Optional[float] = None, seed: Optional[int] = None
) -> AblationResult:
    """Compare MWIS greedies and sweep the successor cap.

    Expected story: weighted greedies (GWMIN/GWMIN2) beat the unweighted
    min-degree rule, and a small cap already captures almost all of the
    achievable saving.
    """
    scale, seed = common.knobs(scale, seed)
    requests, catalog, disks = common.get_binding("cello", 3, 1.0, scale, seed)
    config = common.make_config(disks, seed)
    problem = SchedulingProblem.build(requests, catalog, config.profile, disks)
    evaluator = OfflineEvaluator(problem)

    weights: List[float] = []
    true_savings: List[float] = []
    energies: List[float] = []
    for method in MWIS_METHODS:
        scheduler = MWISOfflineScheduler(method=method, neighborhood=4)
        result = scheduler.schedule_detailed(problem)
        evaluation = evaluator.evaluate(result.assignment)
        weights.append(result.estimated_saving)
        true_savings.append(evaluation.total_saving)
        energies.append(evaluation.normalized_energy)

    cap_savings: List[float] = []
    cap_nodes: List[float] = []
    for cap in MWIS_CAPS:
        scheduler = MWISOfflineScheduler(method="gwmin", neighborhood=cap)
        result = scheduler.schedule_detailed(problem)
        evaluation = evaluator.evaluate(result.assignment)
        cap_savings.append(evaluation.total_saving)
        cap_nodes.append(float(result.num_nodes))

    return AblationResult(
        ablation_id="ablation_mwis_solver",
        title="MWIS solver and successor cap (cello, rf=3)",
        panels=[
            Panel(
                name="ablation: MWIS solver (cello, rf=3, cap=4)",
                x_label="solver",
                x_values=MWIS_METHODS,
                series={
                    "MWIS weight": weights,
                    "true saving": true_savings,
                    "energy vs always-on": energies,
                },
            ),
            Panel(
                name="ablation: successor cap (gwmin)",
                x_label="cap",
                x_values=MWIS_CAPS,
                series={"true saving (J)": cap_savings, "graph nodes": cap_nodes},
                precision=0,
            ),
        ],
    )


# ---------------------------------------------------------------------------
# ablation_burstiness — arrival burstiness (Appendix A.4)


def run_burstiness() -> AblationResult:
    """Isolate burstiness: three arrival models at one mean rate.

    The paper attributes the Cello-vs-Financial1 response-time gap
    entirely to burstiness; this sweep varies only the arrival process.
    The Cello-like MMPP, its data population and its request count come
    from the campaign's Cello configuration at ``scale``; Poisson and
    Pareto arrivals run at the MMPP's own mean rate.
    """
    scale, seed = common.knobs()
    cello = CelloLikeConfig().scaled(scale)
    mmpp = cello.arrivals()
    processes = (
        ("mmpp (cello-like)", mmpp),
        ("poisson (financial-like)", PoissonArrivals(mmpp.mean_rate)),
        ("pareto (heavy tail)", ParetoArrivals(mmpp.mean_rate, shape=1.6)),
    )
    popularity = ZipfPopularity(cello.num_data, cello.popularity_exponent)
    disks = common.num_disks_for(scale)
    config = common.make_config(disks, seed)
    labels: List[str] = []
    cvs: List[float] = []
    energies: List[float] = []
    responses: List[float] = []
    p90s: List[float] = []
    events = 0
    for label, process in processes:
        rng = random.Random(seed)
        times = process.generate(cello.num_requests, rng)
        records = [
            TraceRecord(time=t, data_key=popularity.sample(rng)) for t in times
        ]
        requests, catalog = Workload(records).bind(
            ZipfOriginalUniformReplicas(replication_factor=3),
            num_disks=disks,
            seed=seed + 7,
        )
        baseline = always_on_baseline(requests, catalog, config)
        report = simulate(requests, catalog, HeuristicScheduler(), config)
        events += baseline.events_processed + report.events_processed
        labels.append(label)
        cvs.append(coefficient_of_variation(inter_arrival_gaps(times)))
        energies.append(report.total_energy / baseline.total_energy)
        responses.append(report.mean_response_time)
        p90s.append(report.response_percentile(0.9))
    return AblationResult(
        ablation_id="ablation_burstiness",
        title="arrival burstiness (Heuristic, rf=3, same rate)",
        panels=[
            Panel(
                name="ablation: arrival burstiness (Heuristic, rf=3, same rate)",
                x_label="arrivals",
                x_values=labels,
                series={
                    "CV": cvs,
                    "energy vs always-on": energies,
                    "mean response (s)": responses,
                    "p90 response (s)": p90s,
                },
            )
        ],
        events_processed=events,
    )


# ---------------------------------------------------------------------------
# ablation_idle_periods — inactivity-period reshaping (problem (b))


IDLE_SCHEDULERS = ("random", "static", "heuristic", "wsc")


def run_idle_periods() -> AblationResult:
    """Measure the standby-period distribution per scheduler.

    Energy-aware scheduling re-shapes the workload: few disks absorb the
    traffic, the rest accumulate long standby periods — the paper's
    Section 1 problem (b), measured from recorded transition logs.
    """
    scale, seed = common.knobs()
    requests, catalog, disks = common.get_binding("cello", 3, 1.0, scale, seed)
    config = replace(common.make_config(disks, seed), record_transitions=True)
    counts: List[float] = []
    means: List[float] = []
    longests: List[float] = []
    totals: List[float] = []
    events = 0
    for key in IDLE_SCHEDULERS:
        scheduler = common.make_scheduler_for_key(key)
        report = simulate(requests, catalog, scheduler, config)
        events += report.events_processed
        summary = period_summary(standby_periods_of_report(report))
        counts.append(float(summary.count))
        means.append(summary.mean)
        longests.append(summary.longest)
        totals.append(summary.total)
    return AblationResult(
        ablation_id="ablation_idle_periods",
        title="standby-period reshaping (cello, rf=3)",
        panels=[
            Panel(
                name="ablation: standby-period reshaping (cello, rf=3)",
                x_label="scheduler",
                x_values=list(IDLE_SCHEDULERS),
                series={
                    "standby periods": counts,
                    "mean (s)": means,
                    "longest (s)": longests,
                    "total standby (s)": totals,
                },
                precision=0,
            )
        ],
        events_processed=events,
    )


# ---------------------------------------------------------------------------
# ablation_extensions — the paper-suggested extensions


def run_extensions() -> AblationResult:
    """Prediction, write off-loading and covering-subset scheduling.

    Three ideas the paper sketches but does not evaluate: the
    EWMA-discounted cost function vs the plain Heuristic (reads), a
    70%-write workload with and without off-loading, and concentrating
    reads on a minimal covering group of disks.
    """
    scale, seed = common.knobs()
    requests, catalog, disks = common.get_binding("cello", 3, 1.0, scale, seed)
    config = common.make_config(disks, seed)
    baseline = always_on_baseline(requests, catalog, config)
    events = baseline.events_processed
    read_labels: List[str] = []
    read_energies: List[float] = []
    read_responses: List[float] = []
    for scheduler in (
        HeuristicScheduler(),
        PredictiveHeuristicScheduler(),
        CoveringSetScheduler(catalog),
    ):
        report = simulate(requests, catalog, scheduler, config)
        events += report.events_processed
        read_labels.append(scheduler.name)
        read_energies.append(report.total_energy / baseline.total_energy)
        read_responses.append(report.mean_response_time)

    write_trace = generate_cello_like(
        replace(CelloLikeConfig(), read_fraction=0.3).scaled(scale), seed=seed + 1
    )
    wrequests, wcatalog = Workload(write_trace, include_writes=True).bind(
        ZipfOriginalUniformReplicas(replication_factor=3),
        num_disks=disks,
        seed=seed + 7,
    )
    wbaseline = always_on_baseline(wrequests, wcatalog, config)
    events += wbaseline.events_processed
    offloader = WriteOffloadingScheduler(HeuristicScheduler())
    write_labels: List[str] = []
    write_energies: List[float] = []
    write_responses: List[float] = []
    for scheduler in (HeuristicScheduler(), offloader):
        report = simulate(wrequests, wcatalog, scheduler, config)
        events += report.events_processed
        write_labels.append(scheduler.name)
        write_energies.append(report.total_energy / wbaseline.total_energy)
        write_responses.append(report.mean_response_time)

    return AblationResult(
        ablation_id="ablation_extensions",
        title="paper-suggested extensions (cello, rf=3)",
        panels=[
            Panel(
                name="ablation: extensions, read workload (cello, rf=3)",
                x_label="scheduler",
                x_values=read_labels,
                series={
                    "energy vs always-on": read_energies,
                    "mean response (s)": read_responses,
                },
            ),
            Panel(
                name="ablation: extensions, 70% writes (cello, rf=3)",
                x_label="scheduler",
                x_values=write_labels,
                series={
                    "energy vs always-on": write_energies,
                    "mean response (s)": write_responses,
                    # The plain Heuristic diverts no write.
                    "writes off-loaded": [0.0, float(offloader.total_offloaded)],
                },
            ),
        ],
        events_processed=events,
    )


#: Registry consumed by the bench CLI (`repro-storage bench ablation_*`).
ABLATIONS: Dict[str, Callable[[], AblationResult]] = {
    "ablation_threshold": run_threshold,
    "ablation_batch_interval": run_batch_interval,
    "ablation_cache": run_cache,
    "ablation_mwis_solver": run_mwis_solver,
    "ablation_burstiness": run_burstiness,
    "ablation_idle_periods": run_idle_periods,
    "ablation_extensions": run_extensions,
}
