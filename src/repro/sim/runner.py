"""High-level entry points: run one scheduler over one workload.

* :func:`simulate` — event-driven run for online/batch schedulers.
* :func:`run_offline` — MWIS-style offline scheduling + analytic
  evaluation under the offline model (no spin-up delays).
* :func:`always_on_baseline` — the paper's normalisation run: disks start
  spinning and never spin down.

All three share the same derived horizon for a given workload, so their
energies are directly comparable (the paper's "normalized to the
always-on config" axis).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from typing import TYPE_CHECKING

from repro.core.problem import SchedulingProblem
from repro.core.scheduler import OfflineScheduler, Scheduler
from repro.core.static_scheduler import StaticScheduler
from repro.errors import SchedulingError
from repro.placement.catalog import PlacementCatalog
from repro.power.policy import AlwaysOnPolicy
from repro.power.states import DiskPowerState
from repro.sim.config import SimulationConfig
from repro.report import SimulationReport
from repro.sim.storage import StorageSystem
from repro.types import Request

if TYPE_CHECKING:
    from repro.core.offline import OfflineEvaluation


def simulate(
    requests: Sequence[Request],
    catalog: PlacementCatalog,
    scheduler: Scheduler,
    config: SimulationConfig,
) -> SimulationReport:
    """Run an online or batch scheduler through the event simulator."""
    if isinstance(scheduler, OfflineScheduler):
        return run_offline(requests, catalog, scheduler, config).report
    if config.tier is not None:
        # Imported lazily: the tiered system extends StorageSystem, so
        # repro.tape.tier imports this package back.
        from repro.tape.tier import TieredStorageSystem

        return TieredStorageSystem(catalog, scheduler, config).run(requests)
    system = StorageSystem(catalog, scheduler, config)
    return system.run(requests)


def run_offline(
    requests: Sequence[Request],
    catalog: PlacementCatalog,
    scheduler: OfflineScheduler,
    config: SimulationConfig,
) -> "OfflineEvaluation":
    """Schedule with a-priori knowledge and evaluate analytically."""
    # Imported lazily: repro.core.offline itself (transitively) imports this
    # module during package initialisation.
    from repro.core.offline import OfflineEvaluator

    if not isinstance(scheduler, OfflineScheduler):
        raise SchedulingError("run_offline requires an OfflineScheduler")
    problem = SchedulingProblem.build(
        requests=requests,
        catalog=catalog,
        profile=config.profile,
        num_disks=config.num_disks,
    )
    assignment = scheduler.schedule(problem)
    return OfflineEvaluator(problem).evaluate(assignment, scheduler.name)


def always_on_baseline(
    requests: Sequence[Request],
    catalog: PlacementCatalog,
    config: SimulationConfig,
    scheduler: Optional[Scheduler] = None,
) -> SimulationReport:
    """The always-on power configuration over the same workload.

    Disks start IDLE and never spin down; scheduling barely affects the
    result (energy is dominated by ``num_disks * horizon * P_I``), and the
    default Static scheduler keeps it deterministic.
    """
    baseline_config = replace(
        config,
        policy=AlwaysOnPolicy(),
        initial_state=DiskPowerState.IDLE,
    )
    if scheduler is None:
        scheduler = StaticScheduler()
    if isinstance(scheduler, OfflineScheduler):
        raise SchedulingError("always-on baseline needs an online/batch scheduler")
    system = StorageSystem(catalog, scheduler, baseline_config)
    report = system.run(requests)
    return SimulationReport(
        scheduler_name="always-on",
        duration=report.duration,
        total_energy=report.total_energy,
        disk_stats=report.disk_stats,
        response_times=report.response_times,
        requests_offered=report.requests_offered,
        requests_completed=report.requests_completed,
        events_processed=report.events_processed,
    )
