"""repro — Energy-aware scheduling in replicated disk storage systems.

A full reproduction of *"Exploiting Replication for Energy-Aware
Scheduling in Disk Storage Systems"* (Chou, Kim, Rotem — ICDCS 2011):
the three energy-aware schedulers (online Heuristic, batch Weighted Set
Cover, offline Maximum Weighted Independent Set), the baselines, and the
entire substrate they need — a discrete-event storage simulator, a
five-state disk power model with 2-competitive power management, Zipf
placement with uniform replicas, and bursty/OLTP synthetic traces
standing in for Cello and Financial1.

Quickstart::

    from repro import (
        CelloLikeConfig, HeuristicScheduler, SimulationConfig,
        Workload, ZipfOriginalUniformReplicas,
        generate_cello_like, simulate, always_on_baseline,
    )

    workload = Workload(generate_cello_like(CelloLikeConfig().scaled(0.1)))
    requests, catalog = workload.bind(
        ZipfOriginalUniformReplicas(replication_factor=3), num_disks=18
    )
    config = SimulationConfig(num_disks=18)
    report = simulate(requests, catalog, HeuristicScheduler(), config)
    baseline = always_on_baseline(requests, catalog, config)
    print(report.normalized_energy(baseline.total_energy))
"""

from repro.core import (
    CostFunction,
    HeuristicScheduler,
    MWISOfflineScheduler,
    OfflineEvaluator,
    RandomScheduler,
    SchedulingProblem,
    StaticScheduler,
    WSCBatchScheduler,
)
from repro.disk import AnalyticServiceModel, ConstantServiceModel, SimulatedDisk
from repro.errors import ReproError
from repro.placement import (
    PlacementCatalog,
    UniformPlacement,
    ZipfOriginalUniformReplicas,
)
from repro.power import (
    BARRACUDA,
    PAPER_UNIT,
    AlwaysOnPolicy,
    DiskPowerProfile,
    DiskPowerState,
    TwoCompetitivePolicy,
)
from repro.sim import (
    SimulationConfig,
    SimulationReport,
    always_on_baseline,
    run_offline,
    simulate,
)
from repro.traces import (
    CelloLikeConfig,
    FinancialLikeConfig,
    Workload,
    generate_cello_like,
    generate_financial_like,
)
from repro.types import Assignment, Request

__version__ = "1.0.0"

__all__ = [
    "AlwaysOnPolicy",
    "AnalyticServiceModel",
    "Assignment",
    "BARRACUDA",
    "CelloLikeConfig",
    "ConstantServiceModel",
    "CostFunction",
    "DiskPowerProfile",
    "DiskPowerState",
    "FinancialLikeConfig",
    "HeuristicScheduler",
    "MWISOfflineScheduler",
    "OfflineEvaluator",
    "PAPER_UNIT",
    "PlacementCatalog",
    "RandomScheduler",
    "ReproError",
    "Request",
    "SchedulingProblem",
    "SimulatedDisk",
    "SimulationConfig",
    "SimulationReport",
    "StaticScheduler",
    "TwoCompetitivePolicy",
    "UniformPlacement",
    "WSCBatchScheduler",
    "Workload",
    "ZipfOriginalUniformReplicas",
    "always_on_baseline",
    "generate_cello_like",
    "generate_financial_like",
    "run_offline",
    "simulate",
    "__version__",
]
