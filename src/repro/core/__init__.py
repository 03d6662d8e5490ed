"""The paper's contribution: energy-aware schedulers and their math."""

from repro.core.cost import PAPER_COST_FUNCTION, CostFunction, energy_cost
from repro.core.covering_scheduler import CoveringSetScheduler
from repro.core.fleet import FleetCostState
from repro.core.heuristic import HeuristicScheduler
from repro.core.mwis import MWISOfflineScheduler, MWISResult
from repro.core.offline import OfflineEvaluation, OfflineEvaluator, chain_energies
from repro.core.prediction import (
    InterArrivalEstimator,
    PredictiveHeuristicScheduler,
)
from repro.core.problem import SchedulingProblem
from repro.core.random_scheduler import RandomScheduler
from repro.core.saving import (
    SavingTerm,
    gap_energy,
    max_request_energy,
    saving_value,
    saving_window,
)
from repro.core.scheduler import (
    BatchScheduler,
    OfflineScheduler,
    OnlineScheduler,
    Scheduler,
    SystemView,
)
from repro.core.static_scheduler import StaticScheduler
from repro.core.writeoffload import WriteOffloadingScheduler
from repro.core.wsc import PAPER_BATCH_INTERVAL, WSCBatchScheduler

__all__ = [
    "BatchScheduler",
    "CostFunction",
    "CoveringSetScheduler",
    "FleetCostState",
    "HeuristicScheduler",
    "InterArrivalEstimator",
    "MWISOfflineScheduler",
    "MWISResult",
    "OfflineEvaluation",
    "OfflineEvaluator",
    "OfflineScheduler",
    "OnlineScheduler",
    "PAPER_BATCH_INTERVAL",
    "PAPER_COST_FUNCTION",
    "PredictiveHeuristicScheduler",
    "RandomScheduler",
    "SavingTerm",
    "Scheduler",
    "SchedulingProblem",
    "StaticScheduler",
    "SystemView",
    "WSCBatchScheduler",
    "WriteOffloadingScheduler",
    "chain_energies",
    "energy_cost",
    "gap_energy",
    "max_request_energy",
    "saving_value",
    "saving_window",
]
