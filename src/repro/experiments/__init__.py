"""Experiment harness reproducing every figure of the paper's evaluation."""

from repro.experiments.ablations import ABLATIONS, AblationResult
from repro.experiments.common import (
    REPLICATION_FACTORS,
    SCHEDULER_LABELS,
    RunResult,
    clear_caches,
    configure,
    get_baseline,
    get_binding,
    get_workload,
    run_cell,
)
from repro.experiments.figures import (
    FIGURES,
    BreakdownResult,
    FigureResult,
    run_figure,
)
from repro.experiments.headline import HeadlineClaims, headline_claims

__all__ = [
    "ABLATIONS",
    "AblationResult",
    "BreakdownResult",
    "FIGURES",
    "FigureResult",
    "HeadlineClaims",
    "REPLICATION_FACTORS",
    "RunResult",
    "SCHEDULER_LABELS",
    "clear_caches",
    "configure",
    "get_baseline",
    "get_binding",
    "get_workload",
    "headline_claims",
    "run_cell",
    "run_figure",
]
