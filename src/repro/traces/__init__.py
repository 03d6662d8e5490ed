"""Traces: synthetic generators, real-format parsers, workload binding."""

from repro.traces.cello import CelloLikeConfig, generate_cello_like, parse_hp_cello
from repro.traces.financial import (
    FinancialLikeConfig,
    generate_financial_like,
    parse_spc,
)
from repro.traces.record import TraceRecord
from repro.traces.synthetic import (
    ArrivalProcess,
    MMPPArrivals,
    ParetoArrivals,
    PoissonArrivals,
    ZipfPopularity,
    coefficient_of_variation,
    inter_arrival_gaps,
)
from repro.traces.workload import Workload, WorkloadStats

__all__ = [
    "ArrivalProcess",
    "CelloLikeConfig",
    "FinancialLikeConfig",
    "MMPPArrivals",
    "ParetoArrivals",
    "PoissonArrivals",
    "TraceRecord",
    "Workload",
    "WorkloadStats",
    "ZipfPopularity",
    "coefficient_of_variation",
    "generate_cello_like",
    "generate_financial_like",
    "inter_arrival_gaps",
    "parse_hp_cello",
    "parse_spc",
]
