"""Event-driven storage simulation (OMNeT++/Disksim substitute)."""

from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.report import MetricsCollector, SimulationReport, percentile
from repro.sim.runner import always_on_baseline, run_offline, simulate
from repro.sim.storage import StorageSystem

__all__ = [
    "MetricsCollector",
    "SimulationConfig",
    "SimulationEngine",
    "SimulationReport",
    "StorageSystem",
    "always_on_baseline",
    "percentile",
    "run_offline",
    "simulate",
]
