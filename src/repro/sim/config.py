"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cache.policy import BlockCache
from repro.disk.service import AnalyticServiceModel, ServiceTimeModel
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.power.policy import PowerPolicy, TwoCompetitivePolicy
from repro.power.profile import BARRACUDA, DiskPowerProfile
from repro.power.states import DiskPowerState
from repro.tape.config import TierConfig


@dataclass(frozen=True)
class SimulationConfig:
    """Everything about a run except the workload and the scheduler.

    Attributes:
        num_disks: ``|D|`` — the paper uses 180.
        profile: Disk power model (paper: Barracuda-like numbers).
        policy: Power-management policy (paper: 2CPM).
        service_model: Per-request I/O time model (paper: Disksim; here
            the analytic seek+rotate+transfer model). One instance is
            shared by all disks, so it must be stateless; each disk draws
            from its own RNG.
        seed: Seed for service-time draws (per-disk RNGs derive from it).
        horizon: Fixed end-of-simulation time. ``None`` derives
            ``last arrival + TB + Tup + Tdown + drain slack`` so different
            schedulers of one experiment share a horizon and their
            energies are directly comparable.
        drain_slack: Extra seconds appended to the derived horizon.
        initial_state: STANDBY (paper's assumption) or IDLE.
        cache_factory: Optional block-cache constructor (one fresh cache
            per run); see :mod:`repro.cache`. ``None`` = no cache, the
            paper's configuration.
        record_transitions: Keep per-disk ``(time, state)`` transition
            logs (memory-proportional to spin activity) for the
            state-period analyses.
        fault_plan: Optional fault-injection plan (see
            :mod:`repro.faults`). ``None`` — or a plan with no fault
            source, e.g. ``FaultPlan.none()`` — runs the exact pre-fault
            code path and produces byte-identical reports.
        tier: Optional cold-tier configuration (see
            :class:`~repro.tape.config.TierConfig`). ``None`` — the
            default — runs the exact disk-only code path and produces
            byte-identical reports; attaching one routes cold data ids
            to tape via
            :class:`~repro.tape.tier.TieredStorageSystem`.
    """

    num_disks: int
    profile: DiskPowerProfile = BARRACUDA
    policy: PowerPolicy = field(default_factory=TwoCompetitivePolicy)
    service_model: ServiceTimeModel = field(default_factory=AnalyticServiceModel)
    seed: int = 0
    horizon: Optional[float] = None
    drain_slack: float = 30.0
    initial_state: DiskPowerState = DiskPowerState.STANDBY
    cache_factory: Optional[Callable[[], BlockCache]] = None
    record_transitions: bool = False
    fault_plan: Optional[FaultPlan] = None
    tier: Optional[TierConfig] = None

    def __post_init__(self) -> None:
        if self.num_disks <= 0:
            raise ConfigurationError("num_disks must be positive")
        if self.horizon is not None and self.horizon < 0:
            raise ConfigurationError("horizon must be >= 0")
        if self.drain_slack < 0:
            raise ConfigurationError("drain_slack must be >= 0")

    def derived_horizon(self, last_arrival: float) -> float:
        """The horizon used when none is pinned explicitly."""
        if self.horizon is not None:
            return self.horizon
        return (
            last_arrival
            + self.profile.breakeven_time
            + self.profile.transition_time
            + self.drain_slack
        )
