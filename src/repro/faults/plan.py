"""Fault plans: the seeded, declarative description of what breaks.

A :class:`FaultPlan` is to failures what
:class:`~repro.sim.config.SimulationConfig` is to the disk model: a
frozen value object naming *everything* that determines the failure
behaviour of a run and nothing else.  The same plan and the same seed
always produce the same faults on every disk, across serial,
process-pool and cache-replayed executions: each disk's faults are
drawn from its own seeded streams (:mod:`repro.faults.schedule`) as
the run reaches them, so a plan needs no run horizon.

Three stochastic failure models (each optional, freely combined):

* :class:`PermanentFaults` — disk death with Weibull-distributed time to
  failure (shape 1.0 = the classic exponential/constant-hazard model).
* :class:`TransientFaults` — an alternating-renewal outage process:
  exponentially distributed up-times and repair times (controller
  resets, cable pulls, firmware hangs).
* :class:`SpinUpFaults` — each spin-up attempt fails with fixed
  probability; after a bounded number of consecutive failed retries the
  disk is declared permanently dead (a disk that will not spin is a
  brick).

Plus :class:`ScriptedFault` entries for deterministic fault drills:
"disk 3 dies at t=120 s" — the tool for regression tests and incident
reproduction.

``FaultPlan.none()`` is the zero overlay: no injector is created, no
events are scheduled, no RNG stream is consumed, and every simulation
result is byte-identical to a run without any plan at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.types import DiskId


@dataclass(frozen=True)
class PermanentFaults:
    """Weibull-distributed permanent disk death.

    Attributes:
        mttf_s: Mean time to failure in simulated seconds.
        weibull_shape: Weibull shape parameter ``k``; 1.0 gives the
            exponential distribution (constant hazard), > 1 models
            wear-out (hazard grows with age).
    """

    mttf_s: float
    weibull_shape: float = 1.0

    def __post_init__(self) -> None:
        if self.mttf_s <= 0:
            raise ConfigurationError(f"mttf_s must be > 0, got {self.mttf_s}")
        if self.weibull_shape <= 0:
            raise ConfigurationError(
                f"weibull_shape must be > 0, got {self.weibull_shape}"
            )


@dataclass(frozen=True)
class TransientFaults:
    """Alternating-renewal transient outages (down, then repaired).

    Attributes:
        mtbf_s: Mean up-time between outages in simulated seconds
            (exponentially distributed).
        mean_repair_s: Mean outage duration in simulated seconds
            (exponentially distributed).
    """

    mtbf_s: float
    mean_repair_s: float

    def __post_init__(self) -> None:
        if self.mtbf_s <= 0:
            raise ConfigurationError(f"mtbf_s must be > 0, got {self.mtbf_s}")
        if self.mean_repair_s <= 0:
            raise ConfigurationError(
                f"mean_repair_s must be > 0, got {self.mean_repair_s}"
            )


@dataclass(frozen=True)
class SpinUpFaults:
    """Probabilistic spin-up failure with bounded retry.

    Attributes:
        probability: Per-attempt failure probability in [0, 1].
        max_retries: Consecutive failed attempts tolerated; when the
            streak *exceeds* this bound the disk is declared permanently
            failed (with ``max_retries=2``, the third consecutive failure
            kills the disk).
    """

    probability: float
    max_retries: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


@dataclass(frozen=True)
class ScriptedFault:
    """One hand-scheduled fault: deterministic drills and regressions.

    Attributes:
        disk_id: The disk that fails.
        at_s: Failure instant in simulated seconds.
        repair_after_s: Outage duration in seconds for a transient fault;
            ``None`` makes the failure permanent.
    """

    disk_id: DiskId
    at_s: float
    repair_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigurationError(f"at_s must be >= 0, got {self.at_s}")
        if self.repair_after_s is not None and self.repair_after_s <= 0:
            raise ConfigurationError(
                f"repair_after_s must be > 0, got {self.repair_after_s}"
            )

    @property
    def permanent(self) -> bool:
        """True when the disk never recovers from this fault."""
        return self.repair_after_s is None


@dataclass(frozen=True)
class FaultPlan:
    """Everything that determines the failure behaviour of one run.

    Attributes:
        seed: Fault-stream RNG seed.  Deliberately separate from the
            simulation seed so fault draws never perturb service-time or
            placement streams.
        permanent: Optional permanent-death model.
        transient: Optional transient-outage model.
        spin_up: Optional spin-up failure model.
        scripted: Hand-scheduled faults, applied on top of the models.
    """

    seed: int = 0
    permanent: Optional[PermanentFaults] = None
    transient: Optional[TransientFaults] = None
    spin_up: Optional[SpinUpFaults] = None
    scripted: Tuple[ScriptedFault, ...] = ()

    @classmethod
    def none(cls) -> "FaultPlan":
        """The explicit no-fault plan: a byte-exact zero overlay."""
        return cls()

    @classmethod
    def canonical(cls, failure_rate_per_s: float, seed: int = 0) -> "FaultPlan":
        """The fault-sweep parameterisation: one rate knob.

        Permanent exponential failures at ``failure_rate_per_s`` per disk
        per simulated second (MTTF = 1/rate).  Kept permanent-only so the
        sweep's availability curve is provably monotone in the rate under
        a shared seed (see :mod:`repro.faults.schedule`).
        """
        if failure_rate_per_s <= 0:
            raise ConfigurationError(
                f"failure_rate_per_s must be > 0, got {failure_rate_per_s}"
            )
        return cls(
            seed=seed, permanent=PermanentFaults(mttf_s=1.0 / failure_rate_per_s)
        )

    @property
    def active(self) -> bool:
        """True when any fault source is configured (injector needed)."""
        return (
            self.permanent is not None
            or self.transient is not None
            or self.spin_up is not None
            or bool(self.scripted)
        )

    def key_payload(self) -> Dict[str, Any]:
        """The plan as a plain dict (cache-key / provenance material)."""
        return {
            "seed": self.seed,
            "permanent": None
            if self.permanent is None
            else {
                "mttf_s": self.permanent.mttf_s,
                "weibull_shape": self.permanent.weibull_shape,
            },
            "transient": None
            if self.transient is None
            else {
                "mtbf_s": self.transient.mtbf_s,
                "mean_repair_s": self.transient.mean_repair_s,
            },
            "spin_up": None
            if self.spin_up is None
            else {
                "probability": self.spin_up.probability,
                "max_retries": self.spin_up.max_retries,
            },
            "scripted": [
                {
                    "disk_id": fault.disk_id,
                    "at_s": fault.at_s,
                    "repair_after_s": fault.repair_after_s,
                }
                for fault in self.scripted
            ],
        }
