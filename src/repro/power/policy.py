"""Disk power-management policies.

A :class:`PowerPolicy` decides *when a disk that has just gone idle should
spin down*. The simulator asks the policy once per idle transition; the
policy answers with the number of seconds of idleness to tolerate before
starting a spin-down, or ``None`` to keep the disk spinning indefinitely.

The paper's experiments use :class:`TwoCompetitivePolicy` (2CPM — threshold
equal to the breakeven time) and normalise energy against
:class:`AlwaysOnPolicy`. :class:`ScaledBreakevenPolicy` generalises 2CPM
to thresholds at any multiple of ``TB`` for ablations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.errors import ConfigurationError
from repro.power.profile import DiskPowerProfile


class PowerPolicy(ABC):
    """Strategy deciding the idleness threshold of each disk."""

    @abstractmethod
    def idle_timeout(self, profile: DiskPowerProfile) -> Optional[float]:
        """Seconds of idleness before spin-down; ``None`` = never spin down."""

    @property
    def name(self) -> str:
        return type(self).__name__


class TwoCompetitivePolicy(PowerPolicy):
    """2CPM: spin down after exactly the breakeven time ``TB``.

    This is the 2-competitive deterministic policy the paper builds on —
    its energy never exceeds twice the offline optimum for any arrival
    sequence (Irani et al.).
    """

    def idle_timeout(self, profile: DiskPowerProfile) -> Optional[float]:
        return profile.breakeven_time

    @property
    def name(self) -> str:
        return "2CPM"


class AlwaysOnPolicy(PowerPolicy):
    """Never spin down. The paper's normalisation baseline."""

    def idle_timeout(self, profile: DiskPowerProfile) -> Optional[float]:
        return None

    @property
    def name(self) -> str:
        return "always-on"


class ScaledBreakevenPolicy(PowerPolicy):
    """Spin down after ``factor * TB`` — used by threshold ablations."""

    def __init__(self, factor: float):
        if factor < 0:
            raise ConfigurationError(f"factor must be >= 0, got {factor}")
        self._factor = factor

    @property
    def factor(self) -> float:
        return self._factor

    def idle_timeout(self, profile: DiskPowerProfile) -> Optional[float]:
        return self._factor * profile.breakeven_time

    @property
    def name(self) -> str:
        return f"scaled-breakeven({self._factor:g}x)"
