"""Breakeven-time analysis for fixed-threshold power management.

The 2-competitive power management scheme (2CPM, Irani et al.) spins a disk
down after an idle period of exactly the breakeven time
``TB = Eup/down / P_I``. This module provides the supporting math:

* :func:`breakeven_time` — the classic threshold.
* :func:`breakeven_time_with_standby` — a refinement that accounts for
  non-zero standby power (the classic formula assumes standby draws 0 W).
* :func:`competitive_ratio_bound` — the worst-case ratio against the
  offline-optimal policy, which is at most 2 for the classic threshold.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.power.profile import DiskPowerProfile


def breakeven_time(transition_energy: float, idle_power: float) -> float:
    """Classic breakeven threshold ``TB = Eup/down / P_I`` in seconds.

    ``transition_energy`` (``Eup + Edown``) is in joules and ``idle_power``
    (``P_I``) in watts. An idle interval shorter than ``TB`` is cheaper to
    ride out spinning; a longer one is cheaper to sleep through (ignoring
    standby power).
    """
    if idle_power <= 0:
        raise ConfigurationError("idle power must be positive")
    if transition_energy < 0:
        raise ConfigurationError("transition energy must be >= 0")
    return transition_energy / idle_power


def breakeven_time_with_standby(
    transition_energy: float,
    idle_power: float,
    standby_power: float,
    transition_time: float = 0.0,
) -> float:
    """Breakeven threshold (seconds) accounting for non-zero standby power.

    ``transition_energy`` is joules; the powers are watts;
    ``transition_time`` (``Tup + Tdown``) is seconds. Sleeping through an
    interval of length ``t`` costs
    ``Eup/down + (t - Tup - Tdown) * P_standby``; staying idle costs
    ``t * P_I``. The breakeven point solves for equality.
    """
    if idle_power <= standby_power:
        raise ConfigurationError(
            "idle power must exceed standby power for spin-down to ever pay off"
        )
    numerator = transition_energy - standby_power * transition_time
    return max(0.0, numerator) / (idle_power - standby_power)


def competitive_ratio_bound(profile: DiskPowerProfile) -> float:
    """Worst-case 2CPM-vs-optimal ratio for a single idle interval.

    With zero standby power the classic bound is exactly 2, achieved by an
    adversarial gap of exactly ``TB``: 2CPM pays ``TB*P_I + Eup/down`` where
    the optimum pays ``min(TB*P_I, Eup/down)``. Non-zero standby power and
    the override threshold shift the bound; this evaluates it directly.
    """
    threshold = profile.breakeven_time
    worst_gap = threshold + profile.transition_time
    online = (
        threshold * profile.idle_power
        + profile.transition_energy
    )
    offline_optimal = min(
        worst_gap * profile.idle_power,
        profile.transition_energy
        + (worst_gap - profile.transition_time) * profile.standby_power,
    )
    if offline_optimal == 0:
        return 1.0
    return online / offline_optimal
