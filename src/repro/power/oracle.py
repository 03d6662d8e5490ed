"""Offline-optimal per-disk power management (the 2CPM yardstick).

2CPM is *2-competitive*: for any request sequence its energy is at most
twice what an omniscient policy would spend (Irani et al., cited in
Section 1). Both energies here are the analytic timeline of
:mod:`repro.power.timeline` over one disk's arrival chain, under the
omniscient and the pre-spun gap rule, so experiments can measure the
empirical competitive ratio of 2CPM on real schedules, not just the
worst-case bound. Used by ``benchmarks/bench_ablation_threshold.py``.
"""

from __future__ import annotations

from typing import Sequence

from repro.power.profile import DiskPowerProfile
from repro.power.timeline import GapRule, disk_timeline


def oracle_energy(
    profile: DiskPowerProfile, arrival_times: Sequence[float], horizon: float
) -> float:
    """Omniscient energy in joules for one disk given its sorted arrival
    seconds, over ``[0, horizon]`` seconds (service energy excluded — it
    is schedule-invariant): each gap is slept through at once iff that
    costs no more than idling it out."""
    return disk_timeline(
        profile, arrival_times, horizon, GapRule.OMNISCIENT
    ).energy


def two_cpm_energy(
    profile: DiskPowerProfile, arrival_times: Sequence[float], horizon: float
) -> float:
    """2CPM energy in joules for the same chain of arrival seconds under
    the paper's offline model (Lemma 1): the disk idles ``TB`` and then sleeps iff a full spin
    cycle still fits, spinning up in advance of the next request.

    This is not the simulator's reactive 2CPM, which spins down at ``TB``
    whatever comes next and makes the next request wait for the spin-up.
    """
    return disk_timeline(profile, arrival_times, horizon, GapRule.PRE_SPUN).energy


def empirical_competitive_ratio(
    profile: DiskPowerProfile,
    chains: Sequence[Sequence[float]],
    horizon: float,
) -> float:
    """2CPM-vs-oracle energy ratio aggregated over many disk chains.

    The theoretical guarantee is ratio <= 2 for zero standby power and
    chains whose first arrival leaves room for a full spin-up (a lead-in
    cut short at t=0 no longer pays for the tail's spin-down); on
    realistic traces the measured ratio is usually far lower because most
    gaps are either clearly short or clearly long.
    """
    online = 0.0
    offline = 0.0
    for chain in chains:
        online += two_cpm_energy(profile, chain, horizon)
        offline += oracle_energy(profile, chain, horizon)
    if offline == 0:
        return 1.0
    return online / offline
