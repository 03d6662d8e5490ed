"""The analytic per-disk timeline: one walk over a known request chain.

The paper prices a schedule by walking each disk's request chain gap by
gap under a fixed-threshold power manager (Lemma 1, Eq. 3), and judges
2CPM against an omniscient policy (Irani et al.). :func:`fill_timeline`
is that walk: a disk's sorted arrival times, a horizon and a
:class:`GapRule` fill a :class:`~repro.power.ledger.StateLedger` with
state times and spin counts. Service takes no time here. Every rule
shares the chain's ends: the lead-in spins up to end exactly at the first
arrival (cut short at t=0), and the tail idles the rule's threshold,
spins down and sleeps to the horizon, never spinning up again.

Both rules know when the next request comes, so the disk spins up in
advance and no request waits. That is the paper's offline model, not the
simulator's reactive 2CPM: ``disk/drive.py`` spins down after ``TB`` of
idleness whatever comes next, and a request that finds the disk asleep
waits for the spin-up.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

from repro.errors import ConfigurationError
from repro.power.breakeven import breakeven_time_with_standby
from repro.power.ledger import StateLedger
from repro.power.profile import DiskPowerProfile
from repro.power.states import DiskPowerState

_STANDBY = DiskPowerState.STANDBY
_SPIN_UP = DiskPowerState.SPIN_UP
_IDLE = DiskPowerState.IDLE
_SPIN_DOWN = DiskPowerState.SPIN_DOWN


class GapRule(Enum):
    """How a disk that knows its next arrival rides out an idle gap.

    A rule is two numbers of the profile: the idle seconds before a
    spin-down (:meth:`threshold`) and the shortest gap it sleeps through
    (:meth:`window`). A shorter gap is idled out.
    """

    #: Lemma 1, the offline model of Section 2.2: idle ``TB``, then sleep
    #: iff a full spin cycle still fits (``gap >= TB + Tup + Tdown``).
    PRE_SPUN = "pre-spun"
    #: The omniscient yardstick of 2CPM: sleep at once iff a full spin
    #: cycle fits and sleeping costs no more than idling the gap out.
    OMNISCIENT = "omniscient"

    def threshold(self, profile: DiskPowerProfile) -> float:
        """Idle seconds before a spin-down (in a gap and in the tail)."""
        return profile.breakeven_time if self is GapRule.PRE_SPUN else 0.0

    def window(self, profile: DiskPowerProfile) -> float:
        """Shortest gap, in seconds, the disk sleeps through."""
        if self is GapRule.PRE_SPUN:
            return profile.breakeven_time + profile.transition_time
        if profile.idle_power <= profile.standby_power:
            return math.inf
        return max(
            profile.transition_time,
            breakeven_time_with_standby(
                profile.transition_energy,
                profile.idle_power,
                profile.standby_power,
                profile.transition_time,
            ),
        )


def fill_timeline(
    ledger: StateLedger[DiskPowerState],
    profile: DiskPowerProfile,
    arrival_times: Sequence[float],
    horizon: float,
    rule: GapRule,
) -> None:
    """Credit one disk's timeline over ``[0, horizon]`` seconds to
    ``ledger`` (fresh) and close it.

    A chain with no arrivals sleeps throughout. The state-time sums are
    float-for-float those the offline evaluator has always produced, so
    its reports and digests do not move.

    Raises:
        ConfigurationError: if the arrival times are not sorted or the
            horizon precedes the last arrival.
    """
    state_time = ledger.state_time
    if not arrival_times:
        state_time[_STANDBY] += horizon
        ledger.mark_closed()
        return
    last = arrival_times[-1]
    if horizon < last:
        raise ConfigurationError("horizon precedes the last arrival")
    threshold = rule.threshold(profile)
    window = rule.window(profile)
    spin_up = profile.spin_up_time
    spin_down = profile.spin_down_time
    transition = profile.transition_time

    first = arrival_times[0]
    lead = min(spin_up, first)
    state_time[_STANDBY] += first - lead
    state_time[_SPIN_UP] += lead
    cycles = 0
    for current, successor in zip(arrival_times, arrival_times[1:]):
        gap = successor - current
        if gap < window:
            if gap < 0:
                raise ConfigurationError("arrival times must be sorted")
            state_time[_IDLE] += gap
        else:
            state_time[_IDLE] += threshold
            state_time[_SPIN_DOWN] += spin_down
            # Clamped: float noise can push the remainder just below 0.
            state_time[_STANDBY] += max(0.0, gap - threshold - transition)
            state_time[_SPIN_UP] += spin_up
            cycles += 1

    state_time[_IDLE] += threshold
    state_time[_SPIN_DOWN] += spin_down
    state_time[_STANDBY] += max(0.0, horizon - (last + threshold + spin_down))
    ledger.ups += 1 + cycles
    ledger.downs += 1 + cycles
    ledger.requests_serviced += len(arrival_times)
    ledger.mark_closed()


def disk_timeline(
    profile: DiskPowerProfile,
    arrival_times: Sequence[float],
    horizon: float,
    rule: GapRule,
) -> StateLedger[DiskPowerState]:
    """A fresh disk ledger filled by :func:`fill_timeline` (arrival times
    and horizon in seconds)."""
    ledger = StateLedger(
        profile, DiskPowerState, (_SPIN_UP, _SPIN_DOWN), _STANDBY
    )
    fill_timeline(ledger, profile, arrival_times, horizon, rule)
    return ledger


__all__ = ["GapRule", "disk_timeline", "fill_timeline"]
