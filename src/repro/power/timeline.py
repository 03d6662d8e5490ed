"""The analytic per-disk timeline: one walk over a known request chain.

The paper prices a schedule by walking each disk's request chain gap by
gap under a fixed-threshold power manager (Lemma 1, Eq. 3), and judges
2CPM against an omniscient policy (Irani et al.). :func:`fill_timeline`
is that walk: a disk's sorted arrival times, a horizon and a
:class:`GapRule` fill a :class:`~repro.power.ledger.StateLedger` with
state times and spin counts.

Two rules know when the next request comes, so the disk spins up in
advance, no request waits and service takes no time. They share the
chain's ends: the lead-in spins up to end exactly at the first arrival
(cut short at t=0), and the tail idles the rule's threshold, spins down
and sleeps to the horizon, never spinning up again. That is the paper's
offline model.

The third, :attr:`GapRule.REACTIVE`, is the simulator's: FIFO service
with the chain's own service times, a spin-up on the arrival that finds
the disk asleep (after the spin-down it interrupts, which is not
abortable), and a spin-down ``TB`` after the last completion unless an
arrival comes first. Where an arrival and a transition share an
instant, the transition comes first: an arrival at a completion finds
the disk idle, one at the idle timeout finds the spin-down begun. It
is a derivation independent of ``disk/drive.py``, so a simulated disk's
ledger can be checked against it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.power.breakeven import breakeven_time_with_standby
from repro.power.ledger import StateLedger
from repro.power.profile import DiskPowerProfile
from repro.power.states import DiskPowerState

_STANDBY = DiskPowerState.STANDBY
_SPIN_UP = DiskPowerState.SPIN_UP
_IDLE = DiskPowerState.IDLE
_ACTIVE = DiskPowerState.ACTIVE
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
    #: The simulator's reactive 2CPM with FIFO service: idle ``TB`` after
    #: the last completion, then sleep; the next arrival waits for the
    #: spin-up. Its gaps run from a completion, and it sleeps through
    #: one of ``TB`` or more.
    REACTIVE = "reactive"

    def threshold(self, profile: DiskPowerProfile) -> float:
        """Idle seconds before a spin-down (in a gap and in the tail)."""
        if self is GapRule.OMNISCIENT:
            return 0.0
        return profile.breakeven_time

    def window(self, profile: DiskPowerProfile) -> float:
        """Shortest gap, in seconds, the disk sleeps through."""
        if self is GapRule.PRE_SPUN:
            return profile.breakeven_time + profile.transition_time
        if self is GapRule.REACTIVE:
            return profile.breakeven_time
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
    service_times: Optional[Sequence[float]] = None,
) -> List[float]:
    """Credit one disk's timeline over ``[0, horizon]`` seconds to
    ``ledger`` (fresh), close it, and return each request's completion
    instant in chain order (only those at or before the horizon).

    A chain with no arrivals sleeps throughout. Under the two offline
    rules a request completes on arrival, and the state-time sums are
    float-for-float those the offline evaluator has always produced, so
    its reports and digests do not move. :attr:`GapRule.REACTIVE` takes
    each request's service seconds from ``service_times`` (none: every
    service takes no time).

    Raises:
        ConfigurationError: if the arrival times are not sorted, the
            horizon precedes the last arrival, or the service times do
            not match the chain.
    """
    if rule is GapRule.REACTIVE:
        if service_times is None:
            service_times = [0.0] * len(arrival_times)
        return _fill_reactive(ledger, profile, arrival_times, service_times, horizon)
    state_time = ledger.state_time
    if not arrival_times:
        state_time[_STANDBY] += horizon
        ledger.mark_closed()
        return []
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
    return list(arrival_times)


def _fill_reactive(
    ledger: StateLedger[DiskPowerState],
    profile: DiskPowerProfile,
    arrival_times: Sequence[float],
    service_times: Sequence[float],
    horizon: float,
) -> List[float]:
    """The :attr:`GapRule.REACTIVE` walk, from STANDBY at t=0.

    It moves the ledger through the same transitions at the same
    instants as a simulated disk, so the state-time sums agree float
    for float. A transition after the horizon is not taken.
    """
    if len(service_times) != len(arrival_times):
        raise ConfigurationError("one service time per arrival")
    if arrival_times and horizon < arrival_times[-1]:
        raise ConfigurationError("horizon precedes the last arrival")
    threshold = profile.breakeven_time
    spin_up = profile.spin_up_time
    spin_down = profile.spin_down_time

    def enter(state: DiskPowerState, at: float) -> bool:
        if at > horizon:
            return False
        ledger.transition(state, at)
        return True

    completions: List[float] = []
    previous = -math.inf
    done: Optional[float] = None  # last completion; None while asleep
    for arrival, service in zip(arrival_times, service_times):
        if arrival < previous:
            raise ConfigurationError("arrival times must be sorted")
        previous = arrival
        if done is not None and arrival < done:
            start = done  # queued behind the request in service
        elif done is not None and arrival < done + threshold:
            enter(_IDLE, done)  # idle until the arrival
            enter(_ACTIVE, arrival)
            start = arrival
        else:
            if done is None:
                wake = arrival  # asleep since t=0
            else:
                enter(_IDLE, done)
                asleep = done + threshold + spin_down
                enter(_SPIN_DOWN, done + threshold)
                enter(_STANDBY, asleep)
                wake = max(arrival, asleep)
            start = wake + spin_up
            enter(_SPIN_UP, wake)
            enter(_IDLE, start)
            enter(_ACTIVE, start)
        done = start + service
        if done <= horizon:
            completions.append(done)
    if done is not None and enter(_IDLE, done):
        if enter(_SPIN_DOWN, done + threshold):
            enter(_STANDBY, done + threshold + spin_down)
    ledger.requests_serviced += len(completions)
    ledger.finalize(horizon)
    return completions


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
