"""One state-time ledger for every simulated power state machine.

A device notifies its :class:`StateLedger` of every state transition;
the ledger integrates time per state and turns it into energy through
the device's power profile. It is parameterised by the state enum and
by the two states whose entries it counts, so
:class:`~repro.disk.stats.DiskStats` (SPIN_UP/SPIN_DOWN) and
:class:`~repro.tape.stats.TapeStats` (MOUNTING/UNMOUNTING) are thin
names over it. Energy is power x time per state and nothing else:
both power profiles charge a transition as its state's power over its
duration (``Eup = Pup * Tup``). Besides :meth:`StateLedger.transition`,
one writer moves the ledger: ``SimulatedDisk._transition`` (an inlined
copy on the disk's hot path) writes ``state_time``, ``transitions``,
``_current_state`` and ``_state_since`` directly, so those slot names
are part of the contract. The offline timeline credits ``state_time``
directly and seals the ledger with :meth:`StateLedger.mark_closed`.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Generic, Iterable, List, Optional, Protocol, Tuple, TypeVar

from repro.errors import SimulationError

S = TypeVar("S", bound=Enum)
S_contra = TypeVar("S_contra", bound=Enum, contravariant=True)


class PowerProfile(Protocol[S_contra]):
    """Anything that knows the steady-state watts drawn in a state."""

    def power(self, state: S_contra) -> float:
        """Steady-state watts drawn in ``state``."""
        ...


class StateLedger(Generic[S]):
    """Time/energy ledger of one device over the power states ``S``.

    Attributes:
        profile: Power profile used to convert state time into energy.
        state_time: Seconds accumulated per power state.
        ups: Entries into the first counted state.
        downs: Entries into the second counted state.
        requests_serviced: Requests whose I/O completed on this device.
        transitions: Optional ``(time, state)`` log (see
            :meth:`enable_transition_log`); feeds the state-period
            analyses in :mod:`repro.analysis.idleness`.
    """

    __slots__ = (
        "profile",
        "state_time",
        "ups",
        "downs",
        "requests_serviced",
        "transitions",
        "_up_state",
        "_down_state",
        "_current_state",
        "_state_since",
        "_closed",
    )

    def __init__(
        self,
        profile: PowerProfile[S],
        states: Iterable[S],
        counted: Tuple[S, S],
        initial: S,
        state_time: Optional[Dict[S, float]] = None,
    ):
        self.profile = profile
        self.state_time: Dict[S, float] = (
            state_time if state_time is not None else dict.fromkeys(states, 0.0)
        )
        self.ups = 0
        self.downs = 0
        self.requests_serviced = 0
        self.transitions: Optional[List[Tuple[float, S]]] = None
        self._up_state, self._down_state = counted
        self._current_state = initial
        self._state_since = 0.0
        self._closed = False

    def enable_transition_log(self) -> None:
        """Start recording every state transition as ``(time, state)``."""
        if self.transitions is None:
            self.transitions = [(self._state_since, self._current_state)]

    def begin(self, state: S, now: float) -> None:
        """Initialise the ledger at simulation start."""
        self._current_state = state
        self._state_since = now
        if self.transitions is not None:
            self.transitions = [(now, state)]

    def transition(self, new_state: S, now: float) -> None:
        """Close the current state interval and open a new one."""
        since = self._state_since
        if self._closed:
            raise SimulationError("stats already finalised")
        if now < since:
            raise SimulationError(f"time went backwards: {now} < {since}")
        self.state_time[self._current_state] += now - since
        if self.transitions is not None:
            self.transitions.append((now, new_state))
        if new_state is self._up_state:
            self.ups += 1
        elif new_state is self._down_state:
            self.downs += 1
        self._current_state = new_state
        self._state_since = now

    def note_request_serviced(self) -> None:
        """Count one completed request on this device."""
        self.requests_serviced += 1

    def mark_closed(self) -> None:
        """Close a *synthetic* ledger whose times were credited directly.

        The analytic timeline (:mod:`repro.power.timeline`) and the
        report deserialiser fill ``state_time`` without
        :meth:`transition`; this seals the ledger without crediting any
        additional interval.
        """
        self._closed = True

    def finalize(self, now: float) -> None:
        """Close the open interval at simulation end (idempotent)."""
        if self._closed:
            return
        if now < self._state_since:
            raise SimulationError(
                f"time went backwards: {now} < {self._state_since}"
            )
        self.state_time[self._current_state] += now - self._state_since
        self._state_since = now
        self._closed = True

    @property
    def total_time(self) -> float:
        """Seconds accounted across all power states."""
        return sum(self.state_time.values())

    @property
    def energy(self) -> float:
        """Joules consumed: per-state power x time, transition states
        included (``Eup = Pup * Tup``)."""
        return sum(
            self.profile.power(state) * seconds
            for state, seconds in self.state_time.items()
        )

    def energy_at(self, now: float) -> float:
        """Joules up to ``now``, the open state interval included.

        The :attr:`energy` property only integrates *closed* intervals;
        a live reader (the serving layer's energy gauge) also wants the
        time accrued in the current state. On a finalised ledger this is
        exactly :attr:`energy`.
        """
        if self._closed or now <= self._state_since:
            return self.energy
        open_interval = self.profile.power(self._current_state) * (
            now - self._state_since
        )
        return self.energy + open_interval

    def state_fractions(self) -> Dict[S, float]:
        """Fraction of total time per state (zeros if no time elapsed)."""
        total = self.total_time
        if total == 0:
            return dict.fromkeys(self.state_time, 0.0)
        return {
            state: seconds / total for state, seconds in self.state_time.items()
        }


__all__ = ["PowerProfile", "StateLedger"]
