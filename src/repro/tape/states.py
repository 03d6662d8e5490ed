"""Tape drive power states.

The linear-tape analogue of :mod:`repro.power.states`. A tape drive has
no platters to spin; its expensive transition is the cartridge mount
(load + thread the tape) and the costly steady states are the wind
states, where the reels move the medium under the head:

* ``UNMOUNTED`` — no cartridge loaded; the drive idles at shelf power.
* ``MOUNTING`` / ``UNMOUNTING`` — cartridge load/eject transitions,
  taking seconds and acting like the disk model's spin-up/spin-down
  (the unmount includes the rewind to the start of the tape).
* ``LOADED`` — cartridge threaded, reels stopped, head parked at its
  current longitudinal position.
* ``SEEKING`` — winding the tape to a target position (the LTSP cost:
  time and energy proportional to the distance wound).
* ``READING`` — streaming data under the head.
"""

from __future__ import annotations

from enum import Enum


class TapePowerState(Enum):
    """Power state of a simulated tape drive."""

    UNMOUNTED = "unmounted"
    MOUNTING = "mounting"
    LOADED = "loaded"
    SEEKING = "seeking"
    READING = "reading"
    UNMOUNTING = "unmounting"

    # Same rationale as DiskPowerState: members are per-process
    # singletons, so the C-level identity hash replaces Enum's
    # Python-level name hash on the per-transition ledger updates.
    __hash__ = object.__hash__  # type: ignore[assignment]

    @property
    def is_transitioning(self) -> bool:
        """True during a cartridge mount or unmount."""
        return self in (TapePowerState.MOUNTING, TapePowerState.UNMOUNTING)


#: Canonical ordering used by reports (mirrors ``STATE_ORDER`` for disks).
TAPE_STATE_ORDER = (
    TapePowerState.UNMOUNTED,
    TapePowerState.LOADED,
    TapePowerState.SEEKING,
    TapePowerState.READING,
    TapePowerState.MOUNTING,
    TapePowerState.UNMOUNTING,
)
