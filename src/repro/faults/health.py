"""Disk health: the availability axis, orthogonal to the power state.

The paper's model assumes every disk always works; real replicated
storage keeps replicas around precisely because disks do not.  Health is
deliberately *not* folded into
:class:`~repro.power.states.DiskPowerState` — the power ledger and its
serialised form stay byte-identical when fault injection is disabled,
and a transiently-down disk still has a well-defined (stopped) power
state underneath.
"""

from __future__ import annotations

from enum import Enum


class DiskHealth(Enum):
    """Availability of a simulated disk, independent of its power state."""

    #: Fully operational: may service requests (subject to power state).
    HEALTHY = "healthy"
    #: Transient outage in progress: unavailable now, will be repaired.
    DOWN = "down"
    #: Permanent failure: the disk never comes back.
    FAILED = "failed"

    @property
    def is_available(self) -> bool:
        """True when the disk can accept and service requests."""
        return self is DiskHealth.HEALTHY
