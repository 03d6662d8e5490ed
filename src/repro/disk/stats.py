"""Per-disk statistics: state-time breakdown, energy, spin counts.

:class:`DiskStats` is the :class:`~repro.power.ledger.StateLedger` over
the disk power states, counting spin-ups and spin-downs — the drive
notifies it of every state transition and it integrates time and energy
per state. The paper's Fig. 9 / Fig. 17 per-disk breakdowns come
straight out of :meth:`DiskStats.state_fractions`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.power.ledger import StateLedger
from repro.power.profile import DiskPowerProfile
from repro.power.states import DiskPowerState


class DiskStats(StateLedger[DiskPowerState]):
    """Time/energy ledger of one simulated disk.

    ``spin_ups``/``spin_downs`` name the ledger's two entry counters
    (entries into SPIN_UP and SPIN_DOWN).
    """

    __slots__ = ()

    spin_ups = StateLedger.ups
    spin_downs = StateLedger.downs

    def __init__(
        self,
        profile: DiskPowerProfile,
        state_time: Optional[Dict[DiskPowerState, float]] = None,
        spin_ups: int = 0,
        spin_downs: int = 0,
        requests_serviced: int = 0,
    ):
        """A fresh ledger, or — given ``state_time`` (seconds per state)
        and the counters — a rebuilt one (the report deserialiser)."""
        super().__init__(
            profile,
            DiskPowerState,
            (DiskPowerState.SPIN_UP, DiskPowerState.SPIN_DOWN),
            DiskPowerState.STANDBY,
            state_time,
        )
        self.ups = spin_ups
        self.downs = spin_downs
        self.requests_serviced = requests_serviced

    @property
    def spin_operations(self) -> int:
        """Total spin transitions (the paper's Fig. 7 metric counts both)."""
        return self.ups + self.downs

    def standby_fraction(self) -> float:
        """Fraction of total time spent in STANDBY."""
        return self.state_fractions()[DiskPowerState.STANDBY]
