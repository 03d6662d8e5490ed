"""Per-tape-drive statistics: state-time ledger, energy, seek distance.

:class:`TapeStats` is the :class:`~repro.power.ledger.StateLedger` over
the tape state machine, counting mounts and unmounts, plus the wind
odometer — total metres of tape wound — that the ``tape_tier`` bench
panels report.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.power.ledger import StateLedger
from repro.tape.profile import TapePowerProfile
from repro.tape.states import TapePowerState


class TapeStats(StateLedger[TapePowerState]):
    """Time/energy ledger of one simulated tape drive.

    ``mounts``/``unmounts`` name the ledger's two entry counters
    (entries into MOUNTING and UNMOUNTING); ``seek_distance_m`` is the
    total metres of tape wound across all seeks.
    """

    __slots__ = ("seek_distance_m",)

    mounts = StateLedger.ups
    unmounts = StateLedger.downs

    def __init__(self, profile: TapePowerProfile):
        super().__init__(
            profile,
            TapePowerState,
            (TapePowerState.MOUNTING, TapePowerState.UNMOUNTING),
            TapePowerState.UNMOUNTED,
        )
        self.seek_distance_m = 0.0

    def note_seek(self, distance_m: float) -> None:
        """Credit one seek of ``distance_m`` metres to the wind odometer."""
        if distance_m < 0:
            raise SimulationError("seek distance must be >= 0")
        self.seek_distance_m += distance_m
