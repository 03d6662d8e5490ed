"""Tiered disk/tape configuration.

:class:`TierConfig` is the tape/tier axis of
:class:`~repro.sim.config.SimulationConfig`: attaching one turns a
disk-only run into a tiered run (hot data on disk, cold data on tape)
routed by :class:`~repro.tape.tier.TieredStorageSystem`. The default of
``None`` on ``SimulationConfig.tier`` keeps every existing disk-only
run byte-identical — the tier axis is strictly additive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.tape.profile import LTO_GEN8, TapePowerProfile
from repro.tape.sequencer import SEQUENCER_FACTORIES


def _default_tape_profile() -> TapePowerProfile:
    return LTO_GEN8


@dataclass(frozen=True)
class TierConfig:
    """Everything about the cold tier of one tiered run.

    Attributes:
        hot_fraction: Fraction of distinct data ids (by popularity rank)
            whose requests are served from disk; the rest go to tape.
            ``1.0`` routes everything to disk — the all-disk reference
            cell the bench panels compare against.
        num_tape_drives: Tape drives in the cold tier; data ids are
            striped across them by popularity rank.
        sequencer: LTSP sequencer family name (see
            :mod:`repro.tape.sequencer`).
        tape_profile: Power/geometry model of every tape drive.
        promote_on_access: When True a completed tape read promotes its
            data id into the hot set (evicting the least recently used
            hot id down to tape); False freezes the initial split.
        layout_exponent: Zipf exponent shaping the on-tape layout
            (see :class:`~repro.tape.layout.TapeLayout`). Unitless.
        tape_drain_slack: Extra seconds of horizon granted beyond the
            disk-only horizon so in-flight tape work (a full wind plus a
            mount/unmount round trip) can drain.
    """

    hot_fraction: float = 0.25
    num_tape_drives: int = 1
    sequencer: str = "nearest"
    tape_profile: TapePowerProfile = field(
        default_factory=_default_tape_profile
    )
    promote_on_access: bool = True
    layout_exponent: float = 1.0
    tape_drain_slack: float = 60.0

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ConfigurationError(
                f"hot_fraction must be in (0, 1], got {self.hot_fraction}"
            )
        if self.num_tape_drives <= 0:
            raise ConfigurationError("num_tape_drives must be positive")
        if self.sequencer not in SEQUENCER_FACTORIES:
            known = ", ".join(sorted(SEQUENCER_FACTORIES))
            raise ConfigurationError(
                f"unknown tape sequencer {self.sequencer!r}; known: {known}"
            )
        if self.layout_exponent < 0:
            raise ConfigurationError("layout_exponent must be >= 0")
        if self.tape_drain_slack < 0:
            raise ConfigurationError("tape_drain_slack must be >= 0")

    @property
    def drain_horizon_slack(self) -> float:
        """Seconds of extra horizon the cold tier needs to drain: one
        mount/unmount round trip plus a full end-to-end wind, plus the
        configured slack."""
        profile = self.tape_profile
        return (
            profile.transition_time
            + profile.full_wind_time
            + self.tape_drain_slack
        )
