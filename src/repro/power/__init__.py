"""Disk power modelling: states, profiles, breakeven math, policies."""

from repro.power.breakeven import (
    breakeven_time,
    breakeven_time_with_standby,
    competitive_ratio_bound,
)
from repro.power.oracle import (
    empirical_competitive_ratio,
    oracle_energy,
    two_cpm_energy,
)
from repro.power.policy import (
    AlwaysOnPolicy,
    PowerPolicy,
    ScaledBreakevenPolicy,
    TwoCompetitivePolicy,
)
from repro.power.profile import (
    BARRACUDA,
    CHEETAH_15K5,
    PAPER_EVAL,
    PAPER_UNIT,
    PROFILES,
    DiskPowerProfile,
    get_profile,
)
from repro.power.states import STATE_ORDER, DiskPowerState

__all__ = [
    "AlwaysOnPolicy",
    "BARRACUDA",
    "CHEETAH_15K5",
    "DiskPowerProfile",
    "DiskPowerState",
    "PAPER_EVAL",
    "PAPER_UNIT",
    "PROFILES",
    "PowerPolicy",
    "ScaledBreakevenPolicy",
    "STATE_ORDER",
    "TwoCompetitivePolicy",
    "breakeven_time",
    "breakeven_time_with_standby",
    "competitive_ratio_bound",
    "empirical_competitive_ratio",
    "get_profile",
    "oracle_energy",
    "two_cpm_energy",
]
