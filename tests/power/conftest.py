"""Shared helper: what a gap rule does with one interior idle gap."""

import pytest

from repro.power.timeline import disk_timeline


def interior_gap(profile, gap, rule):
    """The ledger of a two-request chain ``gap`` seconds apart, and the
    joules that gap costs: the chain's energy minus that of the
    one-request chain with the same lead-in and tail."""
    start = profile.spin_up_time  # a full lead-in spin-up, no standby

    def chain(times):
        horizon = times[-1] + profile.breakeven_time + profile.spin_down_time
        return disk_timeline(profile, times, horizon, rule)

    ledger = chain([start, start + gap])
    return ledger, ledger.energy - chain([start]).energy


@pytest.fixture(scope="session")
def gap_cost():
    """:func:`interior_gap`, for tests that price single gaps."""
    return interior_gap
