"""Tests for the offline-optimal power oracle and competitive ratios."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments import pins
from repro.power.oracle import (
    empirical_competitive_ratio,
    oracle_energy,
    two_cpm_energy,
)
from repro.power.profile import BARRACUDA, PAPER_EVAL, DiskPowerProfile
from repro.power.states import DiskPowerState
from repro.power.timeline import GapRule, disk_timeline

ZERO_STANDBY = DiskPowerProfile(
    name="zero-standby",
    idle_power=10.0,
    active_power=12.0,
    standby_power=0.0,
    spin_up_power=20.0,
    spin_down_power=10.0,
    spin_up_time=5.0,
    spin_down_time=1.0,
)

OMNISCIENT = GapRule.OMNISCIENT
REPO_ROOT = Path(__file__).resolve().parents[2]


def sleep_energy(profile, gap):
    """Joules to sleep through ``gap`` s at once (inf if no spin cycle fits)."""
    if gap < profile.transition_time:
        return float("inf")
    return (
        profile.transition_energy
        + (gap - profile.transition_time) * profile.standby_power
    )


class TestGapDecision:
    def test_short_gap_stays_idle(self, gap_cost):
        ledger, energy = gap_cost(BARRACUDA, 1.0, OMNISCIENT)
        assert ledger.ups == 1  # the lead-in only
        assert energy == pytest.approx(1.0 * BARRACUDA.idle_power)

    def test_long_gap_sleeps(self, gap_cost):
        ledger, energy = gap_cost(BARRACUDA, 10_000.0, OMNISCIENT)
        assert ledger.ups == 2
        assert ledger.state_time[DiskPowerState.IDLE] == 0.0  # sleeps at once
        assert energy == pytest.approx(sleep_energy(BARRACUDA, 10_000.0))

    def test_gap_below_transition_cannot_sleep(self, gap_cost):
        # Transitions so cheap that sleeping would pay off almost at once,
        # were there time for a full spin cycle.
        cheap = ZERO_STANDBY.with_overrides(spin_up_power=0.1, spin_down_power=0.1)
        below, _ = gap_cost(cheap, cheap.transition_time / 2, OMNISCIENT)
        assert below.ups == 1
        fits, _ = gap_cost(cheap, cheap.transition_time, OMNISCIENT)
        assert fits.ups == 2

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            disk_timeline(BARRACUDA, [10.0, 9.0], 100.0, OMNISCIENT)

    @given(gap=st.floats(min_value=0.0, max_value=1e5))
    def test_decision_is_the_min(self, gap_cost, gap):
        _, energy = gap_cost(PAPER_EVAL, gap, OMNISCIENT)
        assert energy == pytest.approx(
            min(gap * PAPER_EVAL.idle_power, sleep_energy(PAPER_EVAL, gap)),
            abs=1e-9,
        )


class TestOracleChain:
    def test_empty_chain_is_all_standby(self):
        assert oracle_energy(BARRACUDA, [], 100.0) == pytest.approx(
            100.0 * BARRACUDA.standby_power
        )
        ledger = disk_timeline(BARRACUDA, [], 100.0, OMNISCIENT)
        assert ledger.ups == ledger.downs == 0

    def test_unsorted_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            oracle_energy(BARRACUDA, [5.0, 1.0], 100.0)

    def test_horizon_before_last_arrival_rejected(self):
        with pytest.raises(ConfigurationError):
            oracle_energy(BARRACUDA, [50.0], 10.0)

    def test_dense_chain_stays_up(self):
        times = [float(t) for t in range(0, 100, 2)]
        ledger = disk_timeline(BARRACUDA, times, 200.0, OMNISCIENT)
        # Only the lead-in spin-up and the tail spin-down.
        assert (ledger.ups, ledger.downs) == (1, 1)

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_oracle_never_worse_than_2cpm(self, seed):
        rng = random.Random(seed)
        times = []
        t = 0.0
        for _ in range(rng.randint(0, 30)):
            t += rng.expovariate(0.05)
            times.append(t)
        horizon = (times[-1] if times else 0.0) + 100.0
        oracle = oracle_energy(PAPER_EVAL, times, horizon)
        online = two_cpm_energy(PAPER_EVAL, times, horizon)
        assert oracle <= online + 1e-6

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_2cpm_is_two_competitive_for_zero_standby(self, seed):
        """The Irani et al. bound, measured.

        The chain starts no earlier than ``Tup``: the lead-in's full
        spin-up and the tail's spin-down then make one whole spin cycle,
        which is what the bound charges for. A lead-in cut short at t=0
        lets the oracle skip part of that cycle's cost.
        """
        rng = random.Random(seed)
        times = []
        t = ZERO_STANDBY.spin_up_time
        for _ in range(rng.randint(1, 30)):
            t += rng.expovariate(0.05)
            times.append(t)
        horizon = times[-1] + 100.0
        ratio = empirical_competitive_ratio(ZERO_STANDBY, [times], horizon)
        assert ratio <= 2.0 + 1e-6


class TestChainEnds:
    """One arrival, every joule by hand (PAPER_EVAL: Pup 24 W for 15 s,
    Pdown 9.3 W for 4 s, standby 0.8 W, TB = 397.2 J / 9.3 W)."""

    TB = PAPER_EVAL.breakeven_time

    def test_tail_never_spins_up(self):
        # Standby 85 s, spin up 15 s, serve at t=100; then the tail.
        horizon = 100.0 + self.TB + 4.0 + 1000.0
        lead = 85.0 * 0.8 + 15.0 * 24.0
        # Pre-spun: idle TB, spin down, 1000 s of standby: 1662.4 J.
        assert two_cpm_energy(PAPER_EVAL, [100.0], horizon) == pytest.approx(
            lead + 397.2 + 4.0 * 9.3 + 1000.0 * 0.8
        )
        # Omniscient: spin down at once, then TB + 1000 s of standby.
        assert oracle_energy(PAPER_EVAL, [100.0], horizon) == pytest.approx(
            lead + 4.0 * 9.3 + (self.TB + 1000.0) * 0.8
        )

    def test_lead_in_spin_up_is_cut_at_time_zero(self):
        # The first arrival at t=5 leaves 5 of the 15 spin-up seconds.
        horizon = 5.0 + self.TB + 4.0
        assert two_cpm_energy(PAPER_EVAL, [5.0], horizon) == pytest.approx(
            5.0 * 24.0 + 397.2 + 4.0 * 9.3
        )
        assert oracle_energy(PAPER_EVAL, [5.0], horizon) == pytest.approx(
            5.0 * 24.0 + 4.0 * 9.3 + self.TB * 0.8
        )

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_state_times_tile_the_horizon(self, seed):
        rng = random.Random(seed)
        times = sorted(rng.uniform(0.0, 500.0) for _ in range(rng.randint(0, 20)))
        horizon = (times[-1] if times else 0.0) + 100.0
        for rule in GapRule:
            ledger = disk_timeline(PAPER_EVAL, times, horizon, rule)
            assert ledger.total_time == pytest.approx(horizon)
            assert ledger.ups == ledger.downs
            assert ledger.requests_serviced == len(times)


class TestEmpiricalRatio:
    def test_ratio_at_least_one(self):
        chains = [[0.0, 100.0, 105.0], [50.0]]
        ratio = empirical_competitive_ratio(PAPER_EVAL, chains, 500.0)
        assert ratio >= 1.0 - 1e-9

    def test_no_chains_ratio_one(self):
        assert empirical_competitive_ratio(PAPER_EVAL, [], 10.0) == 1.0


def test_threshold_pin():
    """The threshold sweep's energy, response and 2CPM/oracle series on a
    small cello binding, byte for byte."""
    assert pins.main(["--check", "threshold"], root=REPO_ROOT) == 0
