"""Tests for the breakeven-time math (the 2CPM foundation)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.power.breakeven import (
    breakeven_time,
    breakeven_time_with_standby,
    competitive_ratio_bound,
)
from repro.power.profile import BARRACUDA, PAPER_EVAL, DiskPowerProfile
from repro.power.timeline import GapRule, disk_timeline

PRE_SPUN = GapRule.PRE_SPUN


class TestBreakevenTime:
    def test_classic_formula(self):
        assert breakeven_time(100.0, 10.0) == pytest.approx(10.0)

    def test_zero_transition_energy_gives_zero_threshold(self):
        assert breakeven_time(0.0, 5.0) == 0.0

    def test_requires_positive_idle_power(self):
        with pytest.raises(ConfigurationError):
            breakeven_time(100.0, 0.0)

    def test_rejects_negative_transition_energy(self):
        with pytest.raises(ConfigurationError):
            breakeven_time(-1.0, 5.0)


class TestBreakevenWithStandby:
    def test_reduces_to_classic_when_standby_is_zero(self):
        classic = breakeven_time(100.0, 10.0)
        refined = breakeven_time_with_standby(100.0, 10.0, 0.0)
        assert refined == pytest.approx(classic)

    def test_standby_power_lengthens_threshold(self):
        # Sleeping is less profitable when standby still draws power.
        classic = breakeven_time(100.0, 10.0)
        refined = breakeven_time_with_standby(100.0, 10.0, 2.0)
        assert refined > classic

    def test_idle_must_exceed_standby(self):
        with pytest.raises(ConfigurationError):
            breakeven_time_with_standby(100.0, 5.0, 5.0)

    @given(
        energy=st.floats(min_value=0.0, max_value=1e4),
        idle=st.floats(min_value=0.5, max_value=50.0),
        standby_fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_never_negative(self, energy, idle, standby_fraction):
        threshold = breakeven_time_with_standby(
            energy, idle, idle * standby_fraction
        )
        assert threshold >= 0.0


class TestIntervalEnergy:
    """One interior gap under the pre-spun rule (Lemma 1)."""

    def test_short_gap_stays_idle(self, gap_cost):
        gap = BARRACUDA.breakeven_time / 2
        ledger, energy = gap_cost(BARRACUDA, gap, PRE_SPUN)
        assert ledger.ups == 1
        assert energy == pytest.approx(gap * BARRACUDA.idle_power)

    def test_long_gap_sleeps(self, gap_cost):
        gap = BARRACUDA.breakeven_time * 10
        ledger, energy = gap_cost(BARRACUDA, gap, PRE_SPUN)
        assert ledger.ups == 2
        assert energy < gap * BARRACUDA.idle_power

    def test_gap_at_threshold_boundary_stays_idle(self, gap_cost):
        # Gaps inside [TB, TB + Tup + Tdown) ride out idle (Lemma 1 case II).
        gap = BARRACUDA.breakeven_time + BARRACUDA.transition_time / 2
        ledger, energy = gap_cost(BARRACUDA, gap, PRE_SPUN)
        assert ledger.ups == 1
        assert energy == pytest.approx(gap * BARRACUDA.idle_power)

    def test_negative_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            disk_timeline(BARRACUDA, [10.0, 9.0], 100.0, PRE_SPUN)

    @given(gap=st.floats(min_value=0.0, max_value=1e5))
    def test_2cpm_never_exceeds_twice_always_on_plus_transition(
        self, gap_cost, gap
    ):
        """The 2-competitiveness sanity bound on a single interval."""
        _, online = gap_cost(PAPER_EVAL, gap, PRE_SPUN)
        offline_best = min(
            gap * PAPER_EVAL.idle_power,
            PAPER_EVAL.transition_energy + gap * PAPER_EVAL.standby_power,
        )
        if offline_best > 0:
            assert online <= 2.0 * offline_best + 1e-9


class TestCompetitiveRatio:
    def test_bound_is_at_most_two_for_zero_standby(self):
        profile = DiskPowerProfile(
            name="zero-standby",
            idle_power=10.0,
            active_power=12.0,
            standby_power=0.0,
            spin_up_power=20.0,
            spin_down_power=10.0,
            spin_up_time=5.0,
            spin_down_time=1.0,
        )
        ratio = competitive_ratio_bound(profile)
        assert 1.0 <= ratio <= 2.0 + 1e-9

    def test_bound_exceeds_one_when_sleeping_costs(self):
        assert competitive_ratio_bound(PAPER_EVAL) > 1.0
