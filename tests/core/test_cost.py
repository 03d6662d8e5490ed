"""Tests for the Eq. 5/6/7 cost specification."""

import pytest

from repro.core.cost import PAPER_COST_FUNCTION, CostFunction, energy_cost
from repro.errors import ConfigurationError
from repro.power.profile import BARRACUDA, PAPER_EVAL
from repro.power.states import DiskPowerState


class FakeDisk:
    def __init__(self, state, queue_length=0, last_request_time=None):
        self.state = state
        self.queue_length = queue_length
        self.last_request_time = last_request_time


class TestEnergyCost:
    def test_active_is_free(self):
        assert energy_cost(DiskPowerState.ACTIVE, 0.0, 10.0, BARRACUDA) == 0.0

    def test_spin_up_is_free(self):
        """Paper: prefer a spinning-up disk — it overlays requests."""
        assert energy_cost(DiskPowerState.SPIN_UP, 0.0, 10.0, BARRACUDA) == 0.0

    def test_standby_costs_full_cycle(self):
        expected = (
            BARRACUDA.transition_energy
            + BARRACUDA.breakeven_time * BARRACUDA.idle_power
        )
        assert energy_cost(
            DiskPowerState.STANDBY, None, 10.0, BARRACUDA
        ) == pytest.approx(expected)

    def test_spin_down_costs_like_standby(self):
        assert energy_cost(
            DiskPowerState.SPIN_DOWN, 5.0, 10.0, BARRACUDA
        ) == energy_cost(DiskPowerState.STANDBY, 5.0, 10.0, BARRACUDA)

    def test_idle_costs_extension(self):
        # Tlast = 4, Tnow = 10 -> six seconds of extension at idle power.
        assert energy_cost(
            DiskPowerState.IDLE, 4.0, 10.0, BARRACUDA
        ) == pytest.approx(6.0 * BARRACUDA.idle_power)

    def test_idle_never_touched_is_free(self):
        assert energy_cost(DiskPowerState.IDLE, None, 10.0, BARRACUDA) == 0.0

    def test_idle_future_tlast_rejected(self):
        with pytest.raises(ConfigurationError):
            energy_cost(DiskPowerState.IDLE, 20.0, 10.0, BARRACUDA)

    def test_recently_touched_idle_cheaper_than_standby(self):
        """The core preference ordering of the Heuristic."""
        idle = energy_cost(DiskPowerState.IDLE, 9.0, 10.0, PAPER_EVAL)
        standby = energy_cost(DiskPowerState.STANDBY, None, 10.0, PAPER_EVAL)
        assert idle < standby

    def test_long_idle_approaches_standby_cost(self):
        # An idle disk about to hit its threshold costs nearly EPmax...
        threshold = PAPER_EVAL.breakeven_time
        idle = energy_cost(DiskPowerState.IDLE, 10.0, 10.0 + threshold, PAPER_EVAL)
        standby = energy_cost(DiskPowerState.STANDBY, None, 10.0, PAPER_EVAL)
        # ...but still less (it saves the transition energy).
        assert idle < standby
        assert idle == pytest.approx(threshold * PAPER_EVAL.idle_power)


class TestCostFunction:
    def test_alpha_one_is_pure_energy(self):
        cost = CostFunction(alpha=1.0, beta=1.0)
        busy_idle = FakeDisk(DiskPowerState.IDLE, queue_length=50, last_request_time=10.0)
        value = cost.cost(busy_idle, 10.0, BARRACUDA)
        assert value == 0.0  # zero extension, load ignored

    def test_alpha_zero_is_pure_load(self):
        cost = CostFunction(alpha=0.0, beta=1.0)
        standby = FakeDisk(DiskPowerState.STANDBY, queue_length=2)
        assert cost.cost(standby, 10.0, BARRACUDA) == 2.0

    def test_beta_scales_energy_term(self):
        small_beta = CostFunction(alpha=0.5, beta=1.0)
        large_beta = CostFunction(alpha=0.5, beta=1000.0)
        standby = FakeDisk(DiskPowerState.STANDBY)
        assert small_beta.cost(standby, 0.0, BARRACUDA) > large_beta.cost(
            standby, 0.0, BARRACUDA
        )

    def test_negative_queue_rejected(self):
        standby = FakeDisk(DiskPowerState.STANDBY, queue_length=-1)
        with pytest.raises(ConfigurationError):
            PAPER_COST_FUNCTION.cost(standby, 10.0, BARRACUDA)

    def test_paper_configuration(self):
        assert PAPER_COST_FUNCTION.alpha == 0.2
        assert PAPER_COST_FUNCTION.beta == 100.0

    def test_composite_formula(self):
        cost = CostFunction(alpha=0.2, beta=100.0)
        disk = FakeDisk(DiskPowerState.STANDBY, queue_length=3)
        energy = energy_cost(DiskPowerState.STANDBY, None, 0.0, PAPER_EVAL)
        expected = energy * 0.2 / 100.0 + 3 * 0.8
        assert cost.cost(disk, 0.0, PAPER_EVAL) == pytest.approx(expected)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            CostFunction(alpha=1.5)

    def test_beta_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            CostFunction(beta=0.0)
