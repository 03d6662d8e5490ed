"""Tests for the per-disk statistics ledger."""

import pytest

from repro.disk.stats import DiskStats
from repro.errors import SimulationError
from repro.power.profile import BARRACUDA, PAPER_UNIT
from repro.power.states import DiskPowerState


def test_accumulates_time_per_state():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.STANDBY, 0.0)
    stats.transition(DiskPowerState.SPIN_UP, 10.0)
    stats.transition(DiskPowerState.IDLE, 16.0)
    stats.finalize(20.0)
    assert stats.state_time[DiskPowerState.STANDBY] == pytest.approx(10.0)
    assert stats.state_time[DiskPowerState.SPIN_UP] == pytest.approx(6.0)
    assert stats.state_time[DiskPowerState.IDLE] == pytest.approx(4.0)


def test_total_time_equals_span():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.IDLE, 5.0)
    stats.transition(DiskPowerState.ACTIVE, 7.0)
    stats.transition(DiskPowerState.IDLE, 9.0)
    stats.finalize(30.0)
    assert stats.total_time == pytest.approx(25.0)


def test_spin_counts_increment_on_transition_entry():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.STANDBY, 0.0)
    stats.transition(DiskPowerState.SPIN_UP, 1.0)
    stats.transition(DiskPowerState.IDLE, 7.0)
    stats.transition(DiskPowerState.SPIN_DOWN, 50.0)
    stats.transition(DiskPowerState.STANDBY, 52.0)
    stats.finalize(60.0)
    assert stats.spin_ups == 1
    assert stats.spin_downs == 1
    assert stats.spin_operations == 2


def test_energy_integrates_power_over_time():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.IDLE, 0.0)
    stats.finalize(100.0)
    assert stats.energy == pytest.approx(100.0 * BARRACUDA.idle_power)


def test_energy_counts_transition_power():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.SPIN_UP, 0.0)
    stats.transition(DiskPowerState.IDLE, BARRACUDA.spin_up_time)
    stats.finalize(BARRACUDA.spin_up_time)
    assert stats.energy == pytest.approx(BARRACUDA.spin_up_energy)


def test_time_going_backwards_rejected():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.IDLE, 10.0)
    with pytest.raises(SimulationError):
        stats.transition(DiskPowerState.ACTIVE, 5.0)


def test_finalize_is_idempotent():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.IDLE, 0.0)
    stats.finalize(10.0)
    stats.finalize(10.0)
    assert stats.total_time == pytest.approx(10.0)


def test_transition_after_finalize_rejected():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.IDLE, 0.0)
    stats.finalize(10.0)
    with pytest.raises(SimulationError):
        stats.transition(DiskPowerState.ACTIVE, 11.0)


def test_state_fractions_sum_to_one():
    stats = DiskStats(BARRACUDA)
    stats.begin(DiskPowerState.STANDBY, 0.0)
    stats.transition(DiskPowerState.SPIN_UP, 40.0)
    stats.transition(DiskPowerState.IDLE, 46.0)
    stats.finalize(100.0)
    assert sum(stats.state_fractions().values()) == pytest.approx(1.0)
    assert stats.standby_fraction() == pytest.approx(0.4)


def test_state_fractions_zero_when_no_time():
    stats = DiskStats(BARRACUDA)
    assert all(v == 0.0 for v in stats.state_fractions().values())


def test_mark_closed_seals_without_crediting():
    stats = DiskStats(PAPER_UNIT)
    stats.state_time[DiskPowerState.IDLE] += 7.0
    stats.mark_closed()
    assert stats.total_time == pytest.approx(7.0)
    with pytest.raises(SimulationError):
        stats.transition(DiskPowerState.ACTIVE, 1.0)
