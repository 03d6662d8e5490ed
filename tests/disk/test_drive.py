"""Tests for the SimulatedDisk power/queue state machine.

Scenario style: drive the engine manually and assert states, times,
energies and response behaviour at each step. The profile used in most
tests is BARRACUDA (Tup=6, Tdown=2, TB~17.48) so transitions are visible.
"""

import random

import pytest

from repro.disk.drive import SimulatedDisk
from repro.disk.service import ConstantServiceModel
from repro.errors import SimulationError
from repro.power.policy import (
    AlwaysOnPolicy,
    ScaledBreakevenPolicy,
    TwoCompetitivePolicy,
)
from repro.power.profile import BARRACUDA, PAPER_UNIT
from repro.power.states import DiskPowerState
from repro.sim.engine import SimulationEngine
from repro.types import Request

TB = BARRACUDA.breakeven_time
TUP = BARRACUDA.spin_up_time
TDOWN = BARRACUDA.spin_down_time


def make_disk(engine, profile=BARRACUDA, policy=None, service=0.0, **kwargs):
    completions = []
    disk = SimulatedDisk(
        disk_id=0,
        engine=engine,
        profile=profile,
        policy=policy or TwoCompetitivePolicy(),
        service_model=ConstantServiceModel(service),
        rng=random.Random(0),
        on_complete=lambda record: completions.append((record[3], record[0])),
        **kwargs,
    )
    return disk, completions


def req(time, rid=0):
    return Request(time=time, request_id=rid, data_id=0)


class TestSpinUpPath:
    def test_standby_disk_spins_up_on_request(self):
        engine = SimulationEngine()
        disk, completions = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=TUP / 2)
        assert disk.state is DiskPowerState.SPIN_UP

    def test_request_waits_full_spin_up(self):
        engine = SimulationEngine()
        disk, completions = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=TUP + 0.001)
        assert completions
        _request, when = completions[0]
        assert when == pytest.approx(TUP)

    def test_requests_queued_during_spin_up_all_complete(self):
        engine = SimulationEngine()
        disk, completions = make_disk(engine, service=0.01)
        for i in range(5):
            engine.schedule(i * 0.5, lambda i=i: disk.submit(req(i * 0.5, i)))
        engine.run(until=TUP + 1.0)
        assert len(completions) == 5

    def test_initially_idle_disk_serves_immediately(self):
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, initial_state=DiskPowerState.IDLE
        )
        engine.schedule(1.0, lambda: disk.submit(req(1.0)))
        engine.run(until=1.5)
        assert completions[0][1] == pytest.approx(1.0)

    def test_invalid_initial_state_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            SimulatedDisk(
                disk_id=0,
                engine=engine,
                profile=BARRACUDA,
                initial_state=DiskPowerState.ACTIVE,
            )


class TestIdleTimeout:
    def test_disk_spins_down_after_breakeven(self):
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=TUP + TB + TDOWN + 0.01)
        assert disk.state is DiskPowerState.STANDBY
        assert disk.stats.spin_downs == 1

    def test_arrival_before_timeout_cancels_spin_down(self):
        engine = SimulationEngine()
        disk, completions = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        second_time = TUP + TB / 2
        engine.schedule(second_time, lambda: disk.submit(req(second_time, 1)))
        engine.run(until=second_time + 0.01)
        assert disk.state is DiskPowerState.IDLE
        assert disk.stats.spin_downs == 0
        assert len(completions) == 2

    def test_always_on_policy_never_sleeps(self):
        engine = SimulationEngine()
        disk, _ = make_disk(
            engine,
            policy=AlwaysOnPolicy(),
            initial_state=DiskPowerState.IDLE,
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=10_000.0)
        assert disk.state is DiskPowerState.IDLE
        assert disk.stats.spin_downs == 0

    def test_zero_threshold_spins_down_immediately(self):
        engine = SimulationEngine()
        disk, _ = make_disk(engine, policy=ScaledBreakevenPolicy(0.0))
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=TUP + TDOWN + 0.01)
        assert disk.state is DiskPowerState.STANDBY


class TestSpinDownRace:
    def test_arrival_during_spin_down_waits_for_down_then_up(self):
        engine = SimulationEngine()
        disk, completions = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        # Hit the disk in the middle of its spin-down window.
        arrival = TUP + TB + TDOWN / 2
        engine.schedule(arrival, lambda: disk.submit(req(arrival, 1)))
        engine.run(until=arrival + TDOWN + TUP + 1.0)
        assert len(completions) == 2
        # Second completion: spin-down finishes at TUP+TB+TDOWN, then full
        # spin-up.
        expected = TUP + TB + TDOWN + TUP
        assert completions[1][1] == pytest.approx(expected)

    def test_arrival_at_spin_down_completion_instant_pays_full_spin_up(self):
        # Boundary of the non-abortable transition: the arrival lands at
        # exactly the instant the spin-down completes. Whichever event
        # fires first at that timestamp, the request must wait the full
        # spin-up and the ledger must show a second spin-up cycle.
        engine = SimulationEngine()
        disk, completions = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        arrival = TUP + TB + TDOWN  # the spin-down completion instant
        engine.schedule(arrival, lambda: disk.submit(req(arrival, 1)))
        engine.run(until=arrival + TUP + 1.0)
        assert len(completions) == 2
        assert completions[1][1] == pytest.approx(arrival + TUP)
        assert disk.stats.spin_ups == 2
        assert disk.stats.spin_downs == 1

    def test_spin_down_completes_before_spin_up_begins(self):
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        arrival = TUP + TB + TDOWN / 2
        engine.schedule(arrival, lambda: disk.submit(req(arrival, 1)))
        engine.run(until=arrival + 0.01)
        assert disk.state is DiskPowerState.SPIN_DOWN
        engine.run(until=TUP + TB + TDOWN + 0.01)
        assert disk.state is DiskPowerState.SPIN_UP


class TestServiceQueue:
    def test_fifo_order(self):
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, service=1.0, initial_state=DiskPowerState.IDLE
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        engine.schedule(0.1, lambda: disk.submit(req(0.1, 1)))
        engine.schedule(0.2, lambda: disk.submit(req(0.2, 2)))
        engine.run(until=10.0)
        assert [r.request_id for r, _ in completions] == [0, 1, 2]

    def test_queue_length_counts_in_service(self):
        engine = SimulationEngine()
        disk, _ = make_disk(
            engine, service=1.0, initial_state=DiskPowerState.IDLE
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        engine.schedule(0.1, lambda: disk.submit(req(0.1, 1)))
        engine.run(until=0.5)
        assert disk.queue_length == 2  # one in service + one queued
        engine.run(until=1.5)
        assert disk.queue_length == 1
        engine.run(until=10.0)
        assert disk.queue_length == 0

    def test_service_times_serialise(self):
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, service=2.0, initial_state=DiskPowerState.IDLE
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 1)))
        engine.run(until=10.0)
        assert completions[0][1] == pytest.approx(2.0)
        assert completions[1][1] == pytest.approx(4.0)

    def test_zero_service_long_queue_no_recursion_error(self):
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, service=0.0, initial_state=DiskPowerState.IDLE
        )

        def flood():
            for i in range(5000):
                disk.submit(req(0.0, i))

        engine.schedule(0.0, flood)
        engine.run(until=1.0)
        assert len(completions) == 5000

    def test_active_state_while_servicing(self):
        engine = SimulationEngine()
        disk, _ = make_disk(
            engine, service=1.0, initial_state=DiskPowerState.IDLE
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=0.5)
        assert disk.state is DiskPowerState.ACTIVE


class TestBookkeeping:
    def test_last_request_time_tracks_submission(self):
        engine = SimulationEngine()
        disk, _ = make_disk(engine, initial_state=DiskPowerState.IDLE)
        assert disk.last_request_time is None
        engine.schedule(3.0, lambda: disk.submit(req(3.0)))
        engine.run(until=4.0)
        assert disk.last_request_time == 3.0

    def test_energy_of_full_cycle_unit_model(self):
        # Unit model: 1 W idle, free transitions, TB override 5.
        engine = SimulationEngine()
        disk, _ = make_disk(engine, profile=PAPER_UNIT)
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=100.0)
        disk.finalize()
        # idle exactly TB=5 seconds at 1 W, everything else free/standby-0.
        assert disk.stats.energy == pytest.approx(5.0)

    def test_state_times_sum_to_finalized_span(self):
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        engine.schedule(30.0, lambda: disk.submit(req(30.0, 1)))
        engine.run(until=200.0)
        disk.finalize()
        assert disk.stats.total_time == pytest.approx(200.0)

    def test_requests_serviced_counted(self):
        engine = SimulationEngine()
        disk, _ = make_disk(engine, initial_state=DiskPowerState.IDLE)
        for i in range(4):
            engine.schedule(float(i), lambda i=i: disk.submit(req(float(i), i)))
        engine.run(until=10.0)
        assert disk.stats.requests_serviced == 4

    def test_spin_counts_over_two_cycles(self):
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        late = TUP + TB + TDOWN + 50.0
        engine.schedule(late, lambda: disk.submit(req(late, 1)))
        engine.run(until=late + TUP + TB + TDOWN + 1.0)
        assert disk.stats.spin_ups == 2
        assert disk.stats.spin_downs == 2


class TestZeroTransitionProfile:
    def test_unit_model_serves_instantly_from_standby(self):
        engine = SimulationEngine()
        disk, completions = make_disk(engine, profile=PAPER_UNIT)
        engine.schedule(1.0, lambda: disk.submit(req(1.0)))
        engine.run(until=1.5)
        assert completions[0][1] == pytest.approx(1.0)

    def test_unit_model_cycles_through_states(self):
        engine = SimulationEngine()
        disk, _ = make_disk(engine, profile=PAPER_UNIT)
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=10.0)
        assert disk.state is DiskPowerState.STANDBY
        assert disk.stats.spin_ups == 1
        assert disk.stats.spin_downs == 1
