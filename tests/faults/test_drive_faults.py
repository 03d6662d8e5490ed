"""Drive-level fault behaviour: crash-stop, repair, spin-up failures."""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.disk.drive import SimulatedDisk
from repro.disk.service import ConstantServiceModel
from repro.errors import ReplicaUnavailableError, SimulationError
from repro.faults import (
    DiskHealth,
    FaultInjector,
    FaultPlan,
    ScriptedFault,
    SpinUpFaults,
)
from repro.power.policy import TwoCompetitivePolicy
from repro.power.profile import BARRACUDA
from repro.power.states import DiskPowerState
from repro.sim.engine import SimulationEngine
from repro.types import CompletionRecord, Request

TUP = BARRACUDA.spin_up_time

Completions = List[Tuple[Request, float]]


def make_disk(
    engine: SimulationEngine,
    service: float = 0.0,
    initial_state: DiskPowerState = DiskPowerState.STANDBY,
) -> Tuple[SimulatedDisk, Completions]:
    completions: Completions = []

    def on_complete(record: CompletionRecord) -> None:
        completions.append((record[3], record[0]))

    disk = SimulatedDisk(
        disk_id=0,
        engine=engine,
        profile=BARRACUDA,
        policy=TwoCompetitivePolicy(),
        service_model=ConstantServiceModel(service),
        rng=random.Random(0),
        on_complete=on_complete,
        initial_state=initial_state,
    )
    return disk, completions


def req(time: float, rid: int = 0) -> Request:
    return Request(time=time, request_id=rid, data_id=0)


class TestCrashStop:
    def test_fail_drains_in_service_and_queue(self) -> None:
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, service=1.0, initial_state=DiskPowerState.IDLE
        )
        for i in range(3):
            engine.schedule(0.0, lambda i=i: disk.submit(req(0.0, i)))
        engine.run(until=0.5)  # first request mid-service, two queued
        drained = disk.fail(permanent=True)
        assert [r.request_id for r in drained] == [0, 1, 2]
        assert disk.health is DiskHealth.FAILED
        assert disk.state is DiskPowerState.STANDBY
        assert disk.queue_length == 0
        assert not completions

    def test_crash_stop_counts_no_spin_operations(self) -> None:
        engine = SimulationEngine()
        disk, _ = make_disk(
            engine, service=1.0, initial_state=DiskPowerState.IDLE
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=0.5)
        disk.fail(permanent=True)
        # An orderly spin-down would count; a crash-stop must not.
        assert disk.stats.spin_ups == 0
        assert disk.stats.spin_downs == 0

    def test_submit_on_failed_disk_rejected(self) -> None:
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        disk.fail(permanent=True)
        with pytest.raises(ReplicaUnavailableError, match="failed"):
            disk.submit(req(0.0))

    def test_submit_on_down_disk_rejected(self) -> None:
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        disk.fail(permanent=False)
        assert disk.health is DiskHealth.DOWN
        assert not disk.is_available
        with pytest.raises(ReplicaUnavailableError, match="down"):
            disk.submit(req(0.0))

    def test_double_fail_rejected(self) -> None:
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        disk.fail(permanent=True)
        with pytest.raises(SimulationError, match="failed twice"):
            disk.fail(permanent=True)


class TestRepair:
    def test_repair_restores_service(self) -> None:
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, initial_state=DiskPowerState.IDLE
        )
        disk.fail(permanent=False)
        disk.repair()
        assert disk.health is DiskHealth.HEALTHY
        assert disk.is_available
        engine.schedule(1.0, lambda: disk.submit(req(1.0)))
        engine.run(until=TUP + 2.0)
        assert len(completions) == 1

    def test_repair_requires_down_health(self) -> None:
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        with pytest.raises(SimulationError, match="repair"):
            disk.repair()  # healthy
        disk.fail(permanent=True)
        with pytest.raises(SimulationError, match="repair"):
            disk.repair()  # permanently failed


class TestEpochGuard:
    """A crash-stop cancels the disk's pending timers: nothing scheduled
    before the failure fires into the post-crash state machine."""

    def test_stale_service_completion_dropped_across_fail(self) -> None:
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, service=5.0, initial_state=DiskPowerState.IDLE
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        engine.run(until=1.0)  # in service; completion queued for t=5
        disk.fail(permanent=False)
        disk.repair()
        # The pre-failure completion event fires at t=5 but belongs to a
        # dead epoch: it must neither complete nor corrupt the machine.
        engine.run(until=6.0)
        assert completions == []
        assert disk.state is DiskPowerState.STANDBY

    def test_disk_serves_normally_after_repair(self) -> None:
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, service=5.0, initial_state=DiskPowerState.IDLE
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        engine.run(until=1.0)
        disk.fail(permanent=False)
        disk.repair()
        engine.schedule(10.0, lambda: disk.submit(req(10.0, 1)))
        engine.run(until=10.0 + TUP + 6.0)
        assert [r.request_id for r, _ in completions] == [1]
        assert completions[0][1] == pytest.approx(10.0 + TUP + 5.0)

    @pytest.mark.parametrize("initial_state", ["idle", "standby"])
    def test_fail_without_fault_injection_cancels_pending_events(
        self, initial_state: str
    ) -> None:
        """``fail()`` needs no fault injector: the armed service
        completion (IDLE disk) or spin-up completion (STANDBY disk,
        failed mid-spin-up) must not fire after the crash."""
        engine = SimulationEngine()
        disk, completions = make_disk(
            engine, service=1.0, initial_state=DiskPowerState(initial_state)
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.schedule(0.5, lambda: disk.fail(permanent=False))
        engine.run(until=max(2.0, 2 * TUP))
        assert completions == []
        assert disk.state is DiskPowerState.STANDBY
        assert engine.pending_events == 0


class TestSpinUpFailures:
    """The spin-up failure policy lives in the fault injector; the disk
    only asks it, at each spin-up completion, whether the attempt failed."""

    def _make_faulty(
        self, engine: SimulationEngine, probability: float, max_retries: int = 2
    ) -> Tuple[SimulatedDisk, FaultInjector, List[List[Request]]]:
        disk, _ = make_disk(engine)  # STANDBY: first submit spins up
        deaths: List[List[Request]] = []
        plan = FaultPlan(
            seed=7,
            spin_up=SpinUpFaults(probability=probability, max_retries=max_retries),
        )
        injector = FaultInjector(
            plan,
            engine,
            {0: disk},
            lambda disk_id, drained: deaths.append(drained),
        )
        return disk, injector, deaths

    def test_retries_then_bricks_after_budget(self) -> None:
        engine = SimulationEngine()
        disk, injector, deaths = self._make_faulty(engine, 1.0, max_retries=2)
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 5)))
        engine.run(until=10 * TUP)
        # Initial attempt + 2 retries, each paying the full Tup, then dead.
        report = injector.availability_report(engine.now, 0, 0, 0)
        assert report.spin_up_failures == 3
        assert report.disk_failures == 1
        assert disk.stats.spin_ups == 3
        assert disk.health is DiskHealth.FAILED
        assert len(deaths) == 1
        assert [r.request_id for r in deaths[0]] == [5]
        assert engine.now <= 10 * TUP  # no runaway retry loop

    def test_zero_retry_budget_bricks_on_first_failure(self) -> None:
        engine = SimulationEngine()
        disk, injector, deaths = self._make_faulty(engine, 1.0, max_retries=0)
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=2 * TUP)
        assert injector.availability_report(engine.now, 0, 0, 0).spin_up_failures == 1
        assert disk.stats.spin_ups == 1
        assert disk.health is DiskHealth.FAILED
        assert len(deaths) == 1

    def test_zero_probability_never_fails(self) -> None:
        engine = SimulationEngine()
        disk, injector, deaths = self._make_faulty(engine, 0.0)
        engine.schedule(0.0, lambda: disk.submit(req(0.0)))
        engine.run(until=TUP + 1.0)
        assert disk.stats.requests_serviced == 1
        assert disk.health is DiskHealth.HEALTHY
        assert injector.availability_report(engine.now, 0, 0, 0).spin_up_failures == 0
        assert deaths == []

    def test_repair_resets_the_streak(self) -> None:
        """A transient outage mid-streak ends with a fresh retry budget."""
        engine = SimulationEngine()
        disk, _ = make_disk(engine)
        drained: List[List[Request]] = []
        plan = FaultPlan(
            spin_up=SpinUpFaults(probability=1.0, max_retries=1),
            scripted=(ScriptedFault(0, at_s=1.5 * TUP, repair_after_s=0.1),),
        )
        injector = FaultInjector(
            plan, engine, {0: disk}, lambda disk_id, requests: drained.append(requests)
        )
        engine.schedule(0.0, lambda: disk.submit(req(0.0, 0)))
        engine.schedule(2 * TUP, lambda: disk.submit(req(2 * TUP, 1)))
        # One failure before the outage, one after the repair: without
        # the reset, the second would exceed the budget and brick it.
        engine.run(until=3.5 * TUP)
        assert disk.health is DiskHealth.HEALTHY
        assert injector.availability_report(engine.now, 0, 0, 0).spin_up_failures == 2
        engine.run(until=4.5 * TUP)
        assert disk.health is DiskHealth.FAILED
        assert [[r.request_id for r in batch] for batch in drained] == [[0], [1]]
