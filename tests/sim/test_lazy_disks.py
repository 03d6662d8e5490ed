"""Lazy disks: what goes through the engine, and what each reader sees.

A disk resolves its own completions, idle timeout and spin-down when it
is read; only its spin-up completion is an engine event. These tests
check that a replay keeps it that way, that the serving backend still
hands out completions in time order across disks, that a reader
outside the engine loop sees every transition due by the engine's
instant, and that the fault semantics hold: a crash drains queued
requests that never drew a service time, and a spin-up brick fails its
queue over at the spin-up end.
"""

from __future__ import annotations

import random
from typing import Callable, List, Tuple

from repro.core.heuristic import HeuristicScheduler
from repro.core.static_scheduler import StaticScheduler
from repro.disk.drive import SimulatedDisk
from repro.disk.service import (
    AnalyticServiceModel,
    ConstantServiceModel,
    ServiceTimeModel,
)
from repro.experiments.harness import runner
from repro.faults import FaultPlan, SpinUpFaults
from repro.placement.catalog import PlacementCatalog
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.profile import BARRACUDA
from repro.power.states import DiskPowerState
from repro.serve.backend import SimBackend
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.storage import StorageSystem
from repro.types import Request


def test_a_fault_free_replay_fires_no_disk_event_but_spin_up_ends(monkeypatch):
    fired: List[str] = []

    def recorded(callback: Callable[[], None]) -> Callable[[], None]:
        owner = getattr(callback, "__self__", None)
        if not isinstance(owner, SimulatedDisk):
            return callback

        def fire() -> None:
            fired.append(callback.__name__)
            callback()

        return fire

    original_schedule = SimulationEngine.schedule
    monkeypatch.setattr(
        SimulationEngine,
        "schedule",
        lambda engine, time, callback: original_schedule(
            engine, time, recorded(callback)
        ),
    )
    disks = runner.num_disks_for(0.05)
    requests, catalog = runner.get_workload("cello", 0.05, 1).bind(
        ZipfOriginalUniformReplicas(replication_factor=3, zipf_exponent=1.0),
        num_disks=disks,
        seed=1,
    )
    config = runner.make_config(disks, "paper-evaluation", 1)
    report = StorageSystem(catalog, HeuristicScheduler(), config).run(requests)
    spin_ups = sum(stats.spin_ups for stats in report.disk_stats.values())
    assert spin_ups > 0
    assert fired == ["_on_spin_up_complete"] * spin_ups
    # Every completion, idle timeout and spin-down end still counts.
    assert report.events_processed > len(requests) + spin_ups + report.requests_completed


def test_the_backend_reports_completions_in_time_order_across_disks():
    done: List[Tuple[float, int]] = []
    config = SimulationConfig(
        num_disks=3,
        profile=BARRACUDA,
        service_model=AnalyticServiceModel(),
        initial_state=DiskPowerState.IDLE,
        seed=5,
    )
    backend = SimBackend(
        PlacementCatalog({0: [0], 1: [1], 2: [2]}),
        config,
        on_complete=lambda request, disk_id, now: done.append((now, disk_id)),
        on_lost=lambda request, now: None,
    )
    for request_id in range(30):
        backend.submit(
            Request(time=0.0, request_id=request_id, data_id=request_id % 3),
            request_id % 3,
        )
    backend.advance_to(60.0)
    assert len(done) == 30
    assert done == sorted(done, key=lambda entry: entry[0])
    assert {disk_id for _, disk_id in done} == {0, 1, 2}


def test_a_reader_sees_every_transition_due_by_the_engine_instant():
    engine = SimulationEngine()
    disk = SimulatedDisk(
        disk_id=0,
        engine=engine,
        profile=BARRACUDA.with_overrides(breakeven_override=10.0),
        service_model=ConstantServiceModel(1.0),
        rng=random.Random(0),
        initial_state=DiskPowerState.IDLE,
    )
    engine.schedule(0.0, lambda: disk.submit(Request(time=0.0, request_id=0, data_id=0)))
    # Served [0, 1], idle [1, 11], spinning down [11, 13].
    engine.run(until=1.0)
    assert disk.state is DiskPowerState.IDLE
    assert disk.stats.requests_serviced == 1
    engine.run(until=11.0)
    assert disk.state is DiskPowerState.SPIN_DOWN
    engine.run(until=13.0)
    assert disk.state is DiskPowerState.STANDBY
    # The submit, the completion, the idle timeout, the spin-down end.
    assert engine.events_processed == 4
    assert engine.pending_events == 0


class _RecordingService(ServiceTimeModel):
    """One second per request; remembers which requests it drew for."""

    def __init__(self) -> None:
        self.drawn: List[int] = []

    def service_time(self, request: Request, rng: random.Random) -> float:
        self.drawn.append(request.request_id)
        return 1.0


def test_a_crash_drains_queued_requests_without_a_draw():
    engine = SimulationEngine()
    service = _RecordingService()
    disk = SimulatedDisk(
        disk_id=0,
        engine=engine,
        profile=BARRACUDA,
        service_model=service,
        initial_state=DiskPowerState.IDLE,
    )
    for request_id in range(3):
        engine.schedule(
            0.0,
            lambda request_id=request_id: disk.submit(
                Request(time=0.0, request_id=request_id, data_id=0)
            ),
        )
    engine.run(until=0.5)
    drained = disk.fail(permanent=False)
    assert [request.request_id for request in drained] == [0, 1, 2]
    assert service.drawn == [0]


def test_a_spin_up_brick_fails_its_queue_over_at_the_spin_up_end():
    # Both replicas brick on their first spin-up (Tup = 6 s): disk 0 at
    # 6, when its request moves to disk 1, which bricks at 12.
    config = SimulationConfig(
        num_disks=2,
        profile=BARRACUDA,
        service_model=ConstantServiceModel(1.0),
        horizon=30.0,
        fault_plan=FaultPlan(spin_up=SpinUpFaults(probability=1.0, max_retries=0)),
    )
    system = StorageSystem(PlacementCatalog({0: [0, 1]}), StaticScheduler(), config)
    report = system.run([Request(time=0.0, request_id=0, data_id=0)])
    assert report.availability is not None
    assert report.availability.requests_lost == 1
    for disk_id, up_at in ((0, 0.0), (1, 6.0)):
        state_time = report.disk_stats[disk_id].state_time
        assert state_time[DiskPowerState.SPIN_UP] == 6.0
        assert state_time[DiskPowerState.STANDBY] == 30.0 - 6.0
        assert report.availability.downtime_s[disk_id] == 30.0 - (up_at + 6.0)
