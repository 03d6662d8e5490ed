"""End-to-end failover: scripted faults driven through StorageSystem."""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

import pytest

from repro.core.covering_scheduler import CoveringSetScheduler
from repro.core.heuristic import HeuristicScheduler
from repro.core.prediction import PredictiveHeuristicScheduler
from repro.core.random_scheduler import RandomScheduler
from repro.core.scheduler import Scheduler
from repro.core.static_scheduler import StaticScheduler
from repro.core.writeoffload import WriteOffloadingScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.disk.service import ConstantServiceModel
from repro.faults import FaultPlan, ScriptedFault, SpinUpFaults, TransientFaults
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import BARRACUDA, PAPER_UNIT
from repro.report import AvailabilityReport, SimulationReport
from repro.sim.config import SimulationConfig
from repro.sim.fleet import MAX_FAILOVER_ATTEMPTS
from repro.sim.storage import StorageSystem
from repro.types import OpKind, Request


def unit_config(
    num_disks: int = 2,
    service: float = 1.0,
    fault_plan: Optional[FaultPlan] = None,
) -> SimulationConfig:
    return SimulationConfig(
        num_disks=num_disks,
        profile=PAPER_UNIT,
        service_model=ConstantServiceModel(service),
        drain_slack=5.0,
        fault_plan=fault_plan,
    )


def make_requests(times: Sequence[float], data_id: int = 0) -> List[Request]:
    return [
        Request(time=t, request_id=i, data_id=data_id)
        for i, t in enumerate(times)
    ]


def scripted(*faults: ScriptedFault) -> FaultPlan:
    return FaultPlan(scripted=tuple(faults))


def availability_of(report: SimulationReport) -> AvailabilityReport:
    assert report.availability is not None
    return report.availability


class TestMidFlightFailover:
    def test_death_redispatches_queue_to_surviving_replica(self) -> None:
        catalog = PlacementCatalog({0: [0, 1]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.5))
        system = StorageSystem(catalog, StaticScheduler(), unit_config(fault_plan=plan))
        report = system.run(make_requests([0.0, 0.1]))
        # Static routes both to disk 0; its death at 0.5 drains them and
        # the failover path re-runs them on disk 1.
        assert report.requests_completed == 2
        avail = availability_of(report)
        assert avail.requests_redispatched == 2
        assert avail.requests_lost == 0
        assert avail.disk_failures == 1
        assert report.disk_stats[1].requests_serviced == 2
        assert report.disk_stats[0].requests_serviced == 0

    @pytest.mark.parametrize(
        "scheduler",
        [
            StaticScheduler(),
            RandomScheduler(seed=1),
            HeuristicScheduler(),
            PredictiveHeuristicScheduler(),
            CoveringSetScheduler(PlacementCatalog({0: [0, 1]})),
            WriteOffloadingScheduler(HeuristicScheduler()),
        ],
        ids=["static", "random", "heuristic", "predictive", "covering", "offload"],
    )
    def test_online_schedulers_skip_dead_replica(
        self, scheduler: Scheduler
    ) -> None:
        catalog = PlacementCatalog({0: [0, 1]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.0))
        system = StorageSystem(catalog, scheduler, unit_config(fault_plan=plan))
        # The first request is a write that finds every disk asleep, so the
        # off-loader wakes a replica of its own data: the live one.
        requests = make_requests([0.5, 1.0, 1.5])
        requests[0] = replace(requests[0], op=OpKind.WRITE)
        report = system.run(requests)
        assert report.requests_completed == 3
        assert report.disk_stats[0].requests_serviced == 0
        assert report.disk_stats[1].requests_serviced == 3
        assert availability_of(report).requests_lost == 0

    def test_failover_ties_go_to_the_lowest_disk_id(self) -> None:
        # Static sends the read to disk 0; when disk 0 dies mid-service,
        # disks 2 and 1 are equally idle, and the lower id takes it
        # whatever the placement order.
        catalog = PlacementCatalog({0: [0, 2, 1]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.5))
        system = StorageSystem(
            catalog, StaticScheduler(), unit_config(num_disks=3, fault_plan=plan)
        )
        report = system.run(make_requests([0.0]))
        assert report.requests_completed == 1
        assert availability_of(report).requests_redispatched == 1
        assert system.disk(1).stats.requests_serviced == 1
        assert system.disk(2).stats.requests_serviced == 0


class TestDataLoss:
    def test_all_replicas_dead_records_lost_not_crash(self) -> None:
        catalog = PlacementCatalog({0: [0]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.5))
        system = StorageSystem(
            catalog, StaticScheduler(), unit_config(num_disks=1, fault_plan=plan)
        )
        # First request is mid-service when the only replica dies; the
        # second arrives after the death.  Both are lost, neither raises.
        report = system.run(make_requests([0.0, 1.0]))
        assert report.requests_completed == 0
        avail = availability_of(report)
        assert avail.requests_lost == 2
        assert avail.loss_fraction(report.requests_offered) == 1.0
        assert avail.requests_redispatched == 0

    def test_partial_fleet_death_loses_nothing(self) -> None:
        catalog = PlacementCatalog({0: [0, 1], 1: [1, 0]})
        plan = scripted(ScriptedFault(disk_id=1, at_s=0.25))
        system = StorageSystem(catalog, HeuristicScheduler(), unit_config(fault_plan=plan))
        report = system.run(
            make_requests([0.0, 0.5, 1.0]) + [Request(time=0.5, request_id=9, data_id=1)]
        )
        assert report.requests_completed == 4
        assert availability_of(report).requests_lost == 0


class TestTransientBackoff:
    def test_request_during_outage_retries_then_completes(self) -> None:
        catalog = PlacementCatalog({0: [0]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.5, repair_after_s=2.0))
        system = StorageSystem(
            catalog, StaticScheduler(), unit_config(num_disks=1, fault_plan=plan)
        )
        report = system.run(make_requests([1.0]))
        # Arrival at t=1 finds the only replica down (outage 0.5..2.5);
        # exponential backoff retries at 1.5 and 2.5, the second of which
        # lands after the repair.
        assert report.requests_completed == 1
        avail = availability_of(report)
        assert avail.requests_lost == 0
        assert avail.failover_retries == 2
        assert avail.transient_outages == 1
        assert avail.downtime_s[0] == pytest.approx(2.0)
        assert report.response_times[0] == pytest.approx(1.5 + 1.0)

    @pytest.mark.parametrize(
        "scheduler",
        [StaticScheduler(), WSCBatchScheduler(interval=0.5)],
        ids=["online", "batch"],
    )
    def test_backoff_past_the_horizon_ends_in_a_typed_loss(
        self, scheduler: Scheduler
    ) -> None:
        catalog = PlacementCatalog({0: [0], 1: [1]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.5, repair_after_s=100.0))
        config = SimulationConfig(
            num_disks=2,
            profile=PAPER_UNIT,
            service_model=ConstantServiceModel(1.0),
            drain_slack=0.0,
            fault_plan=plan,
        )
        system = StorageSystem(catalog, scheduler, config)
        report = system.run(
            make_requests([1.0]) + [Request(time=1.0, request_id=9, data_id=1)]
        )
        # Horizon = 1 + 5 s breakeven; data 0's only replica is down until
        # t=100.5, and its backoff re-admission at t=8.5 lies past the
        # horizon, so the request must end lost rather than unresolved.
        avail = availability_of(report)
        assert report.requests_completed == 1
        assert avail.requests_lost == 1
        assert (
            report.requests_completed + avail.requests_lost
            == report.requests_offered
        )

    def test_retry_budget_spans_the_request_life(self) -> None:
        # Outages about every second against a 6 s spin-up: each replica
        # that takes the read goes down under it and drains it back, and
        # every drain finds no live replica. The budget bounds the
        # request's whole life, not each run of consecutive backoffs.
        config = SimulationConfig(
            num_disks=2,
            profile=BARRACUDA,
            seed=1,
            fault_plan=FaultPlan(
                seed=1, transient=TransientFaults(mtbf_s=1.0, mean_repair_s=1.0)
            ),
        )
        system = StorageSystem(
            PlacementCatalog({0: [0, 1]}), HeuristicScheduler(), config
        )
        report = system.run(make_requests([0.0]))
        avail = availability_of(report)
        assert 0 < avail.failover_retries <= MAX_FAILOVER_ATTEMPTS
        assert report.requests_completed + avail.requests_lost == 1

    def test_requests_held_by_a_disk_at_the_horizon_end_lost(self) -> None:
        catalog = PlacementCatalog({0: [0]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=100.0))
        config = SimulationConfig(
            num_disks=1,
            profile=PAPER_UNIT,
            service_model=ConstantServiceModel(10.0),
            horizon=5.0,
            fault_plan=plan,
        )
        system = StorageSystem(catalog, HeuristicScheduler(), config)
        report = system.run(make_requests([0.0, 1.0]))
        # The horizon cuts request 0 in service and request 1 queued
        # behind it: both are typed losses, in service order.
        assert report.requests_completed == 0
        assert availability_of(report).requests_lost == 2
        assert system._metrics.lost_request_ids == [0, 1]

    def test_availability_accounts_open_ended_downtime(self) -> None:
        catalog = PlacementCatalog({0: [0, 1]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=1.0))
        system = StorageSystem(catalog, StaticScheduler(), unit_config(fault_plan=plan))
        report = system.run(make_requests([0.0]))
        avail = availability_of(report)
        # Disk 0 is down from t=1 to the end of the run; disk 1 never is.
        assert avail.downtime_s[0] == pytest.approx(report.duration - 1.0)
        assert 1 not in avail.downtime_s
        assert avail.disk_seconds == pytest.approx(2 * report.duration)
        assert 0.0 < avail.availability < 1.0
        expected = 1.0 - (report.duration - 1.0) / (2 * report.duration)
        assert avail.availability == pytest.approx(expected)


class TestBatchFailover:
    def test_wsc_batch_routes_around_dead_disk(self) -> None:
        catalog = PlacementCatalog({0: [0, 1], 1: [0, 1]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.2))
        system = StorageSystem(
            catalog,
            WSCBatchScheduler(interval=0.5),
            unit_config(fault_plan=plan),
        )
        report = system.run(
            make_requests([0.1, 0.3]) + [Request(time=0.3, request_id=9, data_id=1)]
        )
        assert report.requests_completed == 3
        assert report.disk_stats[0].requests_serviced == 0
        assert availability_of(report).requests_lost == 0

    def test_wsc_batch_with_total_loss_does_not_crash(self) -> None:
        catalog = PlacementCatalog({0: [0]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.2))
        system = StorageSystem(
            catalog,
            WSCBatchScheduler(interval=0.5),
            unit_config(num_disks=1, fault_plan=plan),
        )
        report = system.run(make_requests([0.3]))
        assert report.requests_completed == 0
        assert availability_of(report).requests_lost == 1


class TestSpinUpFaultIntegration:
    def test_fleet_bricked_by_spin_up_failures(self) -> None:
        catalog = PlacementCatalog({0: [0, 1]})
        plan = FaultPlan(spin_up=SpinUpFaults(probability=1.0, max_retries=0))
        system = StorageSystem(catalog, StaticScheduler(), unit_config(fault_plan=plan))
        # With Tup=0 and certain failure, the first submission bricks
        # disk 0 inline, failover bricks disk 1, and the request is lost.
        report = system.run(make_requests([0.0]))
        assert report.requests_completed == 0
        avail = availability_of(report)
        assert avail.spin_up_failures == 2
        assert avail.disk_failures == 2
        assert avail.requests_lost == 1


class TestReportSurface:
    def test_no_fault_run_has_no_availability(self) -> None:
        catalog = PlacementCatalog({0: [0, 1]})
        system = StorageSystem(catalog, StaticScheduler(), unit_config())
        report = system.run(make_requests([0.0]))
        assert report.availability is None
        assert "availability" not in report.summary()

    def test_faulted_summary_mentions_availability(self) -> None:
        catalog = PlacementCatalog({0: [0, 1]})
        plan = scripted(ScriptedFault(disk_id=0, at_s=0.5))
        system = StorageSystem(catalog, StaticScheduler(), unit_config(fault_plan=plan))
        report = system.run(make_requests([0.0]))
        summary = report.summary()
        assert "availability" in summary
        assert "lost / redispatched" in summary
