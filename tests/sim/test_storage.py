"""Tests for the StorageSystem wiring."""

import pytest

from repro.core.cost import CostFunction
from repro.core.heuristic import HeuristicScheduler
from repro.core.scheduler import OnlineScheduler
from repro.core.static_scheduler import StaticScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.core.mwis import MWISOfflineScheduler
from repro.disk.service import ConstantServiceModel
from repro.errors import SchedulingError, SimulationError
from repro.faults import FaultPlan, ScriptedFault
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_UNIT
from repro.sim.config import SimulationConfig
from repro.sim.storage import StorageSystem
from repro.types import DiskId, OpKind, Request


def unit_config(num_disks=3, **kwargs):
    defaults = dict(
        num_disks=num_disks,
        profile=PAPER_UNIT,
        service_model=ConstantServiceModel(0.0),
        drain_slack=1.0,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def make_requests(times, data_ids=None):
    data_ids = data_ids or [0] * len(times)
    return [
        Request(time=t, request_id=i, data_id=d)
        for i, (t, d) in enumerate(zip(times, data_ids))
    ]


class TestOnlineRuns:
    def test_all_requests_complete(self):
        catalog = PlacementCatalog({0: [0, 1]})
        system = StorageSystem(catalog, StaticScheduler(), unit_config())
        report = system.run(make_requests([0.0, 1.0, 2.0]))
        assert report.requests_completed == 3
        assert report.requests_offered == 3

    def test_static_routes_to_original(self):
        catalog = PlacementCatalog({0: [2, 0]})
        system = StorageSystem(catalog, StaticScheduler(), unit_config())
        report = system.run(make_requests([0.0]))
        assert report.disk_stats[2].requests_serviced == 1
        assert report.disk_stats[0].requests_serviced == 0

    def test_single_use(self):
        catalog = PlacementCatalog({0: [0]})
        system = StorageSystem(catalog, StaticScheduler(), unit_config())
        system.run(make_requests([0.0]))
        with pytest.raises(SimulationError, match="single-use"):
            system.run(make_requests([0.0]))

    def test_offline_scheduler_rejected(self):
        catalog = PlacementCatalog({0: [0]})
        with pytest.raises(SchedulingError):
            StorageSystem(catalog, MWISOfflineScheduler(), unit_config())

    def test_bad_scheduler_decision_caught(self):
        class RogueScheduler(OnlineScheduler):
            def choose(self, request, view) -> DiskId:
                return 2  # does not hold the data

        catalog = PlacementCatalog({0: [0, 1]})
        system = StorageSystem(catalog, RogueScheduler(), unit_config())
        # The engine wraps callback failures with event context but keeps
        # the scheduling error as the cause chain.
        with pytest.raises(SimulationError, match="not a live replica") as excinfo:
            system.run(make_requests([0.0]))
        assert isinstance(excinfo.value.__cause__, SchedulingError)
        assert "t=0" in str(excinfo.value)

    def test_read_to_a_down_replica_caught(self):
        class FirstReplica(OnlineScheduler):
            def choose(self, request, view) -> DiskId:
                return view.locations(request.data_id)[0]  # ignores liveness

        catalog = PlacementCatalog({0: [0, 1]})
        plan = FaultPlan(seed=0, scripted=(ScriptedFault(disk_id=0, at_s=0.0),))
        system = StorageSystem(catalog, FirstReplica(), unit_config(fault_plan=plan))
        with pytest.raises(SimulationError, match="not a live replica") as excinfo:
            system.run(make_requests([1.0]))
        assert isinstance(excinfo.value.__cause__, SchedulingError)

    def test_write_to_a_negative_disk_caught(self):
        class Underflow(OnlineScheduler):
            def choose(self, request, view) -> DiskId:
                return -1  # would index the last disk if it wrapped

        catalog = PlacementCatalog({0: [0, 1]})
        system = StorageSystem(catalog, Underflow(), unit_config())
        write = Request(time=0.0, request_id=0, data_id=0, op=OpKind.WRITE)
        with pytest.raises(SimulationError, match="unknown disk -1") as excinfo:
            system.run([write])
        assert isinstance(excinfo.value.__cause__, SchedulingError)

    def test_empty_request_stream(self):
        catalog = PlacementCatalog({0: [0]})
        system = StorageSystem(catalog, StaticScheduler(), unit_config())
        report = system.run([])
        assert report.requests_completed == 0
        assert report.total_energy == 0.0


class TestBatchRuns:
    def test_batch_dispatches_at_interval(self):
        catalog = PlacementCatalog({0: [0], 1: [0]})
        scheduler = WSCBatchScheduler(interval=0.5)
        system = StorageSystem(catalog, scheduler, unit_config())
        report = system.run(make_requests([0.1, 0.2], data_ids=[0, 1]))
        assert report.requests_completed == 2
        # Both dispatched together at the 0.5s tick: response time includes
        # the queueing delay.
        assert min(report.response_times) >= 0.3 - 1e-6

    def test_batch_requests_in_separate_intervals(self):
        catalog = PlacementCatalog({0: [0], 1: [0]})
        scheduler = WSCBatchScheduler(interval=0.5)
        system = StorageSystem(catalog, scheduler, unit_config())
        report = system.run(make_requests([0.1, 0.9], data_ids=[0, 1]))
        assert report.requests_completed == 2
        assert report.response_times[0] == pytest.approx(0.4)
        assert report.response_times[1] == pytest.approx(0.1)

    def test_wsc_full_paper_example(self, paper_catalog, batch_requests):
        scheduler = WSCBatchScheduler(
            interval=0.1, cost_function=CostFunction(alpha=1.0)
        )
        system = StorageSystem(paper_catalog, scheduler, unit_config(num_disks=4))
        report = system.run(batch_requests)
        assert report.requests_completed == 6
        used = [
            disk_id
            for disk_id, stats in report.disk_stats.items()
            if stats.requests_serviced > 0
        ]
        assert len(used) == 2  # schedule-B-style minimum cover


class TestViewProtocol:
    def test_view_exposes_profile_and_locations(self):
        catalog = PlacementCatalog({7: [1, 2]})
        system = StorageSystem(catalog, StaticScheduler(), unit_config())
        assert system.profile is PAPER_UNIT
        assert system.locations(7) == (1, 2)
        assert system.disk(1).queue_length == 0

    def test_heuristic_sees_live_state(self):
        """After the first request wakes disk 0, the heuristic should
        route the next request (replicated on both) to the same disk."""
        catalog = PlacementCatalog({0: [0], 1: [0, 1]})
        config = unit_config(num_disks=2)
        system = StorageSystem(catalog, HeuristicScheduler(), config)
        report = system.run(make_requests([0.0, 1.0], data_ids=[0, 1]))
        assert report.disk_stats[0].requests_serviced == 2
        assert report.disk_stats[1].requests_serviced == 0


class TestHorizon:
    def test_fixed_horizon_truncates_stats(self):
        catalog = PlacementCatalog({0: [0]})
        config = unit_config(horizon=50.0)
        system = StorageSystem(catalog, StaticScheduler(), config)
        report = system.run(make_requests([0.0]))
        assert report.duration == pytest.approx(50.0)
        assert report.disk_stats[0].total_time == pytest.approx(50.0)

    def test_derived_horizon_covers_drain(self):
        catalog = PlacementCatalog({0: [0]})
        config = unit_config(drain_slack=2.0)
        system = StorageSystem(catalog, StaticScheduler(), config)
        report = system.run(make_requests([10.0]))
        # last arrival 10 + TB 5 + transitions 0 + slack 2.
        assert report.duration == pytest.approx(17.0)
