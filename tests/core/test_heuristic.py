"""Tests for the energy-aware online Heuristic (Section 3.3)."""

from repro.core.cost import CostFunction
from repro.core.fleet import FleetCostState
from repro.core.heuristic import HeuristicScheduler
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_EVAL
from repro.power.states import DiskPowerState
from repro.types import Request


class FakeDisk:
    def __init__(self, state, queue_length=0, last_request_time=None):
        self.state = state
        self.queue_length = queue_length
        self.last_request_time = last_request_time


class FakeView:
    def __init__(self, disks, catalog, now=100.0):
        self._disks = disks
        self._catalog = catalog
        self.now = now
        self.profile = PAPER_EVAL

    def disk(self, disk_id):
        return self._disks[disk_id]

    @property
    def fleet(self):
        """The fake disks as Eq. 5/6 columns, via the library encoder."""
        fleet = FleetCostState(max(self._disks) + 1, self.profile)
        for disk_id, disk in self._disks.items():
            fleet.encode(disk_id, disk.state, disk.last_request_time)
            if disk.last_request_time is not None:
                fleet.tlast[disk_id] = disk.last_request_time
            fleet.queue[disk_id] = disk.queue_length
        return fleet

    def locations(self, data_id):
        return self._catalog.locations(data_id)

    def available_locations(self, data_id):
        return self._catalog.locations(data_id)


def req(data_id=0):
    return Request(time=100.0, request_id=0, data_id=data_id)


def make_view(disk_states):
    disks = dict(enumerate(disk_states))
    catalog = PlacementCatalog({0: list(disks)})
    return FakeView(disks, catalog)


class TestEnergyPreferences:
    def test_prefers_active_over_standby(self):
        view = make_view(
            [FakeDisk(DiskPowerState.STANDBY), FakeDisk(DiskPowerState.ACTIVE, 1)]
        )
        assert HeuristicScheduler().choose(req(), view) == 1

    def test_prefers_spinning_up_over_standby(self):
        """Paper: a spinning-up disk overlays requests into one wake-up."""
        view = make_view(
            [FakeDisk(DiskPowerState.STANDBY), FakeDisk(DiskPowerState.SPIN_UP, 1)]
        )
        assert HeuristicScheduler().choose(req(), view) == 1

    def test_prefers_recently_touched_idle_over_standby(self):
        view = make_view(
            [
                FakeDisk(DiskPowerState.STANDBY),
                FakeDisk(DiskPowerState.IDLE, 0, last_request_time=99.0),
            ]
        )
        assert HeuristicScheduler().choose(req(), view) == 1

    def test_pure_energy_alpha_prefers_fresh_idle_over_stale_idle(self):
        scheduler = HeuristicScheduler(CostFunction(alpha=1.0, beta=1.0))
        view = make_view(
            [
                FakeDisk(DiskPowerState.IDLE, 0, last_request_time=60.0),
                FakeDisk(DiskPowerState.IDLE, 0, last_request_time=99.0),
            ]
        )
        assert scheduler.choose(req(), view) == 1


class TestLoadBalancing:
    def test_alpha_zero_balances_queues(self):
        scheduler = HeuristicScheduler(CostFunction(alpha=0.0, beta=100.0))
        view = make_view(
            [
                FakeDisk(DiskPowerState.ACTIVE, queue_length=5),
                FakeDisk(DiskPowerState.STANDBY, queue_length=0),
            ]
        )
        # Pure-performance cost ignores the wake-up energy entirely.
        assert scheduler.choose(req(), view) == 1

    def test_paper_alpha_tolerates_short_queue_before_waking_disk(self):
        scheduler = HeuristicScheduler()  # alpha=0.2, beta=100
        # Standby energy cost = EPmax * 0.002 ~ 1.59 == two queued requests.
        view = make_view(
            [
                FakeDisk(DiskPowerState.ACTIVE, queue_length=1),
                FakeDisk(DiskPowerState.STANDBY, queue_length=0),
            ]
        )
        assert scheduler.choose(req(), view) == 0

    def test_paper_alpha_wakes_disk_when_queue_gets_long(self):
        scheduler = HeuristicScheduler()
        view = make_view(
            [
                FakeDisk(DiskPowerState.ACTIVE, queue_length=10),
                FakeDisk(DiskPowerState.STANDBY, queue_length=0),
            ]
        )
        assert scheduler.choose(req(), view) == 1


class TestTieBreaks:
    def test_equal_cost_breaks_on_queue_then_id(self):
        view = make_view(
            [
                FakeDisk(DiskPowerState.STANDBY, queue_length=0),
                FakeDisk(DiskPowerState.STANDBY, queue_length=0),
            ]
        )
        assert HeuristicScheduler().choose(req(), view) == 0

    def test_single_location_trivial(self):
        disks = {7: FakeDisk(DiskPowerState.STANDBY)}
        catalog = PlacementCatalog({0: [7]})
        view = FakeView(disks, catalog)
        assert HeuristicScheduler().choose(req(), view) == 7


class TestName:
    def test_name_includes_parameters(self):
        scheduler = HeuristicScheduler(CostFunction(alpha=0.4, beta=10.0))
        assert "0.4" in scheduler.name
        assert "10" in scheduler.name
