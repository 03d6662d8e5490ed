"""Tests for the WSC batch scheduler (Section 3.2 / Theorem 2)."""

import pytest

from repro.core.cost import CostFunction
from repro.core.fleet import FleetCostState
from repro.core.wsc import PAPER_BATCH_INTERVAL, WSCBatchScheduler
from repro.errors import ConfigurationError
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_EVAL, PAPER_UNIT
from repro.power.states import DiskPowerState
from repro.types import Request

#: Pure Eq. 5 set weights: Eq. 6 with alpha = 1 (energy over beta).
EQ5_WEIGHTS = CostFunction(alpha=1.0)


class FakeDisk:
    def __init__(self, state, queue_length=0, last_request_time=None):
        self.state = state
        self.queue_length = queue_length
        self.last_request_time = last_request_time


class FakeView:
    def __init__(self, disks, catalog, now=0.0, profile=PAPER_UNIT):
        self._disks = disks
        self._catalog = catalog
        self.now = now
        self.profile = profile

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


def standby_view(catalog, num_disks, profile=PAPER_UNIT):
    disks = {d: FakeDisk(DiskPowerState.STANDBY) for d in range(num_disks)}
    return FakeView(disks, catalog, profile=profile)


class TestFigure2Instance:
    """The paper's batch example: WSC should find the 2-disk cover."""

    def make(self):
        catalog = PlacementCatalog(
            {0: [0], 1: [0, 1], 2: [0, 1, 3], 3: [2, 3], 4: [0, 3], 5: [2, 3]}
        )
        requests = [
            Request(time=0.0, request_id=i, data_id=i) for i in range(6)
        ]
        return catalog, requests

    def test_covers_with_two_disks(self):
        catalog, requests = self.make()
        view = standby_view(catalog, 4)
        scheduler = WSCBatchScheduler(cost_function=EQ5_WEIGHTS)
        decisions = scheduler.choose_batch(requests, view)
        assert set(decisions) == {r.request_id for r in requests}
        used = set(decisions.values())
        assert len(used) == 2  # schedule B's minimum (d1 + d3 or d1 + d4)

    def test_every_request_lands_on_its_data(self):
        catalog, requests = self.make()
        view = standby_view(catalog, 4)
        decisions = WSCBatchScheduler().choose_batch(requests, view)
        for request in requests:
            assert decisions[request.request_id] in catalog.locations(
                request.data_id
            )


class TestWeighting:
    def test_prefers_spinning_disks(self):
        catalog = PlacementCatalog({0: [0, 1]})
        disks = {
            0: FakeDisk(DiskPowerState.STANDBY),
            1: FakeDisk(DiskPowerState.IDLE, last_request_time=0.0),
        }
        view = FakeView(disks, catalog, now=1.0, profile=PAPER_EVAL)
        decisions = WSCBatchScheduler(cost_function=EQ5_WEIGHTS).choose_batch(
            [Request(time=1.0, request_id=0, data_id=0)], view
        )
        assert decisions[0] == 1

    def test_eq5_weight_used_when_cost_function_disabled(self):
        """With pure Eq. 5 weights an active disk is free."""
        catalog = PlacementCatalog({0: [0, 1]})
        disks = {
            0: FakeDisk(DiskPowerState.ACTIVE, queue_length=50),
            1: FakeDisk(DiskPowerState.IDLE, last_request_time=0.0),
        }
        view = FakeView(disks, catalog, now=30.0, profile=PAPER_EVAL)
        decisions = WSCBatchScheduler(cost_function=EQ5_WEIGHTS).choose_batch(
            [Request(time=30.0, request_id=0, data_id=0)], view
        )
        assert decisions[0] == 0

    def test_cost_function_weight_penalises_long_queues(self):
        catalog = PlacementCatalog({0: [0, 1]})
        disks = {
            0: FakeDisk(DiskPowerState.ACTIVE, queue_length=50),
            1: FakeDisk(DiskPowerState.IDLE, last_request_time=29.0),
        }
        view = FakeView(disks, catalog, now=30.0, profile=PAPER_EVAL)
        decisions = WSCBatchScheduler(
            cost_function=CostFunction(alpha=0.2, beta=100.0)
        ).choose_batch([Request(time=30.0, request_id=0, data_id=0)], view)
        assert decisions[0] == 1


class TestBatchBehaviour:
    def test_empty_batch(self):
        catalog = PlacementCatalog({0: [0]})
        view = standby_view(catalog, 1)
        assert WSCBatchScheduler().choose_batch([], view) == {}

    def test_paper_interval_default(self):
        assert WSCBatchScheduler().interval == PAPER_BATCH_INTERVAL == 0.1

    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            WSCBatchScheduler(interval=0.0)

    def test_load_spread_among_chosen_disks(self):
        """Requests covered by several chosen disks spread by queue length."""
        catalog = PlacementCatalog(
            {i: [0, 1] for i in range(10)} | {10: [0], 11: [1]}
        )
        view = standby_view(catalog, 2)
        requests = [
            Request(time=0.0, request_id=i, data_id=i) for i in range(12)
        ]
        decisions = WSCBatchScheduler().choose_batch(requests, view)
        used = set(decisions.values())
        assert used == {0, 1}
        counts = {0: 0, 1: 0}
        for disk in decisions.values():
            counts[disk] += 1
        assert abs(counts[0] - counts[1]) <= 2

    def test_name_mentions_interval(self):
        assert "0.1" in WSCBatchScheduler().name


class FleetOnlyView(FakeView):
    """A view whose disks can only be read through the fleet columns."""

    def disk(self, disk_id):
        raise AssertionError("choose_batch must read view.fleet, not view.disk")


class TestTieBreaks:
    """Disks 9 and 10: repr order ("10" < "9") differs from numeric order."""

    def requests(self, count):
        return [Request(time=0.0, request_id=i, data_id=i) for i in range(count)]

    def test_cover_picks_the_lower_repr_rank(self):
        # Both disks hold every item at equal weight and queue, so either
        # alone covers the batch; the greedy takes disk 10.
        catalog = PlacementCatalog({i: [9, 10] for i in range(4)})
        disks = {d: FakeDisk(DiskPowerState.STANDBY) for d in (9, 10)}
        view = FleetOnlyView(disks, catalog)
        decisions = WSCBatchScheduler().choose_batch(self.requests(4), view)
        assert set(decisions.values()) == {10}

    def test_tied_chosen_disks_share_the_batch_by_fleet_queue(self):
        # Item 0 only on disk 9, item 1 only on disk 10, the rest on both:
        # both disks are chosen, tied on weight and queue. Shared requests
        # alternate as extra load builds up, the lower disk id first.
        catalog = PlacementCatalog({0: [9], 1: [10], 2: [9, 10], 3: [9, 10], 4: [9, 10]})
        disks = {d: FakeDisk(DiskPowerState.STANDBY, queue_length=2) for d in (9, 10)}
        view = FleetOnlyView(disks, catalog)
        decisions = WSCBatchScheduler().choose_batch(self.requests(5), view)
        assert decisions == {0: 9, 1: 10, 2: 9, 3: 10, 4: 9}

    def test_routing_reads_the_fleet_queue(self):
        # Eq. 5 weights ignore the queue, so the disks tie on weight and
        # the longer fleet queue on disk 9 sends shared requests to 10
        # until the loads meet.
        catalog = PlacementCatalog({0: [9], 1: [10], 2: [9, 10], 3: [9, 10], 4: [9, 10]})
        disks = {
            9: FakeDisk(DiskPowerState.STANDBY, queue_length=3),
            10: FakeDisk(DiskPowerState.STANDBY, queue_length=0),
        }
        view = FleetOnlyView(disks, catalog)
        decisions = WSCBatchScheduler(cost_function=EQ5_WEIGHTS).choose_batch(
            self.requests(5), view
        )
        assert decisions == {0: 9, 1: 10, 2: 10, 3: 10, 4: 10}


class TestPlacementLookupCount:
    def test_available_locations_called_once_per_request(self):
        """choose_batch resolves each request's placement exactly once.

        Regression test for the double lookup (once building coverage,
        again when routing) — the routing loop must reuse the tuples
        gathered in the coverage pass.
        """
        catalog = PlacementCatalog(
            {0: [0], 1: [0, 1], 2: [0, 1, 3], 3: [2, 3], 4: [0, 3], 5: [2, 3]}
        )
        view = standby_view(catalog, 4)
        calls = []
        inner = view.available_locations

        def counting(data_id):
            calls.append(data_id)
            return inner(data_id)

        view.available_locations = counting
        requests = [
            Request(time=0.0, request_id=i, data_id=i) for i in range(6)
        ]
        WSCBatchScheduler().choose_batch(requests, view)
        assert sorted(calls) == [r.data_id for r in requests]
