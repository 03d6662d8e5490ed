"""Tests for covering subsets and the covering-set scheduler."""

from repro.core.covering_scheduler import CoveringSetScheduler
from repro.core.fleet import FleetCostState
from repro.placement.catalog import PlacementCatalog
from repro.placement.covering import covering_subset
from repro.power.profile import PAPER_EVAL
from repro.power.states import DiskPowerState
from repro.types import Request


class FakeDisk:
    def __init__(self, state, queue_length=0, last_request_time=None):
        self.state = state
        self.queue_length = queue_length
        self.last_request_time = last_request_time


class FakeView:
    def __init__(self, disks, catalog, now=0.0):
        self._disks = disks
        self._catalog = catalog
        self.now = now
        self.profile = PAPER_EVAL

    @property
    def disk_ids(self):
        return sorted(self._disks)

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

    def available_locations(self, data_id):
        return self._catalog.locations(data_id)


class TestCoveringSubset:
    def test_single_disk_covers_everything(self):
        catalog = PlacementCatalog({0: [1, 0], 1: [1, 2], 2: [1]})
        assert covering_subset(catalog) == [1]

    def test_cover_is_actually_covering(self):
        catalog = PlacementCatalog(
            {0: [0, 1], 1: [1, 2], 2: [2, 3], 3: [3, 0], 4: [0, 2]}
        )
        chosen = set(covering_subset(catalog))
        for data_id in catalog:
            assert chosen & set(catalog.locations(data_id))

    def test_weighted_cover_prefers_hot_coverage(self):
        # Disk 0 covers two cold items; disk 1 covers one very hot item.
        catalog = PlacementCatalog({0: [0], 1: [0], 2: [1]})
        weights = {2: 100.0, 0: 1.0, 1: 1.0}
        chosen = covering_subset(catalog, weights)
        assert chosen == [1, 0]
        # Unweighted, the two-item disk is picked first instead.
        assert covering_subset(catalog) == [0, 1]

    def test_empty_catalog(self):
        assert covering_subset(PlacementCatalog({})) == []

    def test_greedy_is_reasonably_small(self):
        import random

        rng = random.Random(0)
        locations = {
            d: rng.sample(range(20), 3) for d in range(300)
        }
        catalog = PlacementCatalog(locations)
        chosen = covering_subset(catalog)
        assert len(chosen) <= 20
        covered = set()
        for disk in chosen:
            covered.update(catalog.data_on_disk(disk))
        assert covered == set(range(300))


class TestCoveringSetScheduler:
    def test_prefers_covering_replica(self):
        catalog = PlacementCatalog({0: [2, 1], 1: [1], 2: [1, 3]})
        # Covering subset is {1} (covers everything).
        disks = {
            1: FakeDisk(DiskPowerState.STANDBY),
            2: FakeDisk(DiskPowerState.IDLE, last_request_time=0.0),
            3: FakeDisk(DiskPowerState.IDLE, last_request_time=0.0),
        }
        scheduler = CoveringSetScheduler(catalog)
        assert scheduler.covering == {1}
        view = FakeView(disks, catalog)
        # Even though disk 2 is idle (cheap), the covering disk wins.
        chosen = scheduler.choose(
            Request(time=0.0, request_id=0, data_id=0), view
        )
        assert chosen == 1

    def test_falls_back_outside_cover(self):
        # Data 9 has no covering replica (not in catalog used for cover).
        catalog = PlacementCatalog({0: [1], 9: [4, 5]})
        scheduler = CoveringSetScheduler(PlacementCatalog({0: [1]}))
        disks = {
            4: FakeDisk(DiskPowerState.IDLE, last_request_time=0.0),
            5: FakeDisk(DiskPowerState.STANDBY),
        }
        view = FakeView(disks, catalog)
        chosen = scheduler.choose(
            Request(time=0.0, request_id=0, data_id=9), view
        )
        assert chosen in (4, 5)

    def test_concentrates_traffic_end_to_end(self):
        from repro.placement.schemes import ZipfOriginalUniformReplicas
        from repro.sim.config import SimulationConfig
        from repro.sim.runner import simulate
        from repro.traces.cello import CelloLikeConfig, generate_cello_like
        from repro.traces.workload import Workload

        workload = Workload(
            generate_cello_like(CelloLikeConfig().scaled(0.05), seed=4)
        )
        requests, catalog = workload.bind(
            ZipfOriginalUniformReplicas(replication_factor=3),
            num_disks=9,
            seed=6,
        )
        scheduler = CoveringSetScheduler(catalog)
        config = SimulationConfig(num_disks=9, profile=PAPER_EVAL)
        report = simulate(requests, catalog, scheduler, config)
        assert report.requests_completed == report.requests_offered
        served = {
            d: stats.requests_serviced
            for d, stats in report.disk_stats.items()
        }
        inside = sum(served[d] for d in scheduler.covering)
        assert inside / sum(served.values()) > 0.95
