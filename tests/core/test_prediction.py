"""Tests for the prediction-augmented heuristic (future-work extension)."""

import pytest

from repro.core.cost import CostFunction
from repro.core.fleet import FleetCostState
from repro.core.prediction import (
    InterArrivalEstimator,
    PredictiveHeuristicScheduler,
)
from repro.errors import ConfigurationError
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


class TestEstimator:
    def test_unseen_disk_pessimistic(self):
        estimator = InterArrivalEstimator()
        assert estimator.expected_gap(0) == 1e6
        assert estimator.idle_through_window_probability(0, 40.0) > 0.99

    def test_ewma_converges_toward_observed_gap(self):
        estimator = InterArrivalEstimator(smoothing=0.5, initial_gap=100.0)
        for i in range(50):
            estimator.observe(0, float(i * 2))
        assert estimator.expected_gap(0) == pytest.approx(2.0, rel=0.05)

    def test_hot_disk_low_survival(self):
        estimator = InterArrivalEstimator(smoothing=0.5)
        for i in range(50):
            estimator.observe(0, float(i))
        assert estimator.idle_through_window_probability(0, 40.0) < 1e-10

    def test_first_observation_sets_baseline_only(self):
        estimator = InterArrivalEstimator(initial_gap=500.0)
        estimator.observe(0, 10.0)
        assert estimator.expected_gap(0) == 500.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InterArrivalEstimator(smoothing=0.0)
        with pytest.raises(ConfigurationError):
            InterArrivalEstimator(initial_gap=0.0)


class TestScheduler:
    def make_view(self):
        disks = {
            0: FakeDisk(DiskPowerState.STANDBY),
            1: FakeDisk(DiskPowerState.STANDBY),
        }
        catalog = PlacementCatalog({0: [0, 1]})
        return FakeView(disks, catalog, now=0.0)

    def test_learned_hot_disk_preferred_despite_standby_cost(self):
        """A standby disk known to be hot is (correctly) treated as cheap:
        it would wake soon regardless of this request."""
        scheduler = PredictiveHeuristicScheduler(
            cost_function=CostFunction(alpha=1.0, beta=100.0), smoothing=0.5
        )
        # Teach the estimator that disk 1 sees a request every second.
        for i in range(30):
            scheduler.estimator.observe(1, float(i))
        view = self.make_view()
        view.now = 30.0
        chosen = scheduler.choose(
            Request(time=30.0, request_id=0, data_id=0), view
        )
        assert chosen == 1

    def test_without_history_falls_back_to_plain_ordering(self):
        scheduler = PredictiveHeuristicScheduler()
        view = self.make_view()
        chosen = scheduler.choose(
            Request(time=0.0, request_id=0, data_id=0), view
        )
        assert chosen == 0  # tie -> lowest disk id, like the plain heuristic

    def test_decisions_feed_the_estimator(self):
        scheduler = PredictiveHeuristicScheduler()
        view = self.make_view()
        scheduler.choose(Request(time=0.0, request_id=0, data_id=0), view)
        view.now = 5.0
        scheduler.choose(Request(time=5.0, request_id=1, data_id=0), view)
        # The chosen disk has at least a last-seen timestamp recorded.
        assert scheduler.estimator._last_time  # noqa: SLF001 (test-only peek)

    def test_name(self):
        assert "Predictive" in PredictiveHeuristicScheduler().name


class TestEndToEnd:
    def test_predictive_energy_close_to_or_better_than_plain(self):
        """On a skewed workload the prediction should not hurt energy."""
        from repro.core.heuristic import HeuristicScheduler
        from repro.placement.schemes import ZipfOriginalUniformReplicas
        from repro.sim.config import SimulationConfig
        from repro.sim.runner import simulate
        from repro.traces.cello import CelloLikeConfig, generate_cello_like
        from repro.traces.workload import Workload

        workload = Workload(
            generate_cello_like(CelloLikeConfig().scaled(0.05), seed=2)
        )
        requests, catalog = workload.bind(
            ZipfOriginalUniformReplicas(replication_factor=3),
            num_disks=9,
            seed=3,
        )
        config = SimulationConfig(num_disks=9, profile=PAPER_EVAL)
        plain = simulate(requests, catalog, HeuristicScheduler(), config)
        predictive = simulate(
            requests, catalog, PredictiveHeuristicScheduler(), config
        )
        assert predictive.requests_completed == plain.requests_completed
        assert predictive.total_energy <= plain.total_energy * 1.15
