"""Tests for the online scheduler contract, the Random and Static
baselines and the scheduler factory."""

import pytest

from repro.core.random_scheduler import RandomScheduler
from repro.core.scheduler import OnlineScheduler, Scheduler
from repro.core.static_scheduler import StaticScheduler
from repro.errors import ConfigurationError, ReplicaUnavailableError
from repro.experiments.harness import SCHEDULER_KEYS, cell_spec, make_scheduler
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_EVAL
from repro.types import Request


class FakeView:
    """Minimal SystemView for scheduler unit tests."""

    def __init__(self, catalog, now=0.0):
        self._catalog = catalog
        self.now = now
        self.profile = PAPER_EVAL

    def locations(self, data_id):
        return self._catalog.locations(data_id)

    def available_locations(self, data_id):
        return self._catalog.locations(data_id)

    def disk(self, disk_id):
        raise AssertionError("baselines must not inspect disk state")


@pytest.fixture
def view():
    return FakeView(PlacementCatalog({0: [3, 1, 4]}))


def req(data_id=0):
    return Request(time=0.0, request_id=0, data_id=data_id)


class TestOnlineContract:
    def test_neither_bind_nor_choose_rejected_at_definition(self):
        with pytest.raises(TypeError, match="neither bind"):

            class Undecided(OnlineScheduler):
                pass

    def test_choose_runs_the_bound_picker_on_live_replicas(self, view):
        seen = []

        class Last(OnlineScheduler):
            def bind(self, view):
                def pick(request, locations, now):
                    seen.append((tuple(locations), now))
                    return locations[-1]

                return pick

        view.now = 7.0
        assert Last().choose(req(), view) == 4
        assert seen == [((3, 1, 4), 7.0)]

    def test_choose_without_live_replica_raises(self):
        class NoneLive(FakeView):
            def available_locations(self, data_id):
                return ()

        view = NoneLive(PlacementCatalog({0: [3]}))
        with pytest.raises(ReplicaUnavailableError):
            StaticScheduler().choose(req(), view)

    def test_choose_override_wins_over_an_inherited_bind(self, view):
        class Contrarian(StaticScheduler):
            def choose(self, request, view):
                return 1

        pick = Contrarian().bind(view)
        assert pick(req(), (3, 1, 4), 0.0) == 1


class TestStatic:
    def test_always_picks_original(self, view):
        scheduler = StaticScheduler()
        assert all(scheduler.choose(req(), view) == 3 for _ in range(10))

    def test_name(self):
        assert StaticScheduler().name == "Static"


class TestRandom:
    def test_only_picks_valid_locations(self, view):
        scheduler = RandomScheduler(seed=0)
        picks = {scheduler.choose(req(), view) for _ in range(100)}
        assert picks <= {3, 1, 4}

    def test_eventually_uses_every_replica(self, view):
        scheduler = RandomScheduler(seed=0)
        picks = {scheduler.choose(req(), view) for _ in range(200)}
        assert picks == {3, 1, 4}

    def test_deterministic_given_seed(self, view):
        a = [RandomScheduler(seed=5).choose(req(), view) for _ in range(20)]
        b = [RandomScheduler(seed=5).choose(req(), view) for _ in range(20)]
        assert a == b

    def test_roughly_uniform(self, view):
        scheduler = RandomScheduler(seed=1)
        counts = {3: 0, 1: 0, 4: 0}
        n = 3000
        for _ in range(n):
            counts[scheduler.choose(req(), view)] += 1
        for disk in counts:
            assert counts[disk] == pytest.approx(n / 3, rel=0.2)


def spec_for(key):
    return cell_spec("cello", 1, key, scale=0.01, seed=1)


class TestRegistry:
    def test_all_five_schedulers_registered(self):
        assert set(SCHEDULER_KEYS) == {"static", "random", "heuristic", "wsc", "mwis"}
        for key in SCHEDULER_KEYS:
            assert isinstance(make_scheduler(spec_for(key)), Scheduler)

    def test_make_scheduler(self):
        assert make_scheduler(spec_for("static")).name == "Static"

    def test_unknown_scheduler(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            make_scheduler(spec_for("quantum"))
