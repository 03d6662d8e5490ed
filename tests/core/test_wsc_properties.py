"""Property-based tests of the WSC batch scheduler (Theorem 2 claims)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostFunction, energy_cost
from repro.core.fleet import FleetCostState
from repro.core.wsc import WSCBatchScheduler
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

    def locations(self, data_id):
        return self._catalog.locations(data_id)

    def available_locations(self, data_id):
        return self._catalog.locations(data_id)


@st.composite
def batch_instances(draw):
    num_disks = draw(st.integers(min_value=1, max_value=6))
    num_requests = draw(st.integers(min_value=1, max_value=12))
    locations = {}
    for data_id in range(num_requests):
        count = draw(st.integers(min_value=1, max_value=num_disks))
        perm = draw(st.permutations(range(num_disks)))
        locations[data_id] = list(perm)[:count]
    states = {}
    for disk_id in range(num_disks):
        state = draw(
            st.sampled_from(
                [
                    DiskPowerState.STANDBY,
                    DiskPowerState.IDLE,
                    DiskPowerState.ACTIVE,
                    DiskPowerState.SPIN_UP,
                ]
            )
        )
        queue = draw(st.integers(min_value=0, max_value=5))
        tlast = (
            draw(st.floats(min_value=0.0, max_value=100.0))
            if state is DiskPowerState.IDLE
            else None
        )
        states[disk_id] = FakeDisk(state, queue, tlast)
    catalog = PlacementCatalog(locations)
    requests = [
        Request(time=100.0, request_id=i, data_id=i)
        for i in range(num_requests)
    ]
    return FakeView(states, catalog), requests, catalog


@given(instance=batch_instances())
@settings(max_examples=80, deadline=None)
def test_every_request_decided_on_its_data(instance):
    view, requests, catalog = instance
    decisions = WSCBatchScheduler().choose_batch(requests, view)
    assert set(decisions) == {r.request_id for r in requests}
    for request in requests:
        assert decisions[request.request_id] in catalog.locations(
            request.data_id
        )


@given(instance=batch_instances())
@settings(max_examples=60, deadline=None)
def test_free_disks_absorb_when_they_cover(instance):
    """A request whose data sits on an ACTIVE/SPIN_UP disk never pays to
    wake a STANDBY disk instead (pure Eq. 5 weighting)."""
    view, requests, catalog = instance
    scheduler = WSCBatchScheduler(cost_function=CostFunction(alpha=1.0))
    decisions = scheduler.choose_batch(requests, view)
    for request in requests:
        chosen = decisions[request.request_id]
        chosen_cost = energy_cost(
            view.disk(chosen).state,
            view.disk(chosen).last_request_time,
            view.now,
            view.profile,
        )
        free_options = [
            d
            for d in catalog.locations(request.data_id)
            if energy_cost(
                view.disk(d).state,
                view.disk(d).last_request_time,
                view.now,
                view.profile,
            )
            == 0.0
        ]
        if free_options:
            assert chosen_cost == 0.0


@given(instance=batch_instances())
@settings(max_examples=40, deadline=None)
def test_deterministic(instance):
    view, requests, _catalog = instance
    scheduler = WSCBatchScheduler()
    assert scheduler.choose_batch(requests, view) == scheduler.choose_batch(
        requests, view
    )
