"""Live-system invariants of the columnar fleet cost state.

The parity tests (`tests/core/test_fleet_parity.py`) prove the column
arithmetic equals the Eq. 5/6 specification on hand-built column states;
these tests prove the *incremental maintenance* — the disks'
submit/complete/transition hooks writing their own slots during a real
run — keeps the columns in lockstep with the object-model truth. Both
owners of a disk fleet are checked: the trace replay
(:class:`~repro.sim.storage.StorageSystem`) and the serving backend
(:class:`~repro.serve.backend.SimBackend`), driven the way the serving
layer drives it.

The liveness mirror is checked the same way: after every fault event
(a permanent death, the start and the end of a transient outage, a
spin-up brick) the fleet's ``down`` set is exactly the unavailable
disks, and every data id's live replicas are its placement filtered by
disk health — so a read only ever goes to a live replica.
"""

import pytest

from repro.core.cost import energy_cost
from repro.core.heuristic import HeuristicScheduler
from repro.experiments import common
from repro.disk.service import ConstantServiceModel
from repro.faults import (
    FaultPlan,
    ScriptedFault,
    SpinUpFaults,
    TransientFaults,
)
from repro.faults.health import DiskHealth
from repro.faults.injector import FaultInjector
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_UNIT
from repro.power.states import DiskPowerState
from repro.serve.backend import SimBackend
from repro.sim.config import SimulationConfig
from repro.sim.storage import StorageSystem
from repro.types import Request

NUM_DISKS = 4


def _inputs(**kwargs):
    catalog = PlacementCatalog(
        {data_id: list(range(NUM_DISKS)) for data_id in range(8)}
    )
    config = SimulationConfig(
        num_disks=NUM_DISKS,
        profile=PAPER_UNIT,
        service_model=ConstantServiceModel(0.05),
        drain_slack=1.0,
        **kwargs,
    )
    return catalog, config


class ReplayOwner:
    """The trace replay: one StorageSystem run."""

    def __init__(self, inputs=None, **kwargs):
        catalog, config = inputs or _inputs(**kwargs)
        self.data_ids = sorted(catalog.mapping())
        self.view = StorageSystem(catalog, HeuristicScheduler(), config)
        self.engine = self.view.engine

    def run(self, requests):
        """Replay ``requests``; returns the number completed."""
        return self.view.run(requests).requests_completed


class ServeOwner:
    """The serving backend: arrivals injected as the live clock advances."""

    def __init__(self, inputs=None, **kwargs):
        catalog, self._config = inputs or _inputs(**kwargs)
        self.data_ids = sorted(catalog.mapping())
        self._completed = []
        self.view = SimBackend(
            catalog,
            self._config,
            on_complete=lambda request, disk_id, now: self._completed.append(
                request
            ),
            on_lost=lambda request, now: None,
        )
        self.engine = self.view.engine

    def run(self, requests):
        """Inject ``requests`` at their arrival times and drain the
        backend to the replay's horizon; returns the number completed.

        A request with no live replica at its arrival is shed, as the
        serving layer sheds it."""
        scheduler = HeuristicScheduler()
        for request in requests:
            self.view.advance_to(request.time)
            if self.view.available_locations(request.data_id):
                self.view.submit(request, scheduler.choose(request, self.view))
        self.view.finalize(self._config.derived_horizon(requests[-1].time))
        return len(self._completed)


def make_requests(times, data_ids):
    return [
        Request(time=t, request_id=i, data_id=d)
        for i, (t, d) in enumerate(zip(times, data_ids))
    ]


def assert_columns_mirror_disks(view, now):
    """Each disk's column slots encode its current object-model state,
    once the disk is walked up to now (as every reader walks it)."""
    fleet = view.fleet
    for disk_id in view.disk_ids:
        disk = view.disk(disk_id)
        disk.catch_up()
        # Queue column is P(dk): queued + in service.
        assert fleet.queue[disk_id] == float(disk.queue_length), disk_id
        # The columns' Eq. 5 term (Eq. 6 with alpha = beta = 1) equals
        # the specification on the disk's live state.
        assert fleet.weights([disk_id], now, 1.0, 1.0, 0.0) == [
            energy_cost(disk.state, disk.last_request_time, now, view.profile)
        ], disk_id
        if disk.last_request_time is not None:
            assert fleet.tlast[disk_id] == disk.last_request_time, disk_id


class TestIncrementalMaintenance:
    """The invariants, checked over the replay owner; subclasses re-run
    them over the other owners."""

    make_owner = ReplayOwner

    def test_columns_track_a_full_run(self):
        """After a drained run every column matches the final disk state."""
        owner = self.make_owner()
        times = [0.0, 0.01, 0.02, 5.0, 5.01, 40.0, 41.0, 90.0]
        assert owner.run(make_requests(times, data_ids=list(range(8)))) == 8
        assert_columns_mirror_disks(owner.view, owner.view.now)
        # Everything drained: no queued work left anywhere.
        assert list(owner.view.fleet.queue) == [0.0] * NUM_DISKS

    def test_columns_track_mid_run_states(self):
        """Spot-check the mirror at instants where disks are mid-flight."""
        owner = self.make_owner()
        engine = owner.engine
        checks = []

        def probe():
            assert_columns_mirror_disks(owner.view, engine.now)
            checks.append(engine.now)

        # Probes land between arrivals: during service, during idle
        # windows, and after the 2CPM timeout has spun disks down.
        for at in (0.02, 0.5, 3.0, 12.0, 30.0):
            engine.schedule(at, probe)
        times = [0.0, 0.01, 0.02, 2.0, 2.5, 25.0, 28.0, 29.0]
        owner.run(make_requests(times, data_ids=list(range(8))))
        assert len(checks) == 5

    def test_standby_start_encodes_wakeup_constant(self):
        """Fresh STANDBY fleet: const column holds Eup+Edown+TB*PI."""
        owner = self.make_owner(initial_state=DiskPowerState.STANDBY)
        fleet = owner.view.fleet
        expected = (
            PAPER_UNIT.transition_energy
            + PAPER_UNIT.breakeven_time * PAPER_UNIT.idle_power
        )
        assert list(fleet.const) == [expected] * NUM_DISKS
        assert list(fleet.pi) == [0.0] * NUM_DISKS
        assert_columns_mirror_disks(owner.view, 0.0)


class TestIncrementalMaintenanceServe(TestIncrementalMaintenance):
    make_owner = ServeOwner


def assert_liveness_mirrors_health(view, data_ids):
    """The down set is the unavailable disks, and every data id's live
    replicas are its placement filtered by per-disk health."""
    fleet = view.fleet
    assert fleet.down == {
        disk_id for disk_id in view.disk_ids if not view.disk(disk_id).is_available
    }
    for data_id in data_ids:
        placement = view.locations(data_id)
        live = view.available_locations(data_id)
        assert live == tuple(
            disk_id for disk_id in placement if view.disk(disk_id).is_available
        ), data_id
        if fleet.down.isdisjoint(placement):
            # Nothing is rebuilt while every replica is up.
            assert live is placement, data_id


#: A plan that exercises every way a disk leaves or rejoins service on
#: the four-disk fleet within a 400 s trace.
MIXED_FAULTS = FaultPlan(
    seed=3,
    transient=TransientFaults(mtbf_s=25.0, mean_repair_s=4.0),
    spin_up=SpinUpFaults(probability=0.4, max_retries=1),
    scripted=(
        ScriptedFault(disk_id=1, at_s=6.0, repair_after_s=10.0),
        ScriptedFault(disk_id=3, at_s=30.0),
    ),
)


@pytest.fixture
def fault_events(monkeypatch):
    """Wraps the injector's fault actions; each call appends its kind
    and then runs the owner-supplied ``check`` (set on the returned
    record)."""
    record = {"kinds": [], "check": None}

    def wrap(name, kind_of):
        original = getattr(FaultInjector, name)

        def action(injector, disk_id):
            result = original(injector, disk_id)
            kind = kind_of(injector, disk_id, result)
            if kind is not None:
                record["kinds"].append(kind)
                record["check"]()
            return result

        monkeypatch.setattr(FaultInjector, name, action)

    def death(injector, disk_id, result):
        return "death"

    def outage(injector, disk_id, result):
        return "outage"

    def repair(injector, disk_id, result):
        healthy = injector._disks[disk_id].health is DiskHealth.HEALTHY
        return "repair" if healthy else None

    def spin_up(injector, disk_id, failed):
        bricked = injector._disks[disk_id].health is DiskHealth.FAILED
        return "brick" if failed and bricked else None

    wrap("_fail_permanently", death)
    wrap("_start_outage", outage)
    wrap("_end_outage", repair)
    wrap("_spin_up_failed", spin_up)
    return record


@pytest.mark.parametrize("make_owner", [ReplayOwner, ServeOwner])
def test_liveness_mirror_tracks_every_fault_event(make_owner, fault_events):
    owner = make_owner(fault_plan=MIXED_FAULTS)

    def check():
        assert_liveness_mirrors_health(owner.view, owner.data_ids)
        assert_columns_mirror_disks(owner.view, owner.engine.now)

    fault_events["check"] = check
    check()
    times = [2.0 * i for i in range(200)]
    data_ids = [(7 * i) % 8 for i in range(200)]
    owner.run(make_requests(times, data_ids))
    check()
    kinds = set(fault_events["kinds"])
    assert {"death", "outage", "repair", "brick"} <= kinds, kinds
    # Some disk is down at the end, so the filtered branch ran too.
    assert owner.view.fleet.down


@pytest.mark.parametrize("trace", ["cello", "financial"])
def test_serve_and_replay_agree_on_a_trace(trace):
    """Same trace, scheduler and seed: the serving backend and the
    replay produce the same per-disk energy, spin operations,
    completions and final time."""
    requests, catalog, num_disks = common.get_binding(
        trace, 3, 1.0, scale=0.05, seed=1
    )
    inputs = (catalog, common.make_config(num_disks, seed=1))
    replay, serve = ReplayOwner(inputs), ServeOwner(inputs)
    outcomes = []
    for owner in (replay, serve):
        completed = owner.run(list(requests))
        view = owner.view
        outcomes.append(
            (
                [view.disk(d).stats.energy for d in view.disk_ids],
                [view.disk(d).stats.spin_operations for d in view.disk_ids],
                completed,
                view.now,
            )
        )
    assert outcomes[0] == outcomes[1]
    energies, spins, completed, _ = outcomes[0]
    assert completed == len(requests)
    assert sum(spins) > 0 and sum(energies) > 0
