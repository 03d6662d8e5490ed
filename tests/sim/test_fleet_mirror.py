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
"""

import pytest

from repro.core.cost import energy_cost
from repro.core.heuristic import HeuristicScheduler
from repro.experiments import common
from repro.disk.service import ConstantServiceModel
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
        self.view = StorageSystem(catalog, HeuristicScheduler(), config)
        self.engine = self.view.engine

    def run(self, requests):
        """Replay ``requests``; returns the number completed."""
        return self.view.run(requests).requests_completed


class ServeOwner:
    """The serving backend: arrivals injected as the live clock advances."""

    def __init__(self, inputs=None, **kwargs):
        catalog, self._config = inputs or _inputs(**kwargs)
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
        backend to the replay's horizon; returns the number completed."""
        scheduler = HeuristicScheduler()
        for request in requests:
            self.view.advance_to(request.time)
            self.view.submit(request, scheduler.choose(request, self.view))
        self.view.finalize(self._config.derived_horizon(requests[-1].time))
        return len(self._completed)


def make_requests(times, data_ids):
    return [
        Request(time=t, request_id=i, data_id=d)
        for i, (t, d) in enumerate(zip(times, data_ids))
    ]


def assert_columns_mirror_disks(view, now):
    """Each disk's column slots encode its current object-model state."""
    fleet = view.fleet
    for disk_id in view.disk_ids:
        disk = view.disk(disk_id)
        # Queue column is P(dk): queued + in service.
        assert fleet.queue[disk_id] == float(disk.queue_length), disk_id
        # The columns' Eq. 5 term equals the specification on the
        # disk's live state.
        assert fleet.energies([disk_id], now) == [
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
