"""Forced ties through the real :class:`~repro.sim.storage.StorageSystem`.

Every instant here is exact: a constant service model, a profile with
round transition times and ``TB = 10 s``, and arrivals placed on the
instants where two things happen at once. The expected values are
worked out by hand from the paper's disk model (Section 2): FIFO
service, a spin-up on arrival at a sleeping disk, 2CPM spin-down ``TB``
after the last completion. Where an arrival and a disk transition share
an instant, the arrival comes first.

The serving backend (:class:`~repro.serve.backend.SimBackend`) runs the
same admission closure but resolves the other way: serving advances the
fleet to ``now`` before it dispatches, so a transition due at that
instant has already happened when the picker looks. The last tests pin
that rule on the same instants; they are the ones to flip once both
owners share one tie rule.
"""

from typing import List, Sequence, Tuple

import pytest

from repro.core.scheduler import OnlineScheduler, Picker, SystemView
from repro.core.static_scheduler import StaticScheduler
from repro.disk.service import ConstantServiceModel
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import BARRACUDA
from repro.power.states import DiskPowerState
from repro.serve.backend import SimBackend
from repro.sim.config import SimulationConfig
from repro.sim.storage import StorageSystem
from repro.types import DiskId, Request

#: Tup = 6 s, Tdown = 2 s, TB = 10 s: every sum below is exact.
PROFILE = BARRACUDA.with_overrides(breakeven_override=10.0)

STANDBY = DiskPowerState.STANDBY
SPIN_UP = DiskPowerState.SPIN_UP
IDLE = DiskPowerState.IDLE
ACTIVE = DiskPowerState.ACTIVE
SPIN_DOWN = DiskPowerState.SPIN_DOWN

#: What a pick saw of one candidate: state, P(dk), Eq. 5 pi and const.
Seen = Tuple[DiskPowerState, int, float, float]


class RecordingScheduler(OnlineScheduler):
    """Routes to the first candidate and records what it saw there."""

    def __init__(self) -> None:
        self.seen: List[Tuple[float, Seen]] = []

    def bind(self, view: SystemView) -> Picker:
        fleet = view.fleet

        def pick(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            disk_id = locations[0]
            disk = view.disk(disk_id)
            self.seen.append(
                (
                    now,
                    (
                        disk.state,
                        disk.queue_length,
                        fleet.pi[disk_id],
                        fleet.const[disk_id],
                    ),
                )
            )
            return disk_id

        return pick

    @property
    def name(self) -> str:
        return "recording"


def config(num_disks: int, horizon: float, **kwargs) -> SimulationConfig:
    return SimulationConfig(
        num_disks=num_disks,
        profile=PROFILE,
        service_model=ConstantServiceModel(1.0),
        horizon=horizon,
        **kwargs,
    )


def state_times(report, disk_id: DiskId):
    stats = report.disk_stats[disk_id]
    return {state: stats.state_time[state] for state in DiskPowerState}


def test_arrival_at_a_completion_instant_sees_the_completing_request():
    # r0 completes at 1.0 exactly when r1 arrives: r1 sees r0 still in
    # service, queues behind it and starts at 1.0 with no idle gap.
    scheduler = RecordingScheduler()
    system = StorageSystem(
        PlacementCatalog({0: [0]}),
        scheduler,
        config(1, 20.0, initial_state=IDLE),
    )
    report = system.run(
        [Request(time=0.0, request_id=0, data_id=0), Request(time=1.0, request_id=1, data_id=0)]
    )
    assert scheduler.seen[1] == (1.0, (ACTIVE, 1, 0.0, 0.0))
    assert list(report.response_times) == [1.0, 1.0]
    # ACTIVE [0, 2], IDLE [2, 12], SPIN_DOWN [12, 14], STANDBY [14, 20].
    assert state_times(report, 0) == {
        STANDBY: 6.0,
        SPIN_UP: 0.0,
        IDLE: 10.0,
        ACTIVE: 2.0,
        SPIN_DOWN: 2.0,
    }
    assert report.disk_stats[0].spin_downs == 1
    # Two arrivals, two completions, one idle timeout, one spin-down end.
    assert report.events_processed == 6


def test_arrival_at_a_spin_up_end_queues_behind_the_waking_request():
    # r0 wakes the disk at 0; r1 lands at 6.0, the spin-up end: it sees
    # SPIN_UP (free to join, one request waiting) and is served second.
    scheduler = RecordingScheduler()
    system = StorageSystem(PlacementCatalog({0: [0]}), scheduler, config(1, 25.0))
    report = system.run(
        [Request(time=0.0, request_id=0, data_id=0), Request(time=6.0, request_id=1, data_id=0)]
    )
    assert scheduler.seen[0] == (0.0, (STANDBY, 0, 0.0, system.fleet.standby_marginal))
    assert scheduler.seen[1] == (6.0, (SPIN_UP, 1, 0.0, 0.0))
    assert list(report.response_times) == [7.0, 2.0]
    # SPIN_UP [0, 6], ACTIVE [6, 8], IDLE [8, 18], SPIN_DOWN [18, 20],
    # STANDBY [20, 25].
    assert state_times(report, 0) == {
        STANDBY: 5.0,
        SPIN_UP: 6.0,
        IDLE: 10.0,
        ACTIVE: 2.0,
        SPIN_DOWN: 2.0,
    }
    stats = report.disk_stats[0]
    assert (stats.spin_ups, stats.spin_downs) == (1, 1)
    # Two arrivals, the spin-up end, two completions, the idle timeout
    # and the spin-down end.
    assert report.events_processed == 7


def test_arrival_during_spin_down_pays_the_full_wake_up_and_waits():
    # r0: up [0, 6], served [6, 7], idle [7, 17], spinning down
    # [17, 19]. r1 at 18 costs the full Eq. 5 wake-up and waits for the
    # spin-down to end (19) plus a whole spin-up (25): served [25, 26].
    scheduler = RecordingScheduler()
    system = StorageSystem(PlacementCatalog({0: [0]}), scheduler, config(1, 40.0))
    report = system.run(
        [Request(time=0.0, request_id=0, data_id=0), Request(time=18.0, request_id=1, data_id=0)]
    )
    marginal = system.fleet.standby_marginal
    assert scheduler.seen[1] == (18.0, (SPIN_DOWN, 0, 0.0, marginal))
    assert list(report.response_times) == [7.0, 8.0]
    # Then idle [26, 36], spinning down [36, 38], standby [38, 40].
    assert state_times(report, 0) == {
        STANDBY: 2.0,
        SPIN_UP: 12.0,
        IDLE: 20.0,
        ACTIVE: 2.0,
        SPIN_DOWN: 4.0,
    }
    stats = report.disk_stats[0]
    assert (stats.spin_ups, stats.spin_downs) == (2, 2)


def test_simultaneous_completions_keep_the_order_their_services_started():
    # Disk 1 wakes for r0 (up [0, 6], served [6, 7], idle from 7).
    # Disk 0 wakes for r1 at 2 (up [2, 8]). r2 reaches idle disk 1 at
    # 8.0, the instant disk 0's spin-up ends: the arrival starts r2's
    # service first, the spin-up end starts r1's second, and both
    # complete at 9.0 in that order, although r1 has the smaller id.
    system = StorageSystem(
        PlacementCatalog({0: [0], 1: [1]}), StaticScheduler(), config(2, 40.0)
    )
    report = system.run(
        [
            Request(time=0.0, request_id=0, data_id=1),
            Request(time=2.0, request_id=1, data_id=0),
            Request(time=8.0, request_id=2, data_id=1),
        ]
    )
    assert list(report.response_times) == [7.0, 1.0, 7.0]
    assert system._metrics.completion_of(1) == (0, 9.0)
    assert system._metrics.completion_of(2) == (1, 9.0)


@pytest.mark.parametrize("arrival", [17.0, 19.0])
def test_arrival_at_the_spin_down_edges(arrival):
    # At 17.0 the idle timeout is due: the arrival comes first, finds the
    # disk IDLE and is served at once. At 19.0 the spin-down ends: the
    # arrival still finds SPIN_DOWN and waits a whole spin-up.
    scheduler = RecordingScheduler()
    system = StorageSystem(PlacementCatalog({0: [0]}), scheduler, config(1, 60.0))
    report = system.run(
        [
            Request(time=0.0, request_id=0, data_id=0),
            Request(time=arrival, request_id=1, data_id=0),
        ]
    )
    state = scheduler.seen[1][1][0]
    stats = report.disk_stats[0]
    if arrival == 17.0:
        assert state is IDLE
        assert list(report.response_times) == [7.0, 1.0]
        assert (stats.spin_ups, stats.spin_downs) == (1, 1)
    else:
        assert state is SPIN_DOWN
        assert list(report.response_times) == [7.0, 7.0]
        assert (stats.spin_ups, stats.spin_downs) == (2, 2)


def serve(
    placement: PlacementCatalog,
    sim_config: SimulationConfig,
    requests: Sequence[Request],
    horizon: float,
) -> Tuple[RecordingScheduler, SimBackend, List[float]]:
    """Dispatch ``requests`` the way serving's online policy does: the
    fleet advanced to each arrival instant, then the admission closure;
    returns the scheduler, the finalized backend and the response times
    in completion order."""
    response_times: List[float] = []
    backend = SimBackend(
        placement,
        sim_config,
        on_complete=lambda request, disk_id, now: response_times.append(
            now - request.time
        ),
        on_lost=lambda request, now: None,
    )
    scheduler = RecordingScheduler()
    admit = backend.admission(scheduler)
    for request in requests:
        backend.advance_to(request.time)
        admit(request)
    backend.finalize(horizon)
    return scheduler, backend, response_times


def test_serving_dispatch_at_a_completion_instant_sees_the_idle_disk():
    # The replay's r1 sees r0 still in service (ACTIVE, one request);
    # serving's sees r0 completed: IDLE since 1.0, nothing queued, the
    # Eq. 5 idle slope on. Both serve r1 over [1, 2].
    scheduler, backend, response_times = serve(
        PlacementCatalog({0: [0]}),
        config(1, 20.0, initial_state=IDLE),
        [Request(time=0.0, request_id=0, data_id=0), Request(time=1.0, request_id=1, data_id=0)],
        20.0,
    )
    assert scheduler.seen[1] == (1.0, (IDLE, 0, PROFILE.idle_power, 0.0))
    assert response_times == [1.0, 1.0]
    assert state_times(backend, 0) == {
        STANDBY: 6.0,
        SPIN_UP: 0.0,
        IDLE: 10.0,
        ACTIVE: 2.0,
        SPIN_DOWN: 2.0,
    }


def test_serving_dispatch_at_a_spin_up_end_sees_the_disk_serving():
    # The replay's r1 sees SPIN_UP; serving's sees the spin-up ended and
    # r0 in service (ACTIVE, one request). The Eq. 5 terms are the same,
    # and so are the response times.
    scheduler, backend, response_times = serve(
        PlacementCatalog({0: [0]}),
        config(1, 25.0),
        [Request(time=0.0, request_id=0, data_id=0), Request(time=6.0, request_id=1, data_id=0)],
        25.0,
    )
    assert scheduler.seen[1] == (6.0, (ACTIVE, 1, 0.0, 0.0))
    assert response_times == [7.0, 2.0]
    assert state_times(backend, 0) == {
        STANDBY: 5.0,
        SPIN_UP: 6.0,
        IDLE: 10.0,
        ACTIVE: 2.0,
        SPIN_DOWN: 2.0,
    }


def test_serving_dispatch_at_the_idle_timeout_finds_the_disk_spinning_down():
    # At 17.0 the replay's r1 finds the disk IDLE and is served at once
    # (see test_arrival_at_the_spin_down_edges); serving's finds the
    # spin-down begun, pays the full wake-up and waits: down [17, 19],
    # up [19, 25], served [25, 26].
    scheduler, backend, response_times = serve(
        PlacementCatalog({0: [0]}),
        config(1, 60.0),
        [Request(time=0.0, request_id=0, data_id=0), Request(time=17.0, request_id=1, data_id=0)],
        60.0,
    )
    marginal = backend.fleet.standby_marginal
    assert scheduler.seen[1] == (17.0, (SPIN_DOWN, 0, 0.0, marginal))
    assert response_times == [7.0, 9.0]
    stats = backend.disk_stats[0]
    assert (stats.spin_ups, stats.spin_downs) == (2, 2)
