"""Forced ties through the real :class:`~repro.sim.storage.StorageSystem`.

Every instant here is exact: a constant service model, a profile with
round transition times and ``TB = 10 s``, and arrivals placed on the
instants where two things happen at once. The expected values are
worked out by hand from the paper's disk model (Section 2): FIFO
service, a spin-up on arrival at a sleeping disk, 2CPM spin-down ``TB``
after the last completion. Where an arrival and a disk transition share
an instant, the transition comes first: a request sees everything due
at its instant.

The serving backend (:class:`~repro.serve.backend.SimBackend`) runs the
same admission closure under the same rule: serving advances the fleet
to ``now`` before it dispatches. The last tests pin it on the same
instants.
"""

from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.heuristic import HeuristicScheduler
from repro.core.scheduler import OnlineScheduler, Picker, SystemView
from repro.core.static_scheduler import StaticScheduler
from repro.disk.service import ConstantServiceModel
from repro.placement.catalog import PlacementCatalog
from repro.power.ledger import StateLedger
from repro.power.profile import BARRACUDA
from repro.power.states import DiskPowerState
from repro.power.timeline import GapRule, fill_timeline
from repro.serve.backend import SimBackend
from repro.sim.config import SimulationConfig
from repro.sim.storage import StorageSystem
from repro.types import DiskId, Request, RequestId

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


def test_arrival_at_a_completion_instant_sees_the_idle_disk():
    # r0 completes at 1.0 exactly when r1 arrives: r1 sees r0 completed
    # (IDLE since 1.0, nothing queued, the Eq. 5 idle slope on) and
    # starts at 1.0 with no idle gap.
    scheduler = RecordingScheduler()
    system = StorageSystem(
        PlacementCatalog({0: [0]}),
        scheduler,
        config(1, 20.0, initial_state=IDLE),
    )
    report = system.run(
        [Request(time=0.0, request_id=0, data_id=0), Request(time=1.0, request_id=1, data_id=0)]
    )
    assert scheduler.seen[1] == (1.0, (IDLE, 0, PROFILE.idle_power, 0.0))
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
    # the spin-up ended and r0 in service (ACTIVE, one request) and is
    # served second.
    scheduler = RecordingScheduler()
    system = StorageSystem(PlacementCatalog({0: [0]}), scheduler, config(1, 25.0))
    report = system.run(
        [Request(time=0.0, request_id=0, data_id=0), Request(time=6.0, request_id=1, data_id=0)]
    )
    assert scheduler.seen[0] == (0.0, (STANDBY, 0, 0.0, system.fleet.standby_marginal))
    assert scheduler.seen[1] == (6.0, (ACTIVE, 1, 0.0, 0.0))
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
    # 8.0, the instant disk 0's spin-up ends: the spin-up end starts
    # r1's service first, the arrival starts r2's second, and both
    # complete at 9.0 in that order.
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
    assert list(report.response_times) == [7.0, 7.0, 1.0]
    assert system._metrics.completion_of(1) == (0, 9.0)
    assert system._metrics.completion_of(2) == (1, 9.0)


@pytest.mark.parametrize("arrival", [17.0, 19.0])
def test_arrival_at_the_spin_down_edges(arrival):
    # At 17.0 the idle timeout is due: the spin-down begins first, and
    # the arrival waits it out (down [17, 19]) and a whole spin-up
    # (up [19, 25], served [25, 26]). At 19.0 the spin-down ends first:
    # the arrival finds STANDBY and waits a whole spin-up.
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
    assert (stats.spin_ups, stats.spin_downs) == (2, 2)
    if arrival == 17.0:
        assert state is SPIN_DOWN
        assert list(report.response_times) == [7.0, 9.0]
    else:
        assert state is STANDBY
        assert list(report.response_times) == [7.0, 7.0]


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
    # As in the replay, r1 sees r0 completed: IDLE since 1.0, nothing
    # queued, the Eq. 5 idle slope on; r1 is served over [1, 2].
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
    # As in the replay, r1 sees the spin-up ended and r0 in service
    # (ACTIVE, one request).
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
    # As in the replay (test_arrival_at_the_spin_down_edges), r1 finds
    # the spin-down begun, pays the full wake-up and waits: down
    # [17, 19], up [19, 25], served [25, 26].
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


# -- tie-dense differential: replay, serving and the reactive walk ----------

#: Every run below ends by then: arrivals stop at 40 s, and the last
#: request waits at most a spin-down, a spin-up and seven services.
TIE_HORIZON = 100.0

#: ``(num_disks, placement, requests)``.
TieRun = Tuple[int, Dict[int, List[DiskId]], List[Request]]


class ChainRecorder(OnlineScheduler):
    """Wraps a scheduler and records the disk each request went to."""

    def __init__(self, inner: OnlineScheduler):
        self.inner = inner
        self.chosen: Dict[RequestId, DiskId] = {}

    def bind(self, view: SystemView) -> Picker:
        pick = self.inner.bind(view)

        def recorded(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            disk_id = pick(request, locations, now)
            self.chosen[request.request_id] = disk_id
            return disk_id

        return recorded

    @property
    def name(self) -> str:
        return self.inner.name


@st.composite
def tie_dense_runs(draw) -> TieRun:
    """1-3 disks, 1-2 replicas per item and arrivals on a whole-second
    grid, where completions, spin-up ends, idle timeouts and spin-down
    ends all land on whole seconds too."""
    num_disks = draw(st.integers(1, 3))
    replicas = draw(st.integers(1, min(2, num_disks)))
    num_data = draw(st.integers(1, 3))
    placement = {
        data_id: list(draw(st.permutations(range(num_disks)))[:replicas])
        for data_id in range(num_data)
    }
    times = sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=8)))
    requests = [
        Request(
            time=float(time), request_id=index, data_id=draw(st.integers(0, num_data - 1))
        )
        for index, time in enumerate(times)
    ]
    return num_disks, placement, requests


def ledger_view(stats) -> Tuple[Dict[DiskPowerState, float], int, int]:
    return dict(stats.state_time), stats.spin_ups, stats.spin_downs


@pytest.mark.parametrize("picker", ["static", "heuristic"])
@settings(max_examples=150, deadline=None)
@given(run=tie_dense_runs())
@example(
    run=(
        1,
        {0: [0]},
        [Request(time=0.0, request_id=0, data_id=0), Request(time=17.0, request_id=1, data_id=0)],
    )
)
@example(
    run=(
        2,
        {0: [0, 1]},
        [Request(time=0.0, request_id=0, data_id=0), Request(time=7.0, request_id=1, data_id=0)],
    )
)
def test_replay_serving_and_the_reactive_walk_agree_on_ties(picker: str, run: TieRun):
    # The two examples: an arrival at the idle timeout (17), and one at
    # a completion (7) with a sleeping replica to choose instead.
    num_disks, placement, requests = run
    make = {"static": StaticScheduler, "heuristic": HeuristicScheduler}[picker]
    catalog = PlacementCatalog(placement)
    arrival_of = {request.request_id: request.time for request in requests}

    replay_scheduler = ChainRecorder(make())
    system = StorageSystem(catalog, replay_scheduler, config(num_disks, TIE_HORIZON))
    report = system.run(requests)
    replayed = {
        request.request_id: system._metrics.completion_of(request.request_id)
        for request in requests
    }

    served: Dict[RequestId, Tuple[DiskId, float]] = {}
    backend = SimBackend(
        catalog,
        config(num_disks, TIE_HORIZON),
        on_complete=lambda request, disk_id, now: served.__setitem__(
            request.request_id, (disk_id, now)
        ),
        on_lost=lambda request, now: None,
    )
    serving_scheduler = ChainRecorder(make())
    admit = backend.admission(serving_scheduler)
    for request in requests:
        backend.advance_to(request.time)
        admit(request)
    backend.finalize(TIE_HORIZON)

    assert serving_scheduler.chosen == replay_scheduler.chosen
    assert {rid: (disk_id, at - arrival_of[rid]) for rid, (disk_id, at) in served.items()} == {
        rid: (disk_id, at - arrival_of[rid]) for rid, (disk_id, at) in replayed.items()
    }
    served_stats = backend.disk_stats
    for disk_id in range(num_disks):
        chain = [r for r in requests if replay_scheduler.chosen[r.request_id] == disk_id]
        ledger = StateLedger(PROFILE, DiskPowerState, (SPIN_UP, SPIN_DOWN), STANDBY)
        completions = fill_timeline(
            ledger,
            PROFILE,
            [r.time for r in chain],
            TIE_HORIZON,
            GapRule.REACTIVE,
            [1.0] * len(chain),
        )
        walked = (dict(ledger.state_time), ledger.ups, ledger.downs)
        assert ledger_view(report.disk_stats[disk_id]) == walked
        assert ledger_view(served_stats[disk_id]) == walked
        assert [replayed[r.request_id] for r in chain] == [
            (disk_id, at) for at in completions
        ]
