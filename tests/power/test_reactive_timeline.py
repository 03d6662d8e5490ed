"""The reactive rule (:attr:`GapRule.REACTIVE`) against the simulator.

A disk's timeline under the reactive rule follows from the chain of
requests it receives alone. The test records each disk's realised chain
during a replay, so any scheduler qualifies: Static and Random, which
ignore disk state, the Heuristic, whose picks read it, and the WSC batch
model, whose requests reach their disks at the tick that dispatches
them, in batch order. Walking every chain through the reactive rule,
with the service times the disk's own RNG draws in FIFO order, must then
give the simulator's ledger float for float: state times, spin counts
and completion instants.
"""

import random
from typing import Dict, List, Sequence, Tuple, Union

import pytest

from repro.core.heuristic import HeuristicScheduler
from repro.core.random_scheduler import RandomScheduler
from repro.core.scheduler import OnlineScheduler, Picker, SystemView
from repro.core.static_scheduler import StaticScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.errors import ConfigurationError
from repro.experiments.harness import runner
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.ledger import StateLedger
from repro.power.profile import BARRACUDA, PAPER_EVAL
from repro.power.states import DiskPowerState
from repro.power.timeline import GapRule, disk_timeline, fill_timeline
from repro.sim.storage import StorageSystem
from repro.types import DiskId, Request, RequestId

SCALE = 0.05
SEED = 1

#: ``(instant, request, disk)`` per dispatch, in dispatch order.
Dispatches = List[Tuple[float, Request, DiskId]]


class RecordingScheduler(OnlineScheduler):
    """Wraps a scheduler and records where and when each request went."""

    def __init__(self, inner: OnlineScheduler):
        self.inner = inner
        self.dispatched: Dispatches = []

    def bind(self, view: SystemView) -> Picker:
        pick = self.inner.bind(view)

        def recorded(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            disk_id = pick(request, locations, now)
            self.dispatched.append((now, request, disk_id))
            return disk_id

        return recorded

    @property
    def name(self) -> str:
        return self.inner.name


class RecordingBatchScheduler(WSCBatchScheduler):
    """WSC that records each request under its disk at the tick instant,
    in batch order (the order the batch is submitted in)."""

    def __init__(self) -> None:
        super().__init__()
        self.dispatched: Dispatches = []

    def choose_batch(
        self, requests: Sequence[Request], view: SystemView
    ) -> Dict[RequestId, DiskId]:
        decisions = super().choose_batch(requests, view)
        self.dispatched.extend(
            (view.now, request, decisions[request.request_id]) for request in requests
        )
        return decisions


@pytest.mark.parametrize("trace", ["cello", "financial"])
@pytest.mark.parametrize("key", ["static", "random", "heuristic", "wsc"])
def test_reactive_walk_matches_the_simulator(trace, key):
    disks = runner.num_disks_for(SCALE)
    requests, catalog = runner.get_workload(trace, SCALE, SEED).bind(
        ZipfOriginalUniformReplicas(replication_factor=3, zipf_exponent=1.0),
        num_disks=disks,
        seed=SEED,
    )
    config = runner.make_config(disks, "paper-evaluation", SEED)
    scheduler: Union[RecordingScheduler, RecordingBatchScheduler]
    if key == "wsc":
        scheduler = RecordingBatchScheduler()
    else:
        scheduler = RecordingScheduler(
            {
                "static": StaticScheduler(),
                "random": RandomScheduler(seed=SEED),
                "heuristic": HeuristicScheduler(),
            }[key]
        )
    system = StorageSystem(catalog, scheduler, config)
    report = system.run(requests)
    assert len(scheduler.dispatched) == len(requests)
    chains: Dict[DiskId, List[Tuple[float, Request]]] = {
        disk_id: [] for disk_id in range(disks)
    }
    for at, request, disk_id in scheduler.dispatched:
        chains[disk_id].append((at, request))
    busy = 0
    for disk_id, chain in chains.items():
        rng = random.Random(config.seed * 1_000_003 + disk_id)
        service = [config.service_model.service_time(r, rng) for _, r in chain]
        ledger = StateLedger(
            config.profile,
            DiskPowerState,
            (DiskPowerState.SPIN_UP, DiskPowerState.SPIN_DOWN),
            DiskPowerState.STANDBY,
        )
        completions = fill_timeline(
            ledger,
            config.profile,
            [at for at, _ in chain],
            report.duration,
            GapRule.REACTIVE,
            service,
        )
        stats = report.disk_stats[disk_id]
        assert ledger.state_time == stats.state_time
        assert (ledger.ups, ledger.downs) == (stats.spin_ups, stats.spin_downs)
        assert ledger.requests_serviced == stats.requests_serviced
        simulated = [
            system._metrics.completion_of(r.request_id)
            for _, r in chain[: len(completions)]
        ]
        assert simulated == [(disk_id, at) for at in completions]
        busy += bool(chain)
    assert busy > 1
    assert report.requests_completed == sum(
        report.disk_stats[d].requests_serviced for d in range(disks)
    )


class TestReactiveRule:
    # BARRACUDA with TB = 10 s: Tup = 6, Tdown = 2.
    PROFILE = BARRACUDA.with_overrides(breakeven_override=10.0)

    def walk(self, arrivals, service, horizon):
        ledger = StateLedger(
            self.PROFILE,
            DiskPowerState,
            (DiskPowerState.SPIN_UP, DiskPowerState.SPIN_DOWN),
            DiskPowerState.STANDBY,
        )
        completions = fill_timeline(
            ledger, self.PROFILE, arrivals, horizon, GapRule.REACTIVE, service
        )
        return ledger, completions

    def test_arrival_during_spin_down_waits_for_it_and_a_spin_up(self):
        # Up [0, 6], served [6, 7], idle [7, 17], down [17, 19]; the
        # arrival at 18 waits for 19 + 6 and is served [25, 26].
        ledger, completions = self.walk([0.0, 18.0], [1.0, 1.0], 40.0)
        assert completions == [7.0, 26.0]
        assert (ledger.ups, ledger.downs) == (2, 2)
        assert ledger.state_time[DiskPowerState.STANDBY] == 2.0

    def test_arrival_at_the_idle_timeout_finds_the_spin_down_begun(self):
        # The timeout at 17 comes first: down [17, 19], up [19, 25],
        # served [25, 26].
        ledger, completions = self.walk([0.0, 17.0], [1.0, 1.0], 40.0)
        assert completions == [7.0, 26.0]
        assert (ledger.ups, ledger.downs) == (2, 2)

    def test_queued_requests_serve_back_to_back(self):
        ledger, completions = self.walk([0.0, 1.0, 7.0], [1.0, 1.0, 1.0], 40.0)
        assert completions == [7.0, 8.0, 9.0]
        assert ledger.state_time[DiskPowerState.ACTIVE] == 3.0

    def test_completions_past_the_horizon_are_cut(self):
        ledger, completions = self.walk([0.0], [1.0], 5.0)
        assert completions == []
        assert ledger.requests_serviced == 0
        assert ledger.state_time[DiskPowerState.SPIN_UP] == 5.0

    def test_one_service_time_per_arrival(self):
        with pytest.raises(ConfigurationError):
            self.walk([0.0, 1.0], [1.0], 40.0)

    def test_zero_service_default_tiles_the_horizon(self):
        ledger = disk_timeline(PAPER_EVAL, [0.0, 100.0], 300.0, GapRule.REACTIVE)
        assert ledger.total_time == pytest.approx(300.0)
        assert ledger.ups == ledger.downs == 2
