"""Serving is the replay: a session equals ``simulate()`` on its arrivals.

The serving policies re-host the paper's two non-clairvoyant models:
``online`` is the Eq. 6 heuristic (Section 3.2) and ``micro-batch`` the
WSC batch model at ``window_s`` (Section 3.3). Here a serving session is
fed an open-loop schedule through :func:`~repro.serve.loadgen.submit_schedule`
under the virtual clock; its admitted arrivals are then replayed through
:func:`~repro.sim.runner.simulate` on the same catalog and simulation
config, with the horizon set to the session's end. The two must agree:

* ``online`` against :class:`~repro.core.heuristic.HeuristicScheduler`:
  energy, every disk's ledger, spin counts and response times, all
  bit-identical;
* ``micro-batch`` against :class:`~repro.core.wsc.WSCBatchScheduler`:
  energy, ledgers and response times, all bit-identical (both dispatch
  a batch at the tick instant ``k * interval``).

With scripted disk deaths, every request serving sheds as
``DATA_UNAVAILABLE`` is one the replay counts lost, and both redispatch
the same number of requests off the dying disks.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

import pytest

from repro.core.heuristic import HeuristicScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.disk.stats import DiskStats
from repro.report import SimulationReport
from repro.serve.admission import Completed, Outcome, Rejected, RejectReason
from repro.serve.clock import virtual_run
from repro.serve.loadgen import LoadgenConfig, open_loop_schedule, submit_schedule
from repro.serve.service import (
    POLICY_MICRO_BATCH,
    POLICY_ONLINE,
    SchedulingService,
    ServiceConfig,
)
from repro.sim.runner import simulate
from repro.types import DEFAULT_REQUEST_BYTES, DataId, Request

NUM_REQUESTS = 3_000
#: Seven of the 18 disks die, one every 5 s from 5 s on: enough that
#: some data loses every replica while the stream still runs.
DISK_DEATHS = tuple((disk_id, 5.0 + 5.0 * disk_id) for disk_id in range(7))


class RecordingService(SchedulingService):
    """Records each submission's service-clock instant and data id."""

    def __init__(self, config: ServiceConfig):
        super().__init__(config)
        self.arrivals: List[Tuple[float, DataId]] = []

    async def submit(
        self,
        client_id: str,
        data_id: DataId,
        size_bytes: int = DEFAULT_REQUEST_BYTES,
    ) -> Outcome:
        self.arrivals.append((self.clock.now, data_id))
        return await super().submit(client_id, data_id, size_bytes)


def serve(
    config: ServiceConfig, arrival: str
) -> Tuple[RecordingService, List[Outcome]]:
    """One session over a 50/s open-loop stream, drained to the end."""
    load = LoadgenConfig(
        num_requests=NUM_REQUESTS, rate_per_s=50.0, arrival=arrival, seed=7
    )
    service = RecordingService(config)

    async def session() -> List[Outcome]:
        await service.start()
        outcomes = await submit_schedule(
            service, open_loop_schedule(load, config.num_data)
        )
        await service.drain()
        return outcomes

    return service, virtual_run(session())


def replay(service: RecordingService, scheduler) -> SimulationReport:
    """The session's admitted arrivals through ``simulate()``, to the
    session's end. Every submission was admitted (the ingress queue
    holds the whole stream), so request ids are submission indices."""
    config = service.config
    requests = [
        Request(time=time_s, request_id=request_id, data_id=data_id)
        for request_id, (time_s, data_id) in enumerate(service.arrivals)
    ]
    sim_config = dataclasses.replace(
        config.make_sim_config(), horizon=service.backend.now
    )
    return simulate(requests, config.make_catalog(), scheduler, sim_config)


def ledger(stats: DiskStats) -> Tuple[object, ...]:
    return (dict(stats.state_time), stats.spin_ups, stats.spin_downs)


@pytest.mark.parametrize("deaths", [(), DISK_DEATHS], ids=["healthy", "deaths"])
@pytest.mark.parametrize("arrival", ["poisson", "bursty"])
@pytest.mark.parametrize("policy", [POLICY_ONLINE, POLICY_MICRO_BATCH])
def test_a_serving_session_is_its_replay(
    policy: str, arrival: str, deaths: Tuple[Tuple[int, float], ...]
) -> None:
    config = ServiceConfig(
        policy=policy, seed=3, queue_limit=NUM_REQUESTS, disk_deaths=deaths
    )
    service, outcomes = serve(config, arrival)
    assert len(service.arrivals) == NUM_REQUESTS
    cost = config.cost_function()
    if policy == POLICY_ONLINE:
        report = replay(service, HeuristicScheduler(cost))
    else:
        report = replay(
            service, WSCBatchScheduler(interval=config.window_s, cost_function=cost)
        )
    backend = service.backend

    assert report.duration == backend.now
    assert report.total_energy == backend.energy
    served_stats = backend.disk_stats
    assert {
        disk_id: ledger(stats) for disk_id, stats in report.disk_stats.items()
    } == {disk_id: ledger(stats) for disk_id, stats in served_stats.items()}

    served = sorted(
        outcome.response_time_s
        for outcome in outcomes
        if isinstance(outcome, Completed)
    )
    replayed = sorted(report.response_times)
    assert len(served) == len(replayed) == report.requests_completed
    assert served == replayed

    shed = [outcome for outcome in outcomes if isinstance(outcome, Rejected)]
    assert all(o.reason is RejectReason.DATA_UNAVAILABLE for o in shed)
    served_availability = backend.availability_report()
    if not deaths:
        assert shed == []
        assert report.availability is None and served_availability is None
        return
    assert report.availability is not None and served_availability is not None
    # The death cases must exercise both loss and failover.
    assert len(shed) >= 1
    assert len(shed) == report.availability.requests_lost
    assert served_availability.requests_redispatched >= 1
    assert (
        served_availability.requests_redispatched
        == report.availability.requests_redispatched
    )
