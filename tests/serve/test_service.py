"""Tests for SchedulingService: policies, drain semantics, rejections.

The micro-batch edge cases (empty window ticks, each tick flushed once,
a batch force-flushed exactly at the drain deadline, queue-full
shedding) all run under the virtual clock — no wall sleeps anywhere.
"""

from __future__ import annotations

import asyncio
from typing import List, Optional

import pytest

from repro.core.wsc import WSCBatchScheduler
from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.serve.admission import Completed, Outcome, Rejected, RejectReason
from repro.serve.clock import virtual_run
from repro.serve.loadgen import LoadgenConfig, open_loop_schedule, submit_schedule
from repro.serve.service import SchedulingService, ServiceConfig


def small_config(policy: str, **overrides: object) -> ServiceConfig:
    defaults: dict = dict(
        policy=policy,
        num_disks=6,
        replication_factor=2,
        num_data=100,
        seed=5,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def test_config_validation() -> None:
    with pytest.raises(ConfigurationError):
        ServiceConfig(policy="clairvoyant")
    with pytest.raises(ConfigurationError):
        ServiceConfig(window_s=0.0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_batch=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(num_data=0)


@pytest.mark.parametrize(
    ("disk_deaths", "match"),
    [
        (((3, 0.5), (3, 1.0)), "twice"),
        (((18, 0.5),), "outside the fleet"),
        (((3, -1.0),), ">= 0"),
    ],
    ids=["repeated-disk", "out-of-range-disk", "negative-time"],
)
def test_disk_deaths_validation(
    disk_deaths: "tuple[tuple[int, float], ...]", match: str
) -> None:
    with pytest.raises(ConfigurationError, match=match):
        ServiceConfig(num_disks=18, disk_deaths=disk_deaths)


def test_disk_deaths_are_the_backend_fault_plan() -> None:
    config = ServiceConfig(num_disks=18, disk_deaths=((3, 1.5), (0, 2.0)))
    assert config.make_sim_config().fault_plan == FaultPlan(
        scripted=(ScriptedFault(3, 1.5), ScriptedFault(0, 2.0))
    )
    # No deaths, no plan: the healthy session builds no fault injector.
    assert ServiceConfig(num_disks=18).make_sim_config().fault_plan is None


def test_lifecycle_errors() -> None:
    async def main() -> None:
        service = SchedulingService(small_config("online"))
        with pytest.raises(SimulationError):
            await service.submit("a", 0)  # not started
        await service.start()
        with pytest.raises(SimulationError):
            await service.start()  # double start
        await service.drain()
        with pytest.raises(SimulationError):
            await service.drain()  # already stopped

    virtual_run(main())


def test_online_requests_complete_on_replicas() -> None:
    async def main() -> List[Outcome]:
        service = SchedulingService(small_config("online"))
        await service.start()
        outcomes = list(
            await asyncio.gather(
                *(service.submit("client", data_id) for data_id in range(5))
            )
        )
        await service.drain()
        for outcome in outcomes:
            assert isinstance(outcome, Completed)
            assert outcome.disk_id in service.backend.locations(outcome.data_id)
            assert outcome.completed_s >= outcome.arrival_s
        return outcomes

    outcomes = virtual_run(main())
    assert len(outcomes) == 5


def test_micro_batch_empty_window_ticks_are_counted() -> None:
    """Window ticks with nothing queued increment the empty-tick counter
    and dispatch no batches."""

    async def main() -> SchedulingService:
        service = SchedulingService(
            small_config("micro-batch", window_s=0.1)
        )
        await service.start()
        await service.clock.sleep(1.05)  # ~10 windows pass with no load
        await service.drain()
        return service

    service = virtual_run(main())
    snap = service.metrics_snapshot()
    assert snap["counters"]["batches.empty_ticks"] >= 5
    assert snap["counters"]["batches.dispatched"] == 0
    assert snap["counters"]["requests.completed"] == 0


class FlushRecordingService(SchedulingService):
    """Records the instant of every micro-batch flush, empty or not."""

    def __init__(self, config: ServiceConfig):
        super().__init__(config)
        self.flushes: List[float] = []

    def _flush_batch(
        self, scheduler: WSCBatchScheduler, limit: Optional[int], tick_s: float
    ) -> None:
        self.flushes.append(tick_s)
        super()._flush_batch(scheduler, limit, tick_s)


def test_micro_batch_flushes_each_tick_once() -> None:
    """A 3,000-request Poisson session: the clock wakes an ulp short of
    some ticks (15.2 for ``152 * 0.1``), and the pass after such a tick
    must not flush it a second time as an empty batch."""
    config = ServiceConfig(policy="micro-batch", seed=3, queue_limit=3_000)
    load = LoadgenConfig(num_requests=3_000, rate_per_s=50.0, seed=7)
    service = FlushRecordingService(config)

    async def session() -> None:
        await service.start()
        await submit_schedule(service, open_loop_schedule(load, config.num_data))
        await service.drain()

    virtual_run(session())
    flushes = service.flushes
    assert len(flushes) > 500
    assert len(set(flushes)) == len(flushes)
    assert flushes == sorted(flushes)


def test_micro_batch_flushes_queued_batch_exactly_at_drain_deadline() -> None:
    """Requests still queued when the drain deadline lands are dispatched
    as one final full batch at exactly the deadline — not shed."""

    async def main() -> SchedulingService:
        # Window far longer than the drain grace: the regular tick would
        # land at t=50, so only the deadline flush can dispatch.
        service = SchedulingService(
            small_config("micro-batch", window_s=50.0)
        )
        await service.start()
        tasks = [
            asyncio.get_running_loop().create_task(
                service.submit("client", data_id)
            )
            for data_id in range(3)
        ]
        await asyncio.sleep(0)  # let the submits enqueue
        assert service.queue_depth == 3
        await service.drain(grace_s=2.0)
        outcomes = await asyncio.gather(*tasks)
        for outcome in outcomes:
            assert isinstance(outcome, Completed)
        return service

    service = virtual_run(main())
    snap = service.metrics_snapshot()
    assert snap["counters"]["batches.dispatched"] == 1
    histogram = snap["histograms"]["batch.size"]
    assert isinstance(histogram, dict)
    assert histogram["max"] == 3.0
    # The batch waited in the queue until the deadline (2 s after the
    # arrivals at ~0), so the recorded queue wait is the grace period.
    waits = snap["histograms"]["queue_wait_s"]
    assert isinstance(waits, dict)
    assert waits["min"] >= 2.0
    assert waits["max"] == pytest.approx(2.0, abs=1e-6)


def test_zero_grace_drain_flushes_immediately() -> None:
    async def main() -> List[Outcome]:
        service = SchedulingService(
            small_config("micro-batch", window_s=30.0)
        )
        await service.start()
        tasks = [
            asyncio.get_running_loop().create_task(
                service.submit("client", data_id)
            )
            for data_id in range(2)
        ]
        await asyncio.sleep(0)
        await service.drain(grace_s=0.0)
        return list(await asyncio.gather(*tasks))

    outcomes = virtual_run(main())
    assert all(isinstance(outcome, Completed) for outcome in outcomes)


def test_full_ingress_queue_sheds_with_typed_rejection() -> None:
    """Submits beyond the bounded queue resolve to QUEUE_FULL instantly,
    and the queued requests still complete."""

    async def main() -> List[Outcome]:
        service = SchedulingService(
            small_config("micro-batch", window_s=40.0, queue_limit=2)
        )
        await service.start()
        tasks = [
            asyncio.get_running_loop().create_task(
                service.submit("client", data_id)
            )
            for data_id in range(5)
        ]
        # Two loop turns: first lets every submit run its admission
        # check, second lets the rejected tasks finish.
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert service.queue_depth == 2
        await service.drain(grace_s=1.0)
        return list(await asyncio.gather(*tasks))

    outcomes = virtual_run(main())
    completed = [o for o in outcomes if isinstance(o, Completed)]
    rejected = [o for o in outcomes if isinstance(o, Rejected)]
    assert len(completed) == 2
    assert len(rejected) == 3
    assert all(o.reason is RejectReason.QUEUE_FULL for o in rejected)


def test_rate_limited_client_sheds_with_typed_rejection() -> None:
    async def main() -> List[Outcome]:
        service = SchedulingService(
            small_config(
                "online", client_rate_per_s=1.0, client_burst=2.0
            )
        )
        await service.start()
        outcomes: List[Outcome] = []
        tasks = [
            asyncio.get_running_loop().create_task(
                service.submit("greedy", data_id)
            )
            for data_id in range(4)
        ]
        outcomes = list(await asyncio.gather(*tasks))
        await service.drain()
        return outcomes

    outcomes = virtual_run(main())
    rejected = [o for o in outcomes if isinstance(o, Rejected)]
    assert len(rejected) == 2
    assert all(o.reason is RejectReason.RATE_LIMITED for o in rejected)


def test_submits_during_drain_are_shed_as_shutting_down() -> None:
    async def main() -> Outcome:
        service = SchedulingService(small_config("online"))
        await service.start()
        first = await service.submit("client", 1)
        assert isinstance(first, Completed)
        drain_task = asyncio.get_running_loop().create_task(
            service.drain(grace_s=1.0)
        )
        await asyncio.sleep(0)  # drain flag set, service still stopping
        late = await service.submit("client", 2)
        await drain_task
        return late

    late = virtual_run(main())
    assert isinstance(late, Rejected)
    assert late.reason is RejectReason.SHUTTING_DOWN


def test_max_batch_caps_regular_ticks_but_not_final_flush() -> None:
    async def main() -> SchedulingService:
        service = SchedulingService(
            small_config("micro-batch", window_s=0.5, max_batch=2)
        )
        await service.start()
        tasks = [
            asyncio.get_running_loop().create_task(
                service.submit("client", data_id)
            )
            for data_id in range(5)
        ]
        await asyncio.sleep(0)
        # First tick at 0.5 dispatches 2; the rest wait for later ticks.
        await service.clock.sleep_until(0.6)
        snap = service.metrics_snapshot()
        histogram = snap["histograms"]["batch.size"]
        assert isinstance(histogram, dict)
        assert histogram["max"] == 2.0
        await service.drain(grace_s=0.0)  # final flush ignores max_batch
        await asyncio.gather(*tasks)
        return service

    service = virtual_run(main())
    snap = service.metrics_snapshot()
    histogram = snap["histograms"]["batch.size"]
    assert isinstance(histogram, dict)
    assert histogram["max"] == 3.0
    assert snap["counters"]["requests.completed"] == 5


def test_metrics_snapshot_is_complete_and_consistent() -> None:
    async def main() -> SchedulingService:
        service = SchedulingService(small_config("online"))
        await service.start()
        await asyncio.gather(
            *(service.submit("client", data_id) for data_id in range(4))
        )
        await service.drain()
        return service

    service = virtual_run(main())
    snap = service.metrics_snapshot()
    assert snap["counters"]["requests.offered"] == 4
    assert snap["counters"]["requests.admitted"] == 4
    assert snap["counters"]["requests.completed"] == 4
    assert snap["counters"]["requests.rejected"] == 0
    gauges = snap["gauges"]
    assert gauges["queue.depth"] == 0
    assert gauges["inflight.depth"] == 0
    assert gauges["energy.joules"] > 0.0
    assert gauges["requests.submitted_to_disks"] == 4
    assert gauges["engine.events_processed"] > 0
    latency = snap["histograms"]["response_s"]
    assert isinstance(latency, dict)
    assert latency["count"] == 4
    assert latency["p99"] >= latency["p50"] > 0.0
