"""Load generator for :class:`~repro.serve.service.SchedulingService`.

Two classic shapes, both seeded and deterministic under the virtual
clock:

* **open loop** — arrival instants are precomputed from a Poisson or
  bursty (MMPP) process and each request fires at its instant regardless
  of how the service is keeping up. This is the shape that exposes
  overload: a bounded ingress queue under an open-loop burst *must*
  shed load.
* **closed loop** — a fixed population of clients, each issuing its next
  request only after the previous one resolves (plus an optional think
  time). Offered load self-regulates, which is the shape for latency
  studies below saturation.

Data popularity follows the same Zipf law the placement layer assumes,
so the generated stream matches the paper's workload model end to end.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.placement.zipf import ZipfSampler
from repro.serve.admission import LEGACY_REASONS, Completed, Outcome, Rejected
from repro.serve.service import SchedulingService
from repro.traces.synthetic import ArrivalProcess, MMPPArrivals, PoissonArrivals
from repro.types import DataId

#: Arrival shapes the CLI exposes.
ARRIVAL_POISSON = "poisson"
ARRIVAL_BURSTY = "bursty"
ARRIVALS = (ARRIVAL_POISSON, ARRIVAL_BURSTY)

#: Loop disciplines.
LOOP_OPEN = "open"
LOOP_CLOSED = "closed"
LOOPS = (LOOP_OPEN, LOOP_CLOSED)


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation session.

    Attributes:
        num_requests: Total requests to issue.
        rate_per_s: Mean arrival rate in requests/second (open loop) or
            the per-client think-rate base (closed loop; think time is
            ``num_clients / rate_per_s`` so the aggregate offered rate
            matches the open-loop meaning below saturation).
        num_clients: Distinct client identities (round-robin in open
            loop; concurrent issuers in closed loop).
        arrival: ``"poisson"`` or ``"bursty"`` (open loop only).
        loop: ``"open"`` or ``"closed"``.
        seed: Workload seed (independent of the service seed).
        zipf_exponent: Popularity skew of requested data ids.
        burst_factor: Bursty mode: burst rate is ``rate_per_s *
            burst_factor``, quiet rate is ``rate_per_s / burst_factor``.
    """

    num_requests: int = 1_000
    rate_per_s: float = 100.0
    num_clients: int = 8
    arrival: str = ARRIVAL_POISSON
    loop: str = LOOP_OPEN
    seed: int = 1
    zipf_exponent: float = 1.0
    burst_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ConfigurationError("num_requests must be positive")
        if self.rate_per_s <= 0:
            raise ConfigurationError("rate_per_s must be positive")
        if self.num_clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        if self.arrival not in ARRIVALS:
            raise ConfigurationError(
                f"unknown arrival shape {self.arrival!r}; known: {ARRIVALS}"
            )
        if self.loop not in LOOPS:
            raise ConfigurationError(
                f"unknown loop discipline {self.loop!r}; known: {LOOPS}"
            )
        if self.burst_factor < 1:
            raise ConfigurationError("burst_factor must be >= 1")

    def arrival_process(self) -> ArrivalProcess:
        """The configured arrival process (open-loop timestamps)."""
        if self.arrival == ARRIVAL_POISSON:
            return PoissonArrivals(self.rate_per_s)
        return MMPPArrivals(
            burst_rate=self.rate_per_s * self.burst_factor,
            quiet_rate=self.rate_per_s / self.burst_factor,
            mean_burst=1.0,
            mean_quiet=1.0,
        )


@dataclass(frozen=True)
class LoadResult:
    """Outcome tally of one load-generation run.

    Attributes:
        outcomes: Every per-request outcome, in submission order.
        offered: Requests issued.
        completed: Requests serviced by a disk.
        rejected: Requests shed at admission.
        rejected_by_reason: Shed counts per :class:`RejectReason` value.
    """

    outcomes: Tuple[Outcome, ...]
    offered: int
    completed: int
    rejected: int
    rejected_by_reason: Tuple[Tuple[str, int], ...]

    @property
    def completed_fraction(self) -> float:
        return self.completed / self.offered if self.offered else 0.0

    @property
    def response_times_s(self) -> List[float]:
        """Response times of the completed requests, submission order."""
        return [
            outcome.response_time_s
            for outcome in self.outcomes
            if isinstance(outcome, Completed)
        ]


def tally_outcomes(outcomes: Sequence[Outcome]) -> LoadResult:
    """Tally any outcome sequence (a session's, or the router's merge)."""
    completed = sum(1 for o in outcomes if isinstance(o, Completed))
    # Legacy reasons are always present (reports have pinned digests
    # that include their zeros); reasons added for cross-shard failover
    # appear only when actually observed.
    by_reason = {reason: 0 for reason in LEGACY_REASONS}
    for outcome in outcomes:
        if isinstance(outcome, Rejected):
            by_reason[outcome.reason] = by_reason.get(outcome.reason, 0) + 1
    return LoadResult(
        outcomes=tuple(outcomes),
        offered=len(outcomes),
        completed=completed,
        rejected=len(outcomes) - completed,
        rejected_by_reason=tuple(
            (reason.value, count) for reason, count in sorted(
                by_reason.items(), key=lambda item: item[0].value
            )
        ),
    )


def open_loop_schedule(
    config: LoadgenConfig, num_data: int
) -> List[Tuple[float, str, int]]:
    """Precompute one open-loop stream: ``(arrival_s, client_id, data_id)``.

    The draw order is exactly :func:`run_open_loop`'s — all arrival
    instants first, then all data ids from the same seeded stream — so a
    schedule consumer (the sharded router partitions this stream across
    shard workers) sees byte-identical workloads to a live unsharded
    session with the same :class:`LoadgenConfig`.
    """
    rng = random.Random(config.seed)
    times_s = config.arrival_process().generate(config.num_requests, rng)
    sampler = ZipfSampler(num_data, config.zipf_exponent)
    data_ids = [sampler.sample(rng) for _ in range(config.num_requests)]
    return [
        (times_s[index], f"client-{index % config.num_clients}", data_ids[index])
        for index in range(config.num_requests)
    ]


async def submit_schedule(
    service: SchedulingService, schedule: Iterable[Tuple[float, str, DataId]]
) -> List[Outcome]:
    """Fire each ``(arrival_s, client_id, data_id)`` at its instant and
    return the outcomes in schedule order. Each submission runs as its
    own task so slow responses never delay later arrivals (the defining
    property of an open loop); ``schedule`` may be lazy."""
    clock = service.clock
    loop = asyncio.get_running_loop()
    tasks: "List[asyncio.Task[Outcome]]" = []
    for arrival_s, client_id, data_id in schedule:
        await clock.sleep_until(arrival_s)
        tasks.append(loop.create_task(service.submit(client_id, data_id)))
    return list(await asyncio.gather(*tasks))


async def run_open_loop(
    service: SchedulingService, config: LoadgenConfig
) -> LoadResult:
    """Fire requests at precomputed instants, independent of responses.

    Arrival times come from the configured process; data ids from a Zipf
    sampler over the service's data population; client ids round-robin
    (:func:`open_loop_schedule`).
    """
    schedule = open_loop_schedule(config, service.config.num_data)
    return tally_outcomes(await submit_schedule(service, schedule))


async def run_closed_loop(
    service: SchedulingService, config: LoadgenConfig
) -> LoadResult:
    """Fixed client population; each client waits for its response.

    Every client draws its own think times (exponential, mean
    ``num_clients / rate_per_s``) and data ids from a per-client seeded
    stream, so the run is deterministic regardless of completion
    interleaving.
    """
    sampler = ZipfSampler(service.config.num_data, config.zipf_exponent)
    think_mean_s = config.num_clients / config.rate_per_s
    per_client = [
        config.num_requests // config.num_clients
        + (1 if index < config.num_requests % config.num_clients else 0)
        for index in range(config.num_clients)
    ]

    async def one_client(index: int) -> List[Outcome]:
        rng = random.Random(config.seed * 97 + index)
        clock = service.clock
        outcomes: List[Outcome] = []
        for _ in range(per_client[index]):
            await clock.sleep(rng.expovariate(1.0 / think_mean_s))
            outcomes.append(
                await service.submit(f"client-{index}", sampler.sample(rng))
            )
        return outcomes

    per_client_outcomes = await asyncio.gather(
        *(one_client(index) for index in range(config.num_clients))
    )
    outcomes = [
        outcome for client in per_client_outcomes for outcome in client
    ]
    return tally_outcomes(outcomes)


async def run_load(
    service: SchedulingService,
    config: LoadgenConfig,
    drain_grace_s: Optional[float] = None,
) -> LoadResult:
    """Start the service, run the configured load, drain, tally.

    The one-call entry point used by the CLI and the serve benchmark.
    """
    await service.start()
    if config.loop == LOOP_OPEN:
        result = await run_open_loop(service, config)
    else:
        result = await run_closed_loop(service, config)
    await service.drain(grace_s=drain_grace_s)
    return result


__all__ = [
    "ARRIVALS",
    "ARRIVAL_BURSTY",
    "ARRIVAL_POISSON",
    "LOOPS",
    "LOOP_CLOSED",
    "LOOP_OPEN",
    "LoadResult",
    "LoadgenConfig",
    "open_loop_schedule",
    "run_closed_loop",
    "run_load",
    "run_open_loop",
    "submit_schedule",
    "tally_outcomes",
]
