"""The asyncio scheduling service: live requests over the paper's models.

:class:`SchedulingService` accepts read requests at runtime and drives
the simulated disk fleet through one of two dispatch policies, which are
exactly the paper's two non-clairvoyant scheduling models re-hosted as
serving policies:

* ``online`` — each request is assigned the instant it arrives, by the
  Eq. 6 cost heuristic (:class:`~repro.core.heuristic.HeuristicScheduler`).
* ``micro-batch`` — requests queue for a configurable window and are
  dispatched together through the WSC batch scheduler
  (:class:`~repro.core.wsc.WSCBatchScheduler`), reproducing the batch
  model's few-disks-active behaviour as a latency/energy trade-off knob.

Both dispatch through the trace replay's own core in the disk fleet
(its admission closure, its batch tick). Around the policies sit the
serving concerns: bounded-ingress admission control with per-client
token buckets (:mod:`repro.serve.admission`), typed load shedding,
window and drain timing, graceful drain, and a live
:class:`~repro.sim.metrics.MetricsRegistry`. Everything is clock-agnostic:
run it under :func:`~repro.serve.clock.virtual_run` for deterministic,
byte-reproducible sessions, or on a stock loop for wall-clock serving.
"""

from __future__ import annotations

import asyncio
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Sequence, Set, Tuple

from repro.core.cost import CostFunction
from repro.core.heuristic import HeuristicScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.errors import ConfigurationError, SimulationError
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.placement.catalog import PlacementCatalog
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.profile import get_profile
from repro.serve.admission import (
    LEGACY_REASONS,
    AdmissionController,
    Completed,
    Outcome,
    Rejected,
    RejectReason,
)
from repro.serve.backend import SimBackend
from repro.serve.clock import ServiceClock
from repro.sim.config import SimulationConfig
from repro.sim.metrics import Counter, MetricsRegistry, observe_engine
from repro.types import DEFAULT_REQUEST_BYTES, DataId, DiskId, Request

#: The two dispatch policies.
POLICY_ONLINE = "online"
POLICY_MICRO_BATCH = "micro-batch"
POLICIES = (POLICY_ONLINE, POLICY_MICRO_BATCH)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything about one serving session.

    Attributes:
        policy: ``"online"`` or ``"micro-batch"``.
        num_disks: Fleet size.
        replication_factor: Copies per data item (paper mid-range: 3).
        num_data: Data population size.
        zipf_exponent: Original-placement skew (paper: 1.0).
        seed: Base seed for placement and per-disk service-time draws.
        profile_name: Disk power profile (paper evaluation numbers).
        queue_limit: Bounded ingress capacity; arrivals beyond it are
            shed with :attr:`RejectReason.QUEUE_FULL`.
        client_rate_per_s: Per-client token refill rate in requests per
            second (``None`` disables rate limiting).
        client_burst: Per-client bucket capacity in tokens.
        window_s: Micro-batch window length in seconds (paper batch
            interval: 0.1 s).
        max_batch: Cap on requests dispatched per window tick (``None``
            = whole queue); the remainder waits for the next tick.
        alpha: Eq. 6 energy weight.
        beta: Eq. 6 energy scale.
        disk_deaths: Scripted permanent disk failures as ``(disk_id,
            at_s)`` pairs in service-clock seconds — the chaos drills'
            in-shard fault axis, run as the backend's scripted
            :class:`~repro.faults.plan.FaultPlan`. Each death fails the
            dying disk's queue over to the least loaded live replica;
            a request whose last replica died is shed with
            :attr:`RejectReason.DATA_UNAVAILABLE`.
    """

    policy: str = POLICY_ONLINE
    num_disks: int = 18
    replication_factor: int = 3
    num_data: int = 2_000
    zipf_exponent: float = 1.0
    seed: int = 1
    profile_name: str = "paper-evaluation"
    queue_limit: int = 1_024
    client_rate_per_s: Optional[float] = None
    client_burst: float = 8.0
    window_s: float = 0.1
    max_batch: Optional[int] = None
    alpha: float = 0.2
    beta: float = 100.0
    disk_deaths: Tuple[Tuple[DiskId, float], ...] = ()

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; known: {POLICIES}"
            )
        if self.num_data <= 0:
            raise ConfigurationError("num_data must be positive")
        if self.window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if self.max_batch is not None and self.max_batch <= 0:
            raise ConfigurationError("max_batch must be positive or None")
        doomed: Set[DiskId] = set()
        for disk_id, at_s in self.disk_deaths:
            if disk_id in doomed:
                raise ConfigurationError(
                    f"disk death names disk {disk_id} twice; a disk dies once"
                )
            doomed.add(disk_id)
            if not 0 <= disk_id < self.num_disks:
                raise ConfigurationError(
                    f"disk death names disk {disk_id}, outside the fleet "
                    f"0..{self.num_disks - 1}"
                )
            if at_s < 0:
                raise ConfigurationError(
                    f"disk death time must be >= 0, got {at_s}"
                )
        # num_disks / replication / queue_limit / rates are validated by
        # the objects built from them (SimulationConfig, placement,
        # AdmissionController).

    def make_catalog(
        self, data_ids: Optional[Sequence[DataId]] = None
    ) -> PlacementCatalog:
        """The paper's placement: Zipf originals, uniform replicas.

        Args:
            data_ids: The data population to place. ``None`` (the
                unsharded default) places ``range(num_data)``; a sharded
                deployment passes each shard its owned subset so every
                replica of an item lands inside that shard's sub-fleet.
        """
        scheme = ZipfOriginalUniformReplicas(
            replication_factor=self.replication_factor,
            zipf_exponent=self.zipf_exponent,
        )
        population = (
            list(range(self.num_data)) if data_ids is None else list(data_ids)
        )
        return scheme.place(
            population,
            self.num_disks,
            random.Random(self.seed + 7),
        )

    def make_sim_config(self) -> SimulationConfig:
        """The backend's simulation config (paper profile, 2CPM), with
        :attr:`disk_deaths` as its scripted fault plan (``None`` when
        no disk dies)."""
        deaths = tuple(
            ScriptedFault(disk_id, at_s) for disk_id, at_s in self.disk_deaths
        )
        return SimulationConfig(
            num_disks=self.num_disks,
            profile=get_profile(self.profile_name),
            seed=self.seed,
            fault_plan=FaultPlan(scripted=deaths) if deaths else None,
        )

    def cost_function(self) -> CostFunction:
        """The Eq. 6 cost weights both dispatch policies score with."""
        return CostFunction(alpha=self.alpha, beta=self.beta)


class _Pending:
    """One admitted request waiting for dispatch or completion."""

    __slots__ = ("request", "client_id", "future")

    def __init__(
        self,
        request: Request,
        client_id: str,
        future: "asyncio.Future[Outcome]",
    ):
        self.request = request
        self.client_id = client_id
        self.future = future


class SchedulingService:
    """Async request front end over the energy-aware schedulers.

    Lifecycle: construct → ``await start()`` → any number of concurrent
    ``await submit(...)`` → ``await drain(...)``. Instances are
    single-use, like the simulation they wrap.

    Args:
        config: The session parameters.
        catalog: Optional placement override. ``None`` builds the
            config's own Zipf catalog; a sharded deployment passes each
            shard worker the catalog over its owned data subset.
    """

    def __init__(
        self,
        config: ServiceConfig,
        catalog: Optional[PlacementCatalog] = None,
    ):
        self._config = config
        self._catalog_override = catalog
        self._started = False
        self._stopped = False
        self._draining = False
        self._drain_deadline_s: Optional[float] = None
        self._next_request_id = 0
        self._ingress: Deque[_Pending] = deque()
        self._inflight: Dict[int, _Pending] = {}
        # Built in start() so every asyncio object binds the running loop.
        self._clock: Optional[ServiceClock] = None
        self._backend: Optional[SimBackend] = None
        self.metrics = MetricsRegistry()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the running loop, build the backend, start the tasks."""
        if self._started:
            raise SimulationError("service already started")
        self._started = True
        config = self._config
        self._clock = ServiceClock()
        catalog = (
            self._catalog_override
            if self._catalog_override is not None
            else config.make_catalog()
        )
        self._backend = SimBackend(
            catalog,
            config.make_sim_config(),
            self._on_complete,
            self._on_lost,
            self._on_dispatch,
        )
        self._admission = AdmissionController(
            queue_limit=config.queue_limit,
            client_rate_per_s=config.client_rate_per_s,
            client_burst=config.client_burst,
        )
        if config.policy == POLICY_ONLINE:
            dispatch = self._run_online(HeuristicScheduler(config.cost_function()))
        else:
            dispatch = self._run_micro_batch(
                WSCBatchScheduler(
                    interval=config.window_s,
                    cost_function=config.cost_function(),
                )
            )
        self._arrived = asyncio.Event()
        self._engine_wake = asyncio.Event()
        self._drain_event = asyncio.Event()
        self._idle = asyncio.Event()
        self._pump_stop = False
        loop = asyncio.get_running_loop()
        self._dispatch_task = loop.create_task(dispatch)
        self._pump_task = loop.create_task(self._run_pump())
        self._init_metrics()

    def _init_metrics(self) -> None:
        metrics = self.metrics
        self._m_offered = metrics.counter("requests.offered")
        self._m_admitted = metrics.counter("requests.admitted")
        self._m_completed = metrics.counter("requests.completed")
        self._m_rejected = metrics.counter("requests.rejected")
        # Only the legacy reasons get eager counters: creating
        # ``rejected.failed_over`` etc. unconditionally would add zero
        # rows to every dump and break the pinned report digests. The
        # newer reasons materialise lazily on first occurrence.
        self._m_rejected_by = {
            reason: metrics.counter(f"rejected.{reason.value}")
            for reason in LEGACY_REASONS
        }
        self._m_batches = metrics.counter("batches.dispatched")
        self._m_empty_ticks = metrics.counter("batches.empty_ticks")
        self._m_queue_depth = metrics.gauge("queue.depth")
        self._m_inflight = metrics.gauge("inflight.depth")
        self._m_latency = metrics.histogram("response_s")
        self._m_queue_wait = metrics.histogram("queue_wait_s")
        self._m_batch_size = metrics.histogram("batch.size")

    def _reject_counter(self, reason: RejectReason) -> Counter:
        """The reason's counter, creating post-legacy ones on first use."""
        counter = self._m_rejected_by.get(reason)
        if counter is None:
            counter = self.metrics.counter(f"rejected.{reason.value}")
            self._m_rejected_by[reason] = counter
        return counter

    @property
    def config(self) -> ServiceConfig:
        return self._config

    @property
    def clock(self) -> ServiceClock:
        """The service clock (available after :meth:`start`)."""
        if self._clock is None:
            raise SimulationError("service not started")
        return self._clock

    @property
    def backend(self) -> SimBackend:
        """The simulated fleet (available after :meth:`start`)."""
        if self._backend is None:
            raise SimulationError("service not started")
        return self._backend

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Admitted requests waiting for dispatch."""
        return len(self._ingress)

    @property
    def inflight(self) -> int:
        """Dispatched requests whose I/O has not completed."""
        return len(self._inflight)

    # -- request path ---------------------------------------------------

    async def submit(
        self,
        client_id: str,
        data_id: DataId,
        size_bytes: int = DEFAULT_REQUEST_BYTES,
    ) -> Outcome:
        """Submit one read; resolves at completion or rejects instantly.

        Returns:
            :class:`Completed` once a disk serviced the request, or
            :class:`Rejected` (without awaiting) when an admission gate
            shed it.
        """
        if not self._started or self._stopped:
            raise SimulationError("service is not running")
        clock = self.clock
        now_s = clock.now
        self._m_offered.inc()
        if self._draining:
            reason: Optional[RejectReason] = RejectReason.SHUTTING_DOWN
        else:
            reason = self._admission.admit(client_id, now_s, len(self._ingress))
        if reason is not None:
            self._m_rejected.inc()
            self._reject_counter(reason).inc()
            return Rejected(
                client_id=client_id,
                data_id=data_id,
                reason=reason,
                rejected_s=now_s,
            )
        request = Request(
            time=now_s,
            request_id=self._next_request_id,
            data_id=data_id,
            size_bytes=size_bytes,
        )
        self._next_request_id += 1
        self._m_admitted.inc()
        future: "asyncio.Future[Outcome]" = (
            asyncio.get_running_loop().create_future()
        )
        self._ingress.append(_Pending(request, client_id, future))
        self._m_queue_depth.set(len(self._ingress))
        self._arrived.set()
        return await future

    def _on_complete(self, request: Request, disk_id: DiskId, now_s: float) -> None:
        """Engine callback: one request's I/O finished at ``now_s``."""
        pending = self._inflight.pop(request.request_id)
        self._m_completed.inc()
        self._m_latency.observe(now_s - request.time)
        self._m_inflight.set(len(self._inflight))
        pending.future.set_result(
            Completed(
                request_id=request.request_id,
                client_id=pending.client_id,
                data_id=request.data_id,
                disk_id=disk_id,
                arrival_s=request.time,
                completed_s=now_s,
            )
        )
        if self._draining and not self._inflight:
            self._idle.set()

    def _on_dispatch(self, request: Request, disk_id: DiskId) -> None:
        """Backend callback: the fleet sent an admitted request to a disk."""
        self._m_inflight.set(len(self._inflight))
        self._m_queue_wait.observe(self.backend.now - request.time)
        self._engine_wake.set()

    def _on_lost(self, request: Request, now_s: float) -> None:
        """Backend callback: no replica of an admitted request was live
        at its dispatch, or a disk death took its last one in flight at
        ``now_s``; shed it with ``DATA_UNAVAILABLE``."""
        pending = self._inflight.pop(request.request_id)
        self._m_rejected.inc()
        self._reject_counter(RejectReason.DATA_UNAVAILABLE).inc()
        pending.future.set_result(
            Rejected(
                client_id=pending.client_id,
                data_id=request.data_id,
                reason=RejectReason.DATA_UNAVAILABLE,
                rejected_s=now_s,
            )
        )
        self._m_inflight.set(len(self._inflight))
        if self._draining and not self._inflight:
            self._idle.set()

    # -- dispatch policies ----------------------------------------------

    async def _run_online(self, scheduler: HeuristicScheduler) -> None:
        """Per-request dispatch at the arrival instant (Eq. 6 cost)."""
        backend = self.backend
        clock = self.clock
        ingress = self._ingress
        admit = backend.admission(scheduler)
        while True:
            while ingress:
                pending = ingress.popleft()
                self._m_queue_depth.set(len(ingress))
                backend.advance_to(clock.now)
                self._inflight[pending.request.request_id] = pending
                admit(pending.request)
            if self._draining:
                break
            self._arrived.clear()
            await self._arrived.wait()

    async def _run_micro_batch(self, scheduler: WSCBatchScheduler) -> None:
        """Window-aligned batch dispatch through the WSC set-cover model.

        Ticks land on multiples of ``window_s`` (like the replay path's
        batch ticks), and each is flushed once. During a graceful drain
        with a deadline, the queue is force-flushed in one final batch
        exactly at the deadline — a batch arriving at that instant is
        dispatched, not shed.
        """
        clock = self.clock
        window_s = self._config.window_s
        ingress = self._ingress
        last_tick_s = -math.inf
        while True:
            if self._draining and not ingress and self._drain_deadline_s is None:
                break
            now_s = clock.now
            # The next tick is strictly after both now and the last tick
            # flushed: the clock can wake an ulp short of a tick, and
            # floor arithmetic can round (k+1)*w back onto the instant it
            # starts from (e.g. 4.3 with w=0.1). Either would flush one
            # tick twice.
            since_s = max(now_s, last_tick_s)
            tick_index = math.floor(since_s / window_s) + 1
            next_tick_s = tick_index * window_s
            while next_tick_s <= since_s:
                tick_index += 1
                next_tick_s = tick_index * window_s
            deadline_s = self._drain_deadline_s
            target_s = (
                next_tick_s
                if deadline_s is None
                else min(next_tick_s, deadline_s)
            )
            if target_s > now_s:
                if self._draining:
                    await clock.sleep_until(target_s)
                else:
                    try:
                        await asyncio.wait_for(
                            self._drain_event.wait(), timeout=target_s - now_s
                        )
                        continue  # drain began: recompute the target
                    except asyncio.TimeoutError:
                        pass
            # Dispatch at the tick instant itself, as the replay does: the
            # clock can wake an ulp short of it.
            tick_s = last_tick_s = max(clock.now, target_s)
            final = deadline_s is not None and tick_s >= deadline_s
            limit = None if final else self._config.max_batch
            self._flush_batch(scheduler, limit, tick_s)
            if final:
                while ingress:  # max_batch no longer caps the force-flush
                    self._flush_batch(scheduler, None, tick_s)
                break
            if self._draining and not ingress:
                break

    def _flush_batch(
        self, scheduler: WSCBatchScheduler, limit: Optional[int], tick_s: float
    ) -> None:
        """Dispatch up to ``limit`` queued requests as one batch at
        ``tick_s`` seconds."""
        ingress = self._ingress
        if not ingress:
            self._m_empty_ticks.inc()
            return
        take = len(ingress) if limit is None else min(limit, len(ingress))
        batch = [ingress.popleft() for _ in range(take)]
        self._m_queue_depth.set(len(ingress))
        for pending in batch:
            self._inflight[pending.request.request_id] = pending
        self.backend.advance_to(tick_s)
        dispatched = self.backend.dispatch_batch(
            scheduler, [pending.request for pending in batch]
        )
        if dispatched:
            self._m_batches.inc()
            self._m_batch_size.observe(float(dispatched))

    # -- engine pump ----------------------------------------------------

    async def _run_pump(self) -> None:
        """Advance the engine to each pending disk event as time passes.

        Sleeps until the engine's next event instant; a new submission
        (which may schedule earlier events) interrupts the sleep via
        ``_engine_wake``.
        """
        backend = self.backend
        clock = self.clock
        wake = self._engine_wake
        while not self._pump_stop:
            next_s = backend.next_event_time()
            if next_s is None:
                wake.clear()
                await wake.wait()
                continue
            now_s = clock.now
            if next_s > now_s:
                wake.clear()
                try:
                    await asyncio.wait_for(wake.wait(), timeout=next_s - now_s)
                except asyncio.TimeoutError:
                    pass
            backend.advance_to(clock.now)

    # -- shutdown -------------------------------------------------------

    async def drain(self, grace_s: Optional[float] = None) -> None:
        """Stop accepting work, flush the queue, wait for completions.

        New submissions are shed with
        :attr:`RejectReason.SHUTTING_DOWN` from the moment this is
        called. Queued requests are still dispatched: the online policy
        drains immediately; the micro-batch policy keeps ticking its
        windows and — when ``grace_s`` is given — force-flushes whatever
        remains in one final batch exactly ``grace_s`` seconds from now.
        In-flight I/O is always awaited, then the disk ledgers close.
        """
        if not self._started or self._stopped:
            raise SimulationError("service is not running")
        if self._draining:
            raise SimulationError("drain already in progress")
        if grace_s is not None and grace_s < 0:
            raise ConfigurationError(f"grace_s must be >= 0, got {grace_s}")
        self._draining = True
        if grace_s is not None:
            self._drain_deadline_s = self.clock.now + grace_s
        self._drain_event.set()
        self._arrived.set()
        await self._dispatch_task
        while self._inflight:
            self._idle.clear()
            if self._inflight:
                await self._idle.wait()
        self._pump_stop = True
        self._engine_wake.set()
        await self._pump_task
        self.backend.finalize(self.clock.now)
        self._stopped = True

    # -- observability --------------------------------------------------

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Deterministic point-in-time snapshot of every metric.

        Refreshes the derived gauges (energy, spin ops, engine counters,
        clock) before serialising, so one snapshot is a complete,
        self-consistent picture of the session.
        """
        backend = self.backend
        now_s = self.clock.now
        metrics = self.metrics
        metrics.gauge("time.now_s").set(now_s)
        metrics.gauge("energy.joules").set(backend.energy_at(now_s))
        metrics.gauge("energy.spin_operations").set(backend.spin_operations)
        metrics.gauge("requests.submitted_to_disks").set(
            backend.requests_submitted
        )
        observe_engine(metrics, backend.engine)
        availability = backend.availability_report()
        if availability is not None and availability.disk_failures:
            # Created on the first death only, so healthy dumps keep
            # exactly their rows.
            for name, value in (
                ("disks.failed", availability.disk_failures),
                ("requests.redispatched", availability.requests_redispatched),
            ):
                counter = metrics.counter(name)
                counter.inc(value - counter.value)
        self._m_queue_depth.set(len(self._ingress))
        self._m_inflight.set(len(self._inflight))
        return metrics.snapshot()


__all__ = [
    "POLICIES",
    "POLICY_MICRO_BATCH",
    "POLICY_ONLINE",
    "SchedulingService",
    "ServiceConfig",
]
