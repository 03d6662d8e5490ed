"""The storage system: scheduler + disk fleet wired to the engine.

:class:`StorageSystem` is the moral equivalent of the paper's OMNeT++
model (Fig. 1): requests arrive at a scheduler which dispatches them to
disks according to the data placement; a power manager (the policy inside
each :class:`~repro.disk.drive.SimulatedDisk`) spins idle disks down.

The disks, their cost columns and the
:class:`~repro.core.scheduler.SystemView` the schedulers observe come
from :class:`~repro.sim.fleet.DiskFleet`, and so do fault injection,
failover and typed loss; this class adds the trace replay: admission,
batching and caching.
"""

from __future__ import annotations

import gc
import math
import operator
from typing import Callable, List, Optional, Sequence

from repro.core.heuristic import HeuristicScheduler
from repro.core.scheduler import BatchScheduler, OnlineScheduler, Scheduler
from repro.errors import PlacementError, SchedulingError, SimulationError
from repro.placement.catalog import PlacementCatalog
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import DiskFleet
from repro.report import MetricsCollector, SimulationReport
from repro.types import DiskId, OpKind, Request

#: Request's dataclass compare-fields, as a sort key (see run()).
_REQUEST_ORDER = operator.attrgetter("time", "request_id")

#: Response time in seconds charged to a read served from the block cache.
CACHE_HIT_S = 0.0002


class StorageSystem(DiskFleet):
    """One simulated storage system instance (single-use: one run)."""

    def __init__(
        self,
        catalog: PlacementCatalog,
        scheduler: Scheduler,
        config: SimulationConfig,
    ):
        if not isinstance(scheduler, (OnlineScheduler, BatchScheduler)):
            raise SchedulingError(
                "StorageSystem drives online/batch schedulers; use "
                "run_offline() for offline schedulers"
            )
        self._metrics = MetricsCollector()
        super().__init__(
            catalog,
            config,
            SimulationEngine(),
            self._metrics.on_complete,
            self._metrics.on_lost,
        )
        self._scheduler = scheduler
        # Narrowed alias: _admit runs per arrival and should not pay an
        # ABC isinstance check each time.
        self._online_scheduler: Optional[OnlineScheduler] = (
            scheduler if isinstance(scheduler, OnlineScheduler) else None
        )
        self._batch_buffer: List[Request] = []
        self._tick_scheduled = False
        self._offered = 0
        self._ran = False
        self.cache = config.cache_factory() if config.cache_factory else None

    # -- driving the run -------------------------------------------------

    def run(self, requests: Sequence[Request]) -> SimulationReport:
        """Replay ``requests`` and return the final report."""
        if self._ran:
            raise SimulationError(
                f"{type(self).__name__} instances are single-use"
            )
        self._ran = True
        # Same order as sorted(requests): Request's dataclass ordering
        # compares exactly its (time, request_id) compare-fields, and
        # sorted() is stable either way — the key form just skips one
        # tuple-building __lt__ call per comparison.
        ordered = sorted(requests, key=_REQUEST_ORDER)
        self._offered = len(ordered)
        horizon = self._prepare(ordered)
        # Arrivals stream straight through the engine's merge loop: they
        # never touch the heap, so the trace stops paying O(log n) per
        # event and every runtime event's heap ops shrink. Ordering is
        # identical to post()-ing each one up front (preloaded events
        # carry the earliest sequence numbers, so at equal timestamps
        # they fired before any runtime event — the stream-first merge
        # rule reproduces exactly that).
        # The event loop allocates only short-lived, acyclic objects, so
        # the cyclic collector can only cost time here; pause it for the
        # drain (restored even on error — callers keep their setting).
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._engine.run(
                until=horizon,
                arrivals=(
                    [request.time for request in ordered],
                    ordered,
                    self._arrival_callback(),
                ),
            )
        finally:
            if gc_was_enabled:
                gc.enable()
        self.finalize()
        return self._report()

    def _prepare(self, ordered: Sequence[Request]) -> float:
        """Ready the run for the time-sorted trace; returns its horizon."""
        last_arrival = ordered[-1].time if ordered else 0.0
        return self._config.derived_horizon(last_arrival)

    def _report(self) -> SimulationReport:
        """The final report of a finished run."""
        return SimulationReport(
            scheduler_name=self._scheduler.name,
            duration=self._engine.now,
            total_energy=self.energy,
            disk_stats=self.disk_stats,
            response_times=self._metrics.response_times,
            requests_offered=self._offered,
            requests_completed=self._metrics.completed,
            cache_hits=self.cache.hits if self.cache else 0,
            cache_misses=self.cache.misses if self.cache else 0,
            events_processed=self._engine.events_processed,
            availability=self.availability_report(),
        )

    # -- internal event handlers ------------------------------------------

    def _arrival_callback(self) -> Callable[[Request], None]:
        """The per-arrival handler for this run's configuration.

        The general path (:meth:`_on_arrival`) re-checks cache and
        scheduler kind on every arrival even though both are fixed for
        the whole run. A Heuristic run with no cache gets a fused
        closure instead — semantically identical, minus the per-arrival
        re-dispatch: it gathers placement and scores through the fleet
        directly, and the chosen disk is one of the request's live
        replicas by construction, so the dispatch checks of
        :meth:`DiskFleet.submit` are redundant. Faults need no path of
        their own: when one of a request's replicas is in the fleet's
        ``down`` set the closure takes the live ones from
        :meth:`available_locations`, and a request with none backs off
        or is lost (its re-admissions go through :meth:`_admit`).
        """
        scheduler = self._online_scheduler
        if self.cache is not None or not isinstance(
            scheduler, HeuristicScheduler
        ):
            return self._on_arrival
        locations_by_data = self._locations_by_data
        available_locations = self.available_locations
        defer_or_lose = self._defer_or_lose
        down = self.fleet.down
        disks = self._disks
        engine = self._engine
        fleet_choose = self.fleet.choose
        cost_function = scheduler.cost_function
        alpha = cost_function.alpha
        beta = cost_function.beta
        load_weight = cost_function.load_weight
        # Disk ids are dense (range(num_disks)), so a list of bound
        # submit methods replaces the dict hash + attribute lookup on
        # the hand-off.
        submit_by_disk = [
            disks[disk_id].submit for disk_id in range(len(disks))
        ]

        def heuristic_arrival(request: Request) -> None:
            try:
                locations = locations_by_data[request.data_id]
            except KeyError:
                raise PlacementError(f"unknown data id {request.data_id}")
            if down and not down.isdisjoint(locations):
                locations = available_locations(request.data_id)
                if not locations:
                    defer_or_lose(request)
                    return
            disk_id = fleet_choose(
                locations, engine._now, alpha, beta, load_weight
            )
            submit_by_disk[disk_id](request)

        return heuristic_arrival

    def _on_arrival(self, request: Request) -> None:
        if (
            self.cache is not None
            and request.op is OpKind.READ
            and self.cache.lookup(request.data_id)
        ):
            self._complete_from_cache(request)
            return
        self._admit(request)

    def _admit(self, request: Request) -> None:
        """Hand a (possibly re-admitted) request to the scheduler.

        Requests none of whose replicas are currently servable never
        reach the scheduler — they back off and retry, or are recorded
        as lost. Re-admissions skip the cache on purpose: the arrival
        already consulted it.
        """
        if self._faults is not None and not self.available_locations(
            request.data_id
        ):
            self._defer_or_lose(request)
            return
        online = self._online_scheduler
        if online is not None:
            self._dispatch(request, online.choose(request, self))
        else:
            self._batch_buffer.append(request)
            self._ensure_tick()

    def _ensure_tick(self) -> None:
        if self._tick_scheduled:
            return
        assert isinstance(self._scheduler, BatchScheduler)
        interval = self._scheduler.interval
        next_tick = math.ceil(self._engine.now / interval) * interval
        if next_tick <= self._engine.now:
            next_tick += interval
        self._engine.schedule(next_tick, self._on_tick)
        self._tick_scheduled = True

    def _on_tick(self) -> None:
        self._tick_scheduled = False
        if not self._batch_buffer:
            return
        assert isinstance(self._scheduler, BatchScheduler)
        batch, self._batch_buffer = self._batch_buffer, []
        if self._faults is not None:
            batch = [
                request
                for request in batch
                if self._servable_or_deferred(request)
            ]
            if not batch:
                return
        decisions = self._scheduler.choose_batch(batch, self)
        for request in batch:
            try:
                disk_id = decisions[request.request_id]
            except KeyError as exc:
                raise SchedulingError(
                    f"batch scheduler left request {request.request_id} "
                    f"undecided at tick t={self._engine.now:.6g}s"
                ) from exc
            self._dispatch(request, disk_id)

    def _dispatch(self, request: Request, disk_id: DiskId) -> None:
        # Per dispatched request: the direct base call skips building a
        # super() proxy each time.
        DiskFleet._dispatch(self, request, disk_id)
        if self.cache is not None and request.op is OpKind.READ:
            self.cache.insert(
                request.data_id, disk_id, lambda d: self._disks[d].state
            )

    def _complete_from_cache(self, request: Request) -> None:
        """Serve a read from the cache: no disk is touched."""
        home = self.cache.home_disk(request.data_id)

        def deliver() -> None:
            self._metrics.on_complete(request, home, self._engine.now)

        self._engine.schedule_after(CACHE_HIT_S, deliver)
