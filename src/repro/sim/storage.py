"""The storage system: scheduler + disk fleet wired to the engine.

:class:`StorageSystem` is the moral equivalent of the paper's OMNeT++
model (Fig. 1): requests arrive at a scheduler which dispatches them to
disks according to the data placement; a power manager (the policy inside
each :class:`~repro.disk.drive.SimulatedDisk`) spins idle disks down.

The disks, their cost columns and the
:class:`~repro.core.scheduler.SystemView` the schedulers observe come
from :class:`~repro.sim.fleet.DiskFleet`, and so do fault injection,
failover, typed loss and the dispatch core (the online admission
closure and the batch tick's body); this class adds the trace replay:
the arrival stream, batch ticks timed on the engine, and the cache.
"""

from __future__ import annotations

import gc
import math
import operator
from typing import Callable, List, Sequence

from repro.core.scheduler import BatchScheduler, OnlineScheduler, Scheduler
from repro.errors import SchedulingError, SimulationError
from repro.placement.catalog import PlacementCatalog
from repro.power.states import DiskPowerState
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import DiskFleet
from repro.report import MetricsCollector, SimulationReport
from repro.types import DiskId, OpKind, Request

#: Request's dataclass compare-fields, as a sort key (see run()).
_REQUEST_ORDER = operator.attrgetter("time", "request_id")

#: Response time in seconds charged to a read served from the block cache.
CACHE_HIT_S = 0.0002

_READ = OpKind.READ


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
        self.cache = config.cache_factory() if config.cache_factory else None
        super().__init__(
            catalog,
            config,
            SimulationEngine(),
            self._metrics.record,
            self._metrics.on_lost,
            None if self.cache is None else self._cache_insert,
        )
        self._scheduler = scheduler
        self._batch_buffer: List[Request] = []
        self._tick_scheduled = False
        self._offered = 0
        self._ran = False
        #: Every arrival the cache does not serve, and every backoff
        #: re-admission: the fleet's admission closure, or the batch
        #: buffer.
        self._admission: Callable[[Request], None] = (
            self.admission(scheduler)
            if isinstance(scheduler, OnlineScheduler)
            else self._batch_admission
        )

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
        # event and every runtime event's heap ops shrink. At equal
        # timestamps an arrival fires after every heap event due at its
        # instant, so a request sees everything due then (the engine's
        # tie rule, shared with serving).
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
        """The per-arrival handler: admission, behind the cache's lookup
        when a cache is configured."""
        admit = self._admission
        cache = self.cache
        if cache is None:
            return admit

        def cached_arrival(request: Request) -> None:
            if request.op is _READ and cache.lookup(request.data_id):
                self._complete_from_cache(request)
            else:
                admit(request)

        return cached_arrival

    def _batch_admission(self, request: Request) -> None:
        """Queue a request for the next batch tick, unless no replica is
        live: then it backs off or is lost."""
        if self._faults is not None and not self._servable_or_deferred(request):
            return
        self._batch_buffer.append(request)
        self._ensure_tick()

    def _admit(self, request: Request) -> None:
        """Re-admit a request whose backoff expired. It skips the cache
        on purpose: its arrival already consulted it."""
        self._admission(request)

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
        assert isinstance(self._scheduler, BatchScheduler)
        batch, self._batch_buffer = self._batch_buffer, []
        self.dispatch_batch(self._scheduler, batch)

    def _cache_insert(self, request: Request, disk_id: DiskId) -> None:
        """A dispatch's cache insert: a read's home disk enters the cache."""
        if self.cache is not None and request.op is _READ:
            self.cache.insert(request.data_id, disk_id, self._disk_state)

    def _redispatch(self, request: Request, disk_id: DiskId) -> None:
        """A failover's dispatch, with the cache insert too."""
        super()._redispatch(request, disk_id)
        self._cache_insert(request, disk_id)

    def _disk_state(self, disk_id: DiskId) -> DiskPowerState:
        """The cache's eviction probe."""
        return self._disks[disk_id].state

    def _complete_from_cache(self, request: Request) -> None:
        """Serve a read from the cache: no disk is touched. Its
        completion orders as a service started on arrival."""
        home = self.cache.home_disk(request.data_id)
        stamp = next(self._engine._sequence)

        def deliver() -> None:
            self._metrics.on_complete(
                request, home, self._engine.now, request.time, stamp
            )

        self._engine.schedule_after(CACHE_HIT_S, deliver)
