"""The disk fleet: disks, cost columns, placement and faults behind one view.

:class:`DiskFleet` is what every owner of simulated disks shares: one
:class:`~repro.disk.drive.SimulatedDisk` per disk on a common engine,
the Eq. 5/6 columns they keep current (``view.fleet``), the data
placement, the :class:`~repro.core.scheduler.SystemView` protocol, the
one fault path (the :class:`~repro.faults.injector.FaultInjector` of
``config.fault_plan``, which arms every disk's faults at construction
and draws each as the run reaches it; failover to the least loaded live
replica, backoff, typed loss) and the one dispatch core (the online
:meth:`~DiskFleet.admission` closure and the batch tick,
:meth:`~DiskFleet.dispatch_batch`). The trace replay
(:class:`~repro.sim.storage.StorageSystem`, the tiered system included)
and the serving backend (:class:`~repro.serve.backend.SimBackend`)
subclass it; their owners decide only when requests reach the core.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.fleet import FleetCostState
from repro.core.scheduler import BatchScheduler, OnlineScheduler
from repro.disk.drive import CompletionCallback, SimulatedDisk
from repro.disk.stats import DiskStats
from repro.errors import PlacementError, SchedulingError
from repro.faults.health import DiskHealth
from repro.faults.injector import FaultInjector
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import DiskPowerProfile
from repro.report import AvailabilityReport
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.types import DataId, DiskId, OpKind, Request, RequestId

_READ = OpKind.READ

#: ``(request, now_s)``: the request can no longer be served — every
#: replica is permanently dead, or its backoff budget ran out.
LostCallback = Callable[[Request, float], None]

#: ``(request, disk_id)``: an admission or a batch tick (not a
#: failover) just sent the request to that disk.
DispatchCallback = Callable[[Request, DiskId], None]

#: First failover-retry delay in seconds; doubles on every further attempt.
RETRY_BASE_S = 0.5
#: Backoff retries granted to a request over its whole life: once it has
#: spent them, the next time it finds no live replica it is declared lost.
MAX_FAILOVER_ATTEMPTS = 8


class DiskFleet:
    """The simulated disks of one run and the scheduler's view of them.

    Args:
        catalog: Data placement (``L``).
        config: Power profile, policy, service model, seed and fleet size.
        engine: The virtual clock every disk schedules on.
        on_complete: Invoked once per serviced request, when its disk is
            walked past the completion instant (see
            :mod:`repro.disk.drive`).
        on_lost: Invoked once per request the fleet gives up on (only
            ever under an active fault plan).
        on_dispatch: Invoked after each dispatch of :meth:`admission`
            and :meth:`dispatch_batch`.
    """

    def __init__(
        self,
        catalog: PlacementCatalog,
        config: SimulationConfig,
        engine: SimulationEngine,
        on_complete: CompletionCallback,
        on_lost: LostCallback,
        on_dispatch: Optional[DispatchCallback] = None,
    ):
        # data_id -> locations tuple, resolved once: per-request placement
        # lookups are one dict access instead of a catalog method call.
        self._locations_by_data = catalog.mapping()
        self._config = config
        self._engine = engine
        #: Columnar Eq. 5/6 state (``view.fleet``): every disk writes its
        #: own slot, and the cost-based schedulers score through it.
        self.fleet = FleetCostState(config.num_disks, config.profile)
        self._disks: Dict[DiskId, SimulatedDisk] = {
            disk_id: SimulatedDisk(
                disk_id=disk_id,
                engine=engine,
                profile=config.profile,
                policy=config.policy,
                service_model=config.service_model,
                rng=random.Random(config.seed * 1_000_003 + disk_id),
                on_complete=on_complete,
                initial_state=config.initial_state,
                record_transitions=config.record_transitions,
                fleet=self.fleet,
            )
            for disk_id in range(config.num_disks)
        }
        # Dense disk ids: one walk per disk, indexed like the columns.
        self._advance_by_disk = [
            self._disks[disk_id].advance for disk_id in range(config.num_disks)
        ]
        engine.add_lazy(self._advance_due)
        self._finalized = False
        self._on_lost = on_lost
        self._on_dispatch = on_dispatch
        self._lost = 0
        self._redispatched = 0
        self._failover_retries = 0
        # Backoff retries each deferred request has spent, over its whole
        # life: a dispatch does not refund them, so a replica that keeps
        # failing under a request cannot bounce it forever.
        self._retries: Dict[RequestId, int] = {}
        # Deferred requests not yet dispatched: id -> request.
        self._deferred: Dict[RequestId, Request] = {}
        #: None without an active plan: every disk stays available (the
        #: fleet's down set stays empty). It arms every disk's faults at
        #: construction.
        self._faults: Optional[FaultInjector] = None
        if config.fault_plan is not None and config.fault_plan.active:
            self._faults = FaultInjector(
                plan=config.fault_plan,
                engine=engine,
                disks=self._disks,
                on_disk_failed=self._on_disk_failed,
            )

    @property
    def engine(self) -> SimulationEngine:
        """The virtual clock every disk of this fleet schedules on."""
        return self._engine

    # -- SystemView protocol -------------------------------------------

    @property
    def now(self) -> float:
        return self._engine.now

    @property
    def profile(self) -> DiskPowerProfile:
        return self._config.profile

    @property
    def disk_ids(self) -> range:
        return range(self._config.num_disks)

    def disk(self, disk_id: DiskId) -> SimulatedDisk:
        """Live view of one disk (SystemView protocol)."""
        return self._disks[disk_id]

    def locations(self, data_id: DataId) -> Tuple[DiskId, ...]:
        """Placement lookup (SystemView protocol)."""
        try:
            return self._locations_by_data[data_id]
        except KeyError:
            raise PlacementError(f"unknown data id {data_id}")

    def available_locations(self, data_id: DataId) -> Tuple[DiskId, ...]:
        """Replicas currently able to service requests (SystemView).

        The precomputed placement tuple itself whenever none of its
        disks is in the fleet's ``down`` set (always, without faults);
        otherwise the tuple minus the down and failed disks, in
        placement order, so the schedulers steer around them and raise
        :class:`~repro.errors.ReplicaUnavailableError` when every
        replica of an item is gone.
        """
        try:
            locations = self._locations_by_data[data_id]
        except KeyError:
            raise PlacementError(f"unknown data id {data_id}")
        down = self.fleet.down
        if not down or down.isdisjoint(locations):
            return locations
        return tuple(  # reprolint: disable=RPL007 -- only when a replica is down
            disk_id for disk_id in locations if disk_id not in down
        )

    # -- the lazy disks ------------------------------------------------

    def _advance_due(self, until: float) -> None:
        """Walk every disk due by ``until`` seconds up to it."""
        due = self.fleet.due
        if min(due) > until:
            return
        advance_by_disk = self._advance_by_disk
        for disk_id, when in enumerate(due):
            if when <= until:
                advance_by_disk[disk_id](until)

    def _catch_up(self) -> None:
        """Walk every disk up to the engine's current instant."""
        self._advance_due(self._engine.now)

    # -- dispatch ------------------------------------------------------

    def submit(self, request: Request, disk_id: DiskId) -> None:
        """Hand ``request`` to ``disk_id`` at the current engine time.

        The scheduler-output invariants: the disk must exist, and a read
        must land on a replica of its data. Off-loaded writes may go
        anywhere (the write off-loading liberty, Section 2.1).
        """
        disk = self._disks.get(disk_id)
        if disk is None:
            raise SchedulingError(f"scheduler chose unknown disk {disk_id}")
        if request.op is OpKind.READ and disk_id not in self._locations_by_data.get(
            request.data_id, ()
        ):
            raise SchedulingError(
                f"scheduler sent request {request.request_id} to disk {disk_id}, "
                f"which does not hold data {request.data_id}"
            )
        disk.submit(request)

    def admission(self, scheduler: OnlineScheduler) -> Callable[[Request], None]:
        """One closure admits every request through ``scheduler``'s picker,
        bound once: live replicas (back off or lose when none is live),
        pick, the dispatch check, submit and ``on_dispatch``."""
        pick = scheduler.bind(self)
        locations_by_data = self._locations_by_data
        available_locations = self.available_locations
        defer_or_lose = self._defer_or_lose
        down = self.fleet.down
        engine = self._engine
        deferred = self._deferred
        on_dispatch = self._on_dispatch
        num_disks = len(self._disks)
        due = self.fleet.due
        advance_by_disk = self._advance_by_disk
        # Disk ids are dense (range(num_disks)), so a list of bound
        # submit methods replaces the dict hash + attribute lookup on
        # the hand-off.
        submit_by_disk = [self._disks[disk_id].submit for disk_id in range(num_disks)]

        def admit(request: Request) -> None:
            try:
                locations = locations_by_data[request.data_id]
            except KeyError:
                raise PlacementError(f"unknown data id {request.data_id}")
            if down and not down.isdisjoint(locations):
                locations = available_locations(request.data_id)
                if not locations:
                    defer_or_lose(request)
                    return
            now = engine._now
            # The picker reads the candidates' columns: walk the ones
            # that have a transition due first.
            for disk_id in locations:
                if due[disk_id] <= now:
                    advance_by_disk[disk_id](now)
            disk_id = pick(request, locations, now)
            # A read must go to one of the live replicas it was handed; an
            # off-loaded write to any disk, but no negative id may wrap.
            if request.op is _READ:
                if disk_id not in locations:
                    raise SchedulingError(
                        f"scheduler sent read {request.request_id} to disk {disk_id}, "
                        f"not a live replica of data {request.data_id}"
                    )
            elif not 0 <= disk_id < num_disks:
                raise SchedulingError(f"scheduler sent write to unknown disk {disk_id}")
            submit_by_disk[disk_id](request)
            if deferred:
                deferred.pop(request.request_id, None)
            if on_dispatch is not None:
                on_dispatch(request, disk_id)

        return admit

    def dispatch_batch(self, scheduler: BatchScheduler, batch: List[Request]) -> int:
        """One batch tick now: a request with no live replica backs off or
        is lost, ``choose_batch`` decides the rest, and each goes through
        the dispatch check, submit and ``on_dispatch``. Returns how many
        it dispatched."""
        if self._faults is not None:
            servable_or_deferred = self._servable_or_deferred
            batch = [  # reprolint: disable=RPL007 -- only under a fault plan
                request for request in batch if servable_or_deferred(request)
            ]
        if not batch:
            return 0
        # The cover weighs every replica of the batch: walk them first.
        now = self._engine.now
        advance_by_disk = self._advance_by_disk
        locations_by_data = self._locations_by_data
        for request in batch:
            for disk_id in locations_by_data[request.data_id]:
                advance_by_disk[disk_id](now)
        decisions = scheduler.choose_batch(batch, self)
        submit = self.submit
        deferred = self._deferred
        on_dispatch = self._on_dispatch
        for request in batch:
            try:
                disk_id = decisions[request.request_id]
            except KeyError as exc:
                raise SchedulingError(
                    f"batch scheduler left request {request.request_id} "
                    f"undecided at tick t={now:.6g}s"
                ) from exc
            submit(request, disk_id)
            if deferred:
                deferred.pop(request.request_id, None)
            if on_dispatch is not None:
                on_dispatch(request, disk_id)
        return len(batch)

    # -- failover (fault injection only) -------------------------------

    def _admit(self, request: Request) -> None:
        """Re-admit a request whose backoff expired.

        The default routes it like a drained request; an owner with its
        own admission path (the trace replay's scheduler) overrides this.
        """
        self._failover(request)

    def _on_disk_failed(self, disk_id: DiskId, drained: List[Request]) -> None:
        """Injector callback: ``disk_id`` crash-stopped mid-run, and
        every request drained from its queue fails over; routing new
        arrivals around it is :meth:`available_locations`' job."""
        del disk_id  # routing reads the fleet's down set, not the event
        for request in drained:
            self._failover(request)

    def _failover(self, request: Request) -> None:
        """Least-loaded live replica (ties by disk id), else defer."""
        candidates = self.available_locations(request.data_id)
        if not candidates:
            self._defer_or_lose(request)
            return
        for disk_id in candidates:
            self._disks[disk_id].catch_up()
        # min keeps the first of equal keys: sorting first breaks ties
        # by disk id.
        best = min(sorted(candidates), key=self.fleet.queue.__getitem__)
        self._redispatched += 1
        self._redispatch(request, best)

    def _redispatch(self, request: Request, disk_id: DiskId) -> None:
        """A failover's dispatch: a deferred request is deferred no more."""
        self.submit(request, disk_id)
        if self._deferred:
            self._deferred.pop(request.request_id, None)

    def _servable_or_deferred(self, request: Request) -> bool:
        """True when some replica is live; otherwise defers the request."""
        if self.available_locations(request.data_id):
            return True
        self._defer_or_lose(request)
        return False

    def _defer_or_lose(self, request: Request) -> None:
        """Back off and re-admit, or record the request as lost.

        Lost means: every replica is permanently dead, or the request has
        spent its lifetime retry budget and finds no replica available.
        """
        request_id = request.request_id
        locations = self.locations(request.data_id)
        attempts = self._retries.get(request_id, 0)
        all_dead = all(
            self._disks[d].health is DiskHealth.FAILED for d in locations
        )
        if all_dead or attempts >= MAX_FAILOVER_ATTEMPTS:
            self._retries.pop(request_id, None)
            self._deferred.pop(request_id, None)
            self._lose(request)
            return
        self._retries[request_id] = attempts + 1
        self._deferred[request_id] = request
        self._failover_retries += 1
        delay = RETRY_BASE_S * (2.0**attempts)
        self._engine.schedule_after(delay, partial(self._admit, request))

    def _lose(self, request: Request) -> None:
        self._lost += 1
        self._on_lost(request, self._engine.now)

    # -- accounting ----------------------------------------------------

    def finalize(self) -> None:
        """Close every disk's ledger at the engine's current time
        (idempotent).

        Under an active fault plan, a request not served by then can no
        longer be: one still deferred (backing off, or re-admitted to a
        batch that never ticked) and one still held by a disk (queued
        or in service on a replica that outages kept from serving it)
        are lost, not silently unresolved.
        """
        if self._finalized:
            return
        for request in self._deferred.values():
            self._lose(request)
        if self._faults is not None:
            for disk in self._disks.values():
                for request in disk.held_requests():
                    self._lose(request)
        for disk in self._disks.values():
            disk.finalize()
        self._finalized = True

    def availability_report(self) -> Optional[AvailabilityReport]:
        """Fault accounting up to now; None when no plan is active."""
        if self._faults is None:
            return None
        return self._faults.availability_report(
            end_s=self._engine.now,
            requests_lost=self._lost,
            requests_redispatched=self._redispatched,
            failover_retries=self._failover_retries,
        )

    @property
    def disk_stats(self) -> Dict[DiskId, DiskStats]:
        """Per-disk ledgers, by disk id."""
        self._catch_up()
        return {disk_id: disk.stats for disk_id, disk in self._disks.items()}

    @property
    def energy(self) -> float:
        """Fleet joules over the closed state intervals."""
        self._catch_up()
        return sum(disk.stats.energy for disk in self._disks.values())

    def energy_at(self, time_s: float) -> float:
        """Fleet joules through ``time_s`` (open state intervals included)."""
        self._catch_up()
        return sum(
            disk.stats.energy_at(time_s) for disk in self._disks.values()
        )

    @property
    def spin_operations(self) -> int:
        """Fleet spin-up + spin-down transitions so far."""
        self._catch_up()
        return sum(
            disk.stats.spin_operations for disk in self._disks.values()
        )


__all__ = ["DiskFleet", "DispatchCallback", "LostCallback"]
