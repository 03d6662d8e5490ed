"""The disk fleet: disks, cost columns, placement and faults behind one view.

:class:`DiskFleet` is what every owner of simulated disks shares: one
:class:`~repro.disk.drive.SimulatedDisk` per disk on a common engine,
the Eq. 5/6 columns they keep current (``view.fleet``), the data
placement, the :class:`~repro.core.scheduler.SystemView` protocol, the
checked dispatch and the one fault path (the
:class:`~repro.faults.injector.FaultInjector` of ``config.fault_plan``,
which arms every disk's faults at construction and draws each as the
run reaches it; failover to the least loaded live replica, backoff,
typed loss). The trace replay
(:class:`~repro.sim.storage.StorageSystem`, the tiered system included)
and the serving backend
(:class:`~repro.serve.backend.SimBackend`) subclass it and differ only
in who drives the clock and how a backed-off request is re-admitted.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.fleet import FleetCostState
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

#: ``(request, now_s)``: the request can no longer be served — every
#: replica is permanently dead, or its backoff budget ran out.
LostCallback = Callable[[Request, float], None]

#: First failover-retry delay in seconds; doubles on every further attempt.
RETRY_BASE_S = 0.5
#: Backoff retries granted to a request whose replicas are all transiently
#: down before it is declared lost.
MAX_FAILOVER_ATTEMPTS = 8


class DiskFleet:
    """The simulated disks of one run and the scheduler's view of them.

    Args:
        catalog: Data placement (``L``).
        config: Power profile, policy, service model, seed and fleet size.
        engine: The virtual clock every disk schedules on.
        on_complete: Invoked once per serviced request at its completion
            instant.
        on_lost: Invoked once per request the fleet gives up on (only
            ever under an active fault plan).
    """

    def __init__(
        self,
        catalog: PlacementCatalog,
        config: SimulationConfig,
        engine: SimulationEngine,
        on_complete: CompletionCallback,
        on_lost: LostCallback,
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
                service_model=config.make_service_model(),
                rng=random.Random(config.seed * 1_000_003 + disk_id),
                on_complete=on_complete,
                initial_state=config.initial_state,
                record_transitions=config.record_transitions,
                fleet=self.fleet,
            )
            for disk_id in range(config.num_disks)
        }
        self._finalized = False
        self._on_lost = on_lost
        self._lost = 0
        self._redispatched = 0
        self._failover_retries = 0
        # Deferred requests not yet dispatched: id -> (attempts, request).
        self._retry_attempts: Dict[RequestId, Tuple[int, Request]] = {}
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

    def _dispatch(self, request: Request, disk_id: DiskId) -> None:
        """Submit a request, closing its backoff record if it had one."""
        self.submit(request, disk_id)
        if self._retry_attempts:
            self._retry_attempts.pop(request.request_id, None)

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
        # min keeps the first of equal keys: sorting first breaks ties
        # by disk id.
        best = min(sorted(candidates), key=self.fleet.queue.__getitem__)
        self._redispatched += 1
        self._dispatch(request, best)

    def _servable_or_deferred(self, request: Request) -> bool:
        """True when some replica is live; otherwise defers the request."""
        if self.available_locations(request.data_id):
            return True
        self._defer_or_lose(request)
        return False

    def _defer_or_lose(self, request: Request) -> None:
        """Back off and re-admit, or record the request as lost.

        Lost means: every replica is permanently dead, or the retry
        budget is exhausted while all replicas stay unavailable.
        """
        locations = self.locations(request.data_id)
        backoff = self._retry_attempts.get(request.request_id)
        attempts = backoff[0] if backoff is not None else 0
        all_dead = all(
            self._disks[d].health is DiskHealth.FAILED for d in locations
        )
        if all_dead or attempts >= MAX_FAILOVER_ATTEMPTS:
            self._retry_attempts.pop(request.request_id, None)
            self._lose(request)
            return
        self._retry_attempts[request.request_id] = (attempts + 1, request)
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
        for _, request in self._retry_attempts.values():
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
        return {disk_id: disk.stats for disk_id, disk in self._disks.items()}

    @property
    def energy(self) -> float:
        """Fleet joules over the closed state intervals."""
        return sum(disk.stats.energy for disk in self._disks.values())

    def energy_at(self, time_s: float) -> float:
        """Fleet joules through ``time_s`` (open state intervals included)."""
        return sum(
            disk.stats.energy_at(time_s) for disk in self._disks.values()
        )

    @property
    def spin_operations(self) -> int:
        """Fleet spin-up + spin-down transitions so far."""
        return sum(
            disk.stats.spin_operations for disk in self._disks.values()
        )


__all__ = ["DiskFleet", "LostCallback"]
