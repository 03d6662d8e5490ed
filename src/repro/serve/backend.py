"""Live storage backend: the simulation stack under an injected clock.

:class:`SimBackend` wires the same pieces as
:class:`~repro.sim.storage.StorageSystem` — one
:class:`~repro.sim.engine.SimulationEngine`, a fleet of
:class:`~repro.disk.drive.SimulatedDisk` instances writing the shared
Eq. 5/6 cost columns (:class:`~repro.core.fleet.FleetCostState`), a
placement catalog — but inverts who owns time. The trace replayer
preloads every arrival and drains the engine once; here the *service
clock* owns the timeline, and the backend is advanced incrementally
(``advance_to``) as asyncio time passes, with requests injected at their
live arrival instants.

The backend implements the :class:`~repro.core.scheduler.SystemView`
protocol, so the existing online/batch schedulers run against it
unchanged — that is the whole point: the serving policies *are* the
paper's scheduling models, re-hosted behind a request API.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.fleet import FleetCostState
from repro.disk.drive import SimulatedDisk
from repro.errors import PlacementError, SchedulingError, SimulationError
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import DiskPowerProfile
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.types import DataId, DiskId, OpKind, Request

#: ``(request, disk, completion time in seconds)`` completion callback.
CompletionCallback = Callable[[Request, DiskId, float], None]

#: ``(dead disk, drained requests, death time in seconds)`` — fired when a
#: scripted disk death strikes, *after* the disk's queue has been drained,
#: so the service can redispatch the survivors to live replicas.
DiskDeathCallback = Callable[[DiskId, List[Request], float], None]


class SimBackend:
    """The simulated disk fleet behind one serving session (single-use).

    Args:
        catalog: Data placement (``L``); replica routing uses it exactly
            as the replay path does.
        config: The standard simulation config (power profile, policy,
            service model, seed). Fault plans and caches are not
            supported on the serving path.
        on_complete: Invoked once per serviced request, *during*
            :meth:`advance_to`, at the request's completion instant.
    """

    def __init__(
        self,
        catalog: PlacementCatalog,
        config: SimulationConfig,
        on_complete: CompletionCallback,
    ):
        if config.fault_plan is not None and config.fault_plan.active:
            raise SchedulingError(
                "SimBackend does not support fault injection; "
                "use StorageSystem replay for fault studies"
            )
        self._catalog = catalog
        self._locations_by_data = catalog.mapping()
        self._config = config
        self._engine = SimulationEngine()
        #: Columnar Eq. 5/6 state (``view.fleet``), scored exactly as on
        #: the replay path.
        self.fleet = FleetCostState(config.num_disks, config.profile)
        self._disks: Dict[DiskId, SimulatedDisk] = {
            disk_id: SimulatedDisk(
                disk_id=disk_id,
                engine=self._engine,
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
        self._submitted = 0
        self._finalized = False
        self._dead: Set[DiskId] = set()

    # -- SystemView protocol -------------------------------------------

    @property
    def now(self) -> float:
        """Engine time in seconds (trails the service clock between
        :meth:`advance_to` calls)."""
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
        """Replicas on disks still alive.

        Identical to :meth:`locations` until a scripted disk death
        strikes (the common case pays no filtering cost); afterwards the
        dead disks are excluded, so the schedulers steer around them and
        raise :class:`~repro.errors.ReplicaUnavailableError` when every
        replica of an item is gone.
        """
        locations = self.locations(data_id)
        if not self._dead:
            return locations
        return tuple(
            disk_id for disk_id in locations if disk_id not in self._dead
        )

    # -- scripted disk deaths ------------------------------------------

    def schedule_disk_death(
        self, disk_id: DiskId, at_s: float, on_death: DiskDeathCallback
    ) -> None:
        """Crash-stop ``disk_id`` permanently at engine time ``at_s``.

        The death fires as an ordinary engine event during
        :meth:`advance_to`, so it is deterministic relative to every
        request event. Drained requests (in service + queued on the
        dying disk) are handed to ``on_death`` for redispatch.
        """
        if disk_id not in self._disks:
            raise SchedulingError(f"cannot kill unknown disk {disk_id}")
        # Arm the epoch guard on the doomed disk: a crash mid-spin-up or
        # mid-service leaves already-scheduled timer events behind, and
        # without the guard the stale event would fire into the
        # post-crash state machine. Disks without a scripted death keep
        # the unguarded hot path.
        self._disks[disk_id].enable_fault_injection()

        def _die() -> None:
            drained = self._disks[disk_id].fail(permanent=True)
            self._dead.add(disk_id)
            on_death(disk_id, drained, self._engine.now)

        self._engine.post(at_s, _die)

    @property
    def dead_disks(self) -> Tuple[DiskId, ...]:
        """Disks lost to scripted deaths so far, ascending."""
        return tuple(sorted(self._dead))

    # -- clock injection -----------------------------------------------

    def advance_to(self, time_s: float) -> None:
        """Run the engine up to the service clock's ``time_s`` seconds.

        Completion callbacks for every event due by then fire inside
        this call — including events scheduled at exactly the current
        instant (a disk acting at its submit time). A ``time_s`` behind
        the engine clock is a no-op (the engine never rewinds).
        """
        engine = self._engine
        if time_s < engine.now:
            return
        head_s = engine.peek_time()
        if time_s > engine.now or (head_s is not None and head_s <= time_s):
            engine.run(until=time_s)

    def next_event_time(self) -> Optional[float]:
        """Seconds timestamp of the next pending disk event, or None."""
        return self._engine.peek_time()

    # -- request injection ---------------------------------------------

    def submit(self, request: Request, disk_id: DiskId) -> None:
        """Hand ``request`` to ``disk_id`` at the current engine time.

        The same invariants as the replay dispatch path: the disk must
        exist, and a read must land on a replica of its data.
        """
        if self._finalized:
            raise SimulationError("backend already finalized")
        if disk_id not in self._disks:
            raise SchedulingError(f"scheduler chose unknown disk {disk_id}")
        if request.op is OpKind.READ and disk_id not in self._locations_by_data.get(
            request.data_id, ()
        ):
            raise SchedulingError(
                f"scheduler sent request {request.request_id} to disk {disk_id}, "
                f"which does not hold data {request.data_id}"
            )
        self._disks[disk_id].submit(request)
        self._submitted += 1

    # -- accounting ----------------------------------------------------

    @property
    def requests_submitted(self) -> int:
        """Requests handed to disks so far."""
        return self._submitted

    @property
    def events_processed(self) -> int:
        """Engine events fired so far."""
        return self._engine.events_processed

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

    def finalize(self, time_s: float) -> None:
        """Close every disk ledger at ``time_s`` (idempotent)."""
        if self._finalized:
            return
        self.advance_to(time_s)
        for disk in self._disks.values():
            disk.finalize()
        self._finalized = True


__all__ = ["CompletionCallback", "DiskDeathCallback", "SimBackend"]
