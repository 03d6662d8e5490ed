"""The disk fleet: disks, cost columns and placement behind one view.

:class:`DiskFleet` is what every owner of simulated disks shares: one
:class:`~repro.disk.drive.SimulatedDisk` per disk on a common engine,
the Eq. 5/6 columns they keep current (``view.fleet``), the data
placement, the :class:`~repro.core.scheduler.SystemView` protocol and
the checked dispatch. The trace replay
(:class:`~repro.sim.storage.StorageSystem`) and the serving backend
(:class:`~repro.serve.backend.SimBackend`) subclass it and differ only
in who drives the clock.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.core.fleet import FleetCostState
from repro.disk.drive import CompletionCallback, SimulatedDisk
from repro.disk.stats import DiskStats
from repro.errors import PlacementError, SchedulingError
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import DiskPowerProfile
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.types import DataId, DiskId, OpKind, Request


class DiskFleet:
    """The simulated disks of one run and the scheduler's view of them.

    Args:
        catalog: Data placement (``L``).
        config: Power profile, policy, service model, seed and fleet size.
        engine: The virtual clock every disk schedules on.
        on_complete: Invoked once per serviced request at its completion
            instant.
    """

    def __init__(
        self,
        catalog: PlacementCatalog,
        config: SimulationConfig,
        engine: SimulationEngine,
        on_complete: CompletionCallback,
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
        #: Set by an owner once any disk is armed for fault injection;
        #: until then every disk is available and no filtering is paid.
        self._faults_armed = False
        self._finalized = False

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

        Identical to :meth:`locations` until some disk is armed for fault
        injection — the precomputed placement tuple is returned as-is,
        nothing is rebuilt. Afterwards down and failed disks are filtered
        out, so the schedulers steer around them and raise
        :class:`~repro.errors.ReplicaUnavailableError` when every replica
        of an item is gone.
        """
        try:
            locations = self._locations_by_data[data_id]
        except KeyError:
            raise PlacementError(f"unknown data id {data_id}")
        if not self._faults_armed:
            return locations
        disks = self._disks
        return tuple(  # reprolint: disable=RPL007 -- fault path only
            disk_id for disk_id in locations if disks[disk_id].is_available
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

    # -- accounting ----------------------------------------------------

    def finalize(self) -> None:
        """Close every disk's ledger at the engine's current time
        (idempotent)."""
        if self._finalized:
            return
        for disk in self._disks.values():
            disk.finalize()
        self._finalized = True

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


__all__ = ["DiskFleet"]
