"""Runtime fault injection: planned faults become engine events.

The :class:`FaultInjector` sits between a :class:`FaultPlan` and the
simulated disks.  At install time it materialises the plan into a
deterministic schedule (:func:`repro.faults.schedule.build_schedule`)
and posts one engine event per fault; at run time those events
crash-stop disks, the disks hand back their drained requests, and the
disk fleet (:class:`repro.sim.fleet.DiskFleet`, replay and serving
alike, via the ``on_disk_failed`` callback) fails them over to
surviving replicas.  The injector also owns all availability
accounting: per-disk downtime intervals and the failure counters that
end up in :class:`repro.report.AvailabilityReport`.

The injector is only ever constructed for an *active* plan —
``FaultPlan.none()`` runs take a code path where no injector exists at
all, which is what keeps their output byte-identical to the pre-fault
code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping

from repro.errors import SimulationError
from repro.faults.health import DiskHealth
from repro.faults.plan import FaultPlan
from repro.faults.schedule import build_schedule, spin_up_stream
from repro.report import AvailabilityReport
from repro.types import DiskId, Request

if TYPE_CHECKING:  # annotations only; avoids a package import cycle
    from repro.disk.drive import SimulatedDisk
    from repro.sim.engine import SimulationEngine

#: Storage-layer callback: a disk just became unavailable; the second
#: argument is every request drained from its queue (possibly empty).
DiskFailedCallback = Callable[[DiskId, List[Request]], None]


class _FaultEvent:
    """Engine callback firing one scheduled fault action on one disk."""

    __slots__ = ("_action", "_disk_id")

    def __init__(self, action: Callable[[DiskId], None], disk_id: DiskId):
        self._action = action
        self._disk_id = disk_id

    def __call__(self) -> None:
        self._action(self._disk_id)

    def __repr__(self) -> str:
        name = getattr(self._action, "__name__", repr(self._action))
        return f"<fault {name.lstrip('_')} disk={self._disk_id}>"


class FaultInjector:
    """Drives one run's fault plan against the simulated disks.

    Lifecycle: construct (arms each disk's spin-up fault hook), then
    :meth:`install` once the run horizon is known, then run the engine;
    :meth:`availability_report` reads the accounting at any instant.
    """

    def __init__(
        self,
        plan: FaultPlan,
        engine: "SimulationEngine",
        disks: Mapping[DiskId, "SimulatedDisk"],
        on_disk_failed: DiskFailedCallback,
    ) -> None:
        if not plan.active:
            raise SimulationError("FaultInjector created with an inactive plan")
        self._plan = plan
        self._engine = engine
        self._disks: Dict[DiskId, "SimulatedDisk"] = dict(disks)
        self._on_disk_failed = on_disk_failed
        #: Open unavailability intervals: disk -> instant it went down.
        self._down_since: Dict[DiskId, float] = {}
        #: Closed unavailability totals per disk, in seconds.
        self._downtime_s: Dict[DiskId, float] = {}
        #: Nesting depth of overlapping scripted/stochastic outages.
        self._outage_depth: Dict[DiskId, int] = {}
        self._disk_failures = 0
        self._transient_outages = 0
        self._spin_up_failures = 0
        self._installed = False
        for disk_id, disk in self._disks.items():
            disk.enable_fault_injection(
                spin_up=plan.spin_up,
                spin_up_rng=(
                    spin_up_stream(plan, disk_id)
                    if plan.spin_up is not None
                    else None
                ),
                on_spin_up_failure=self._note_spin_up_failure,
                on_fault_death=self._on_spin_up_death,
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def install(self, horizon_s: float) -> None:
        """Post every planned fault within ``[0, horizon_s)`` as events."""
        if self._installed:
            raise SimulationError("fault schedule installed twice")
        self._installed = True
        for sched in build_schedule(self._plan, len(self._disks), horizon_s):
            if sched.permanent_at_s is not None:
                self._engine.schedule(
                    sched.permanent_at_s,
                    _FaultEvent(self._fail_permanently, sched.disk_id),
                )
            for down_at_s, up_at_s in sched.outages:
                self._engine.schedule(
                    down_at_s, _FaultEvent(self._start_outage, sched.disk_id)
                )
                self._engine.schedule(
                    up_at_s, _FaultEvent(self._end_outage, sched.disk_id)
                )

    def availability_report(
        self,
        end_s: float,
        requests_lost: int,
        requests_redispatched: int,
        failover_retries: int,
    ) -> AvailabilityReport:
        """Bundle the accounting through ``end_s`` into an
        :class:`AvailabilityReport`; a disk still down counts as down
        until ``end_s``."""
        downtime_s = dict(self._downtime_s)
        for disk_id, down_since_s in self._down_since.items():
            downtime_s[disk_id] = downtime_s.get(disk_id, 0.0) + max(
                0.0, end_s - down_since_s
            )
        return AvailabilityReport(
            requests_lost=requests_lost,
            requests_redispatched=requests_redispatched,
            failover_retries=failover_retries,
            spin_up_failures=self._spin_up_failures,
            disk_failures=self._disk_failures,
            transient_outages=self._transient_outages,
            downtime_s={
                disk_id: seconds
                for disk_id, seconds in sorted(downtime_s.items())
                if seconds > 0
            },
            disk_seconds=len(self._disks) * end_s,
        )

    # ------------------------------------------------------------------
    # fault actions (engine events and drive callbacks)
    # ------------------------------------------------------------------

    def _fail_permanently(self, disk_id: DiskId) -> None:
        disk = self._disks[disk_id]
        if disk.health is DiskHealth.FAILED:
            return  # e.g. spin-up retries already bricked it
        was_down = disk.health is DiskHealth.DOWN
        drained = disk.fail(permanent=True)
        self._disk_failures += 1
        if not was_down:
            # A DOWN disk keeps its open interval; it simply never closes.
            self._down_since[disk_id] = self._engine.now
        self._on_disk_failed(disk_id, drained)

    def _start_outage(self, disk_id: DiskId) -> None:
        disk = self._disks[disk_id]
        if disk.health is DiskHealth.FAILED:
            return
        depth = self._outage_depth.get(disk_id, 0)
        self._outage_depth[disk_id] = depth + 1
        if depth > 0:
            return  # overlapping outages collapse into one interval
        drained = disk.fail(permanent=False)
        self._transient_outages += 1
        self._down_since[disk_id] = self._engine.now
        self._on_disk_failed(disk_id, drained)

    def _end_outage(self, disk_id: DiskId) -> None:
        disk = self._disks[disk_id]
        depth = self._outage_depth.get(disk_id, 0)
        if depth == 0:
            return  # outage start was swallowed by a permanent death
        self._outage_depth[disk_id] = depth - 1
        if depth > 1 or disk.health is not DiskHealth.DOWN:
            return  # still nested, or permanently failed meanwhile
        disk.repair()
        down_since_s = self._down_since.pop(disk_id)
        self._downtime_s[disk_id] = self._downtime_s.get(disk_id, 0.0) + (
            self._engine.now - down_since_s
        )

    def _note_spin_up_failure(self, disk_id: DiskId) -> None:
        del disk_id  # counted fleet-wide
        self._spin_up_failures += 1

    def _on_spin_up_death(self, disk_id: DiskId, drained: List[Request]) -> None:
        """Drive callback: consecutive spin-up failures bricked the disk."""
        self._disk_failures += 1
        self._down_since.setdefault(disk_id, self._engine.now)
        self._on_disk_failed(disk_id, drained)
