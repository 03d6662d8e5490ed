"""Runtime fault injection: planned faults become engine events.

The :class:`FaultInjector` sits between a :class:`FaultPlan` and the
simulated disks.  At construction it posts each disk's permanent death,
every scripted fault and each disk's first transient outage; the end of
a transient outage draws and posts that disk's next one
(:mod:`repro.faults.schedule` holds the per-disk draws), so each disk's
faults are drawn as the run reaches them, with no horizon and no cap.
It also owns the spin-up failure policy: every disk asks it, at each
spin-up completion, whether the attempt failed, and it keeps the
per-disk streak, the retry budget and the brick.

At run time the fault events crash-stop disks, the disks hand back
their drained requests, and the disk fleet
(:class:`repro.sim.fleet.DiskFleet`, replay and serving alike, via the
``on_disk_failed`` callback) fails them over to surviving replicas.
The injector also owns all availability accounting: per-disk downtime
intervals and the failure counters that end up in
:class:`repro.report.AvailabilityReport`.

The injector is only ever constructed for an *active* plan —
``FaultPlan.none()`` runs take a code path where no injector exists at
all, which is what keeps their output byte-identical to the pre-fault
code.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import takewhile
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.faults.health import DiskHealth
from repro.faults.plan import FaultPlan
from repro.faults.schedule import death_time_s, outages, spin_up_stream
from repro.report import AvailabilityReport
from repro.types import DiskId, Request

if TYPE_CHECKING:  # annotations only; avoids a package import cycle
    from repro.disk.drive import SimulatedDisk
    from repro.sim.engine import SimulationEngine

#: Storage-layer callback: a disk just became unavailable; the second
#: argument is every request drained from its queue (possibly empty).
DiskFailedCallback = Callable[[DiskId, List[Request]], None]


class FaultInjector:
    """Drives one run's fault plan against the simulated disks.

    Construction arms every disk; then run the engine.
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
        for fault in plan.scripted:
            if fault.disk_id not in disks:
                raise ConfigurationError(
                    f"scripted fault targets unknown disk {fault.disk_id} "
                    f"(have {len(disks)})"
                )
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
        #: Each disk's stochastic outages not yet posted, cut at its
        #: planned death.
        self._outages: Dict[DiskId, Iterator[Tuple[float, float]]] = {}
        #: Per-disk spin-up failure streams and consecutive failures.
        self._spin_up_rngs: Dict[DiskId, random.Random] = {}
        self._spin_up_streak: Dict[DiskId, int] = {}
        self._disk_failures = 0
        self._transient_outages = 0
        self._spin_up_failures = 0
        spin_up = plan.spin_up
        for disk_id in sorted(self._disks):
            self._arm(disk_id)
            if spin_up is not None and spin_up.probability > 0:
                self._spin_up_rngs[disk_id] = spin_up_stream(plan, disk_id)
                self._disks[disk_id].spin_up_failed = self._spin_up_failed

    def _arm(self, disk_id: DiskId) -> None:
        """Post the disk's death, its scripted outages and its first
        stochastic outage; none of its outages starts at or after its
        planned death."""
        plan = self._plan
        death_s = death_time_s(plan, disk_id)
        scripted = [fault for fault in plan.scripted if fault.disk_id == disk_id]
        for fault in scripted:
            if fault.permanent and (death_s is None or fault.at_s < death_s):
                death_s = fault.at_s
        if death_s is not None:
            self._engine.schedule(death_s, partial(self._fail_permanently, disk_id))
        end_s = math.inf if death_s is None else death_s
        for down_at_s, up_at_s in sorted(
            (fault.at_s, fault.at_s + fault.repair_after_s)
            for fault in scripted
            if fault.repair_after_s is not None and fault.at_s < end_s
        ):
            self._engine.schedule(down_at_s, partial(self._start_outage, disk_id))
            self._engine.schedule(up_at_s, partial(self._end_outage, disk_id))
        self._outages[disk_id] = takewhile(
            lambda outage: outage[0] < end_s, outages(plan, disk_id)
        )
        self._post_next_outage(disk_id)

    def _post_next_outage(self, disk_id: DiskId) -> None:
        outage = next(self._outages[disk_id], None)
        if outage is None:
            return
        down_at_s, up_at_s = outage
        self._engine.schedule(down_at_s, partial(self._start_outage, disk_id))
        self._engine.schedule(up_at_s, partial(self._end_drawn_outage, disk_id))

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
    # fault actions (engine events and the spin-up hook)
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
        self._spin_up_streak.pop(disk_id, None)
        down_since_s = self._down_since.pop(disk_id)
        self._downtime_s[disk_id] = self._downtime_s.get(disk_id, 0.0) + (
            self._engine.now - down_since_s
        )

    def _end_drawn_outage(self, disk_id: DiskId) -> None:
        """End a stochastic outage and post the disk's next one."""
        self._end_outage(disk_id)
        self._post_next_outage(disk_id)

    def _spin_up_failed(self, disk_id: DiskId) -> bool:
        """Disk hook at each spin-up completion: True when it failed.

        A failure extends the disk's streak of consecutive failures;
        once the streak exceeds the retry budget the disk is bricked
        (failed permanently here) instead of retried.
        """
        spin_up = self._plan.spin_up
        assert spin_up is not None  # the hook is set only with the model
        if self._spin_up_rngs[disk_id].random() >= spin_up.probability:
            self._spin_up_streak[disk_id] = 0
            return False
        self._spin_up_failures += 1
        streak = self._spin_up_streak.get(disk_id, 0) + 1
        self._spin_up_streak[disk_id] = streak
        if streak > spin_up.max_retries:
            self._fail_permanently(disk_id)
        return True
