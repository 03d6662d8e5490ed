"""Write off-loading (Narayanan et al.), the paper's write-path assumption.

Section 2.1 scopes the scheduler to reads: "we assume write requests can
be assigned to one or more idle disks in the system using techniques such
as write off-loading, so that they do not need to be handled by the
scheduler". This module makes that assumption executable:

:class:`WriteOffloadingScheduler` wraps any online scheduler. Reads pass
through to the wrapped policy unchanged; writes are diverted to a
currently-spinning disk *anywhere in the system* (write off-loading's
defining liberty — the redirected block is journalled and reclaimed
later, so placement does not constrain the target). Preference order:

1. a spinning disk (ACTIVE or IDLE), least-loaded first;
2. a disk already spinning up (joins the wake-up);
3. the write's first live location (forced wake-up — happens only when
   every disk in the system is asleep).

The off-loader keeps a per-disk journal of diverted writes so experiments
can report the reclaim debt.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.scheduler import OnlineScheduler, SystemView
from repro.errors import ReplicaUnavailableError
from repro.power.states import DiskPowerState
from repro.types import DiskId, OpKind, Request


class WriteOffloadingScheduler(OnlineScheduler):
    """Wraps an online scheduler with write off-loading.

    Args:
        read_scheduler: Policy for read requests (e.g. the energy-aware
            Heuristic).
    """

    def __init__(self, read_scheduler: OnlineScheduler):
        self._read_scheduler = read_scheduler
        #: Diverted-write journal: disk -> outstanding off-loaded writes.
        self.offloaded: Dict[DiskId, int] = {}
        #: Writes that found no spinning disk and woke their home disk.
        self.forced_wakeups: int = 0

    def choose(self, request: Request, view: SystemView) -> DiskId:
        if request.op is not OpKind.WRITE:
            return self._read_scheduler.choose(request, view)
        target = self._pick_spinning_disk(view)
        if target is None:
            target = self._pick_waking_disk(view)
        if target is None:
            available = view.available_locations(request.data_id)
            if not available:
                raise ReplicaUnavailableError(
                    f"no live replica for data {request.data_id}"
                )
            self.forced_wakeups += 1
            target = available[0]
        else:
            self.offloaded[target] = self.offloaded.get(target, 0) + 1
        return target

    @property
    def total_offloaded(self) -> int:
        return sum(self.offloaded.values())

    def _pick_spinning_disk(self, view: SystemView) -> Optional[DiskId]:
        best = None
        best_key = None
        for disk_id in view.disk_ids:
            disk = view.disk(disk_id)
            if disk.state.is_spinning:
                key = (disk.queue_length, disk_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best = disk_id
        return best

    def _pick_waking_disk(self, view: SystemView) -> Optional[DiskId]:
        best = None
        best_key = None
        for disk_id in view.disk_ids:
            disk = view.disk(disk_id)
            if disk.state is DiskPowerState.SPIN_UP:
                key = (disk.queue_length, disk_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best = disk_id
        return best

    @property
    def name(self) -> str:
        return f"WriteOffload({self._read_scheduler.name})"
