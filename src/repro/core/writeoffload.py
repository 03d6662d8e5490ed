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

from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.core.scheduler import OnlineScheduler, Picker, SystemView
from repro.power.states import DiskPowerState
from repro.types import DiskId, OpKind, Request

#: Where an off-loaded write goes: a spinning disk, else a waking one.
_SPINNING = frozenset({DiskPowerState.ACTIVE, DiskPowerState.IDLE})
_WAKING = frozenset({DiskPowerState.SPIN_UP})


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

    def bind(self, view: SystemView) -> Picker:
        read_pick = self._read_scheduler.bind(view)

        def pick(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            if request.op is not OpKind.WRITE:
                return read_pick(request, locations, now)
            target = _least_loaded(view, _SPINNING)
            if target is None:
                target = _least_loaded(view, _WAKING)
            if target is None:
                self.forced_wakeups += 1
                return locations[0]
            self.offloaded[target] = self.offloaded.get(target, 0) + 1
            return target

        return pick

    @property
    def total_offloaded(self) -> int:
        return sum(self.offloaded.values())

    @property
    def name(self) -> str:
        return f"WriteOffload({self._read_scheduler.name})"


def _least_loaded(
    view: SystemView, states: FrozenSet[DiskPowerState]
) -> Optional[DiskId]:
    """The least loaded disk in one of ``states`` (ties by id), if any."""
    best: Optional[Tuple[int, DiskId]] = None
    for disk_id in view.disk_ids:
        disk = view.disk(disk_id)
        if disk.state in states:
            key = (disk.queue_length, disk_id)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]
