"""The scheduling problem ``ES(R, D, L, P)`` and schedule validation.

Mirrors Table 1 of the paper:

* ``R`` — request stream sorted by disk access time,
* ``D`` — the disks (``range(num_disks)``),
* ``L`` — the placement catalog,
* ``P`` — the 2CPM power configuration (a ``DiskPowerProfile``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import PlacementError, SchedulingError
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import DiskPowerProfile
from repro.types import Assignment, DiskId, Request


@dataclass(frozen=True)
class SchedulingProblem:
    """One instance of energy-aware scheduling.

    Attributes:
        requests: ``R`` — sorted by time ascending (validated).
        catalog: ``L`` — each request's data must be placed.
        profile: ``P`` — power configuration (supplies TB, Eup/down, PI).
        num_disks: ``|D|``; disks are ids ``0 .. num_disks-1``.
    """

    requests: Tuple[Request, ...]
    catalog: PlacementCatalog
    profile: DiskPowerProfile
    num_disks: int

    def __post_init__(self) -> None:
        if self.num_disks <= 0:
            raise SchedulingError("num_disks must be positive")
        previous_time = None
        for request in self.requests:
            if previous_time is not None and request.time < previous_time:
                raise SchedulingError("requests must be sorted by time")
            previous_time = request.time
            try:
                locations = self.catalog.locations(request.data_id)
            except PlacementError as exc:
                raise SchedulingError(str(exc))
            for disk in locations:
                if not 0 <= disk < self.num_disks:
                    raise SchedulingError(
                        f"data {request.data_id} placed on unknown disk {disk}"
                    )

    @staticmethod
    def build(
        requests: Sequence[Request],
        catalog: PlacementCatalog,
        profile: DiskPowerProfile,
        num_disks: int,
    ) -> "SchedulingProblem":
        return SchedulingProblem(
            requests=tuple(sorted(requests)),
            catalog=catalog,
            profile=profile,
            num_disks=num_disks,
        )

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def disks(self) -> range:
        return range(self.num_disks)

    def locations_of(self, request: Request) -> Tuple[DiskId, ...]:
        """The disks holding ``request``'s data (original first)."""
        return self.catalog.locations(request.data_id)

    def new_assignment(self) -> Assignment:
        """An empty assignment over this problem's request stream."""
        return Assignment(self.requests)

    def validate_schedule(self, assignment: Assignment) -> None:
        """Raise unless ``assignment`` is a feasible schedule of this problem.

        Feasible = complete (every request assigned) and every request sits
        on one of its data locations.
        """
        if not assignment.is_complete():
            missing = [r.request_id for r in assignment.unassigned()]
            raise SchedulingError(f"schedule incomplete; unassigned: {missing[:10]}")
        for request in self.requests:
            disk = assignment.disk_of(request.request_id)
            if disk not in self.locations_of(request):
                raise SchedulingError(
                    f"request {request.request_id} scheduled on disk {disk}, "
                    f"but its data {request.data_id} lives on "
                    f"{self.locations_of(request)}"
                )
