"""Scheduler interfaces.

Three families, matching the paper's three models (Section 2.2):

* :class:`OnlineScheduler` — decides per request at its arrival instant.
* :class:`BatchScheduler` — decides for a whole queued batch at each
  scheduling interval.
* :class:`OfflineScheduler` — sees the entire request stream up front and
  returns a complete :class:`~repro.types.Assignment`.

Online and batch schedulers observe the live system through a
:class:`SystemView` (disk power states, queue lengths, ``Tlast``, and
the same state as Eq. 5/6 cost columns in ``view.fleet``); the
offline scheduler works directly on a
:class:`~repro.core.problem.SchedulingProblem`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Protocol, Sequence, Tuple

from repro.core.cost import DiskView
from repro.core.fleet import FleetCostState
from repro.core.problem import SchedulingProblem
from repro.errors import ConfigurationError
from repro.power.profile import DiskPowerProfile
from repro.types import Assignment, DataId, DiskId, Request, RequestId


class SystemView(Protocol):
    """Live system state exposed to online/batch schedulers."""

    @property
    def now(self) -> float: ...

    @property
    def profile(self) -> DiskPowerProfile: ...

    @property
    def disk_ids(self) -> Sequence[DiskId]: ...

    def disk(self, disk_id: DiskId) -> DiskView: ...

    @property
    def fleet(self) -> FleetCostState:
        """Every disk's Eq. 5/6 terms as columns, kept current by the
        disks themselves; the cost-based schedulers score through it."""
        ...

    def locations(self, data_id: DataId) -> Tuple[DiskId, ...]: ...

    def available_locations(self, data_id: DataId) -> Tuple[DiskId, ...]:
        """The subset of :meth:`locations` currently able to service
        requests; equal to it when no fault injection is active."""
        ...


class Scheduler(ABC):
    """Common base: every scheduler has a report-friendly name."""

    @property
    def name(self) -> str:
        return type(self).__name__


class OnlineScheduler(Scheduler):
    """Assigns each request to a disk the moment it arrives."""

    @abstractmethod
    def choose(self, request: Request, view: SystemView) -> DiskId:
        """Pick one of the request's data locations."""


class BatchScheduler(Scheduler):
    """Assigns all requests queued during a scheduling interval at once.

    ``interval`` is the scheduling-interval length in simulated seconds.
    """

    def __init__(self, interval: float):
        if interval <= 0:
            raise ConfigurationError(f"batch interval must be positive, got {interval}")
        self.interval = interval

    @abstractmethod
    def choose_batch(
        self, requests: Sequence[Request], view: SystemView
    ) -> Dict[RequestId, DiskId]:
        """Pick a location for every request of the batch."""


class OfflineScheduler(Scheduler):
    """Schedules a whole problem with a-priori arrival knowledge."""

    @abstractmethod
    def schedule(self, problem: SchedulingProblem) -> Assignment:
        """Return a complete, feasible assignment."""
