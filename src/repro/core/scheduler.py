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
from typing import Any, Callable, Dict, Protocol, Sequence, Tuple

from repro.core.cost import DiskView
from repro.core.fleet import FleetCostState
from repro.core.problem import SchedulingProblem
from repro.errors import ConfigurationError, ReplicaUnavailableError
from repro.power.profile import DiskPowerProfile
from repro.types import Assignment, DataId, DiskId, Request, RequestId

#: An online scheduler's decision, bound once per run:
#: ``pick(request, live_locations, now)`` returns one of the request's
#: live locations (or, for an off-loaded write, any disk).
Picker = Callable[[Request, Sequence[DiskId], float], DiskId]


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
    """Assigns each request to a disk the moment it arrives.

    :meth:`bind` returns the scheduler's picker for one run, which the
    owner calls on each arrival with the request's (non-empty) live
    replicas. A subclass defines ``bind``, or only ``choose``: the base
    ``bind`` then calls that ``choose`` per arrival.
    """

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "choose" in vars(cls) and "bind" not in vars(cls):
            # Its own choose decides, even below a scheduler that binds.
            cls.bind = OnlineScheduler.bind  # type: ignore[method-assign]
        if cls.bind is OnlineScheduler.bind and cls.choose is OnlineScheduler.choose:
            raise TypeError(f"{cls.__name__} defines neither bind() nor choose()")

    def bind(self, view: SystemView) -> Picker:
        """This scheduler's picker over ``view``, for one run."""
        choose = self.choose
        return lambda request, locations, now: choose(request, view)

    def choose(self, request: Request, view: SystemView) -> DiskId:
        """One of the request's live locations, picked now.

        Raises:
            ReplicaUnavailableError: when no replica of its data is live.
        """
        locations = view.available_locations(request.data_id)
        if not locations:
            raise ReplicaUnavailableError(f"no live replica for data {request.data_id}")
        return self.bind(view)(request, locations, view.now)


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
