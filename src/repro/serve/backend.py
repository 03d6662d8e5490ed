"""Live storage backend: the disk fleet under an injected clock.

:class:`SimBackend` is a :class:`~repro.sim.fleet.DiskFleet` — the same
disks, Eq. 5/6 cost columns, placement, fault path and dispatch core
the trace replay (:class:`~repro.sim.storage.StorageSystem`) runs on —
but inverts who owns time. The trace replayer streams every arrival
through one engine run; here the *service clock* owns the timeline, and
the backend is advanced incrementally (``advance_to``) as asyncio time
passes, with requests handed to the fleet's admission closure or batch
tick at their live instants.

The serving policies *are* the paper's scheduling models, re-hosted
behind a request API: they dispatch through the replay's own code, and a
request that finds no live replica is lost through the same ``on_lost``
as one whose last replica dies in flight. The tie rule is the replay's
too: ``advance_to`` resolves everything due at an instant, so a request
dispatched there sees it done.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Optional

from repro.placement.catalog import PlacementCatalog
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import DiskFleet, DispatchCallback, LostCallback
from repro.types import CompletionRecord, DiskId, Request

#: ``(request, disk_id, completion instant)``, once per serviced request.
CompletionCallback = Callable[[Request, DiskId, float], None]


class SimBackend(DiskFleet):
    """The simulated disk fleet behind one serving session (single-use).

    Args:
        catalog: Data placement (``L``); replica routing uses it exactly
            as the replay path does.
        config: The standard simulation config (power profile, policy,
            service model, seed, fault plan). Caches are not supported
            on the serving path.
        on_complete: Invoked once per serviced request, *during*
            :meth:`advance_to`, at the request's completion instant.
        on_lost: Invoked for a request with no live replica left: at its
            dispatch, or during :meth:`advance_to` when its every replica
            died under it.
        on_dispatch: Invoked after each dispatch of the admission closure
            and the batch tick.
    """

    def __init__(
        self,
        catalog: PlacementCatalog,
        config: SimulationConfig,
        on_complete: CompletionCallback,
        on_lost: LostCallback,
        on_dispatch: Optional[DispatchCallback] = None,
    ):
        def on_served(record: CompletionRecord) -> None:
            on_complete(record[3], record[4], record[0])

        def on_dispatched(request: Request, disk_id: DiskId) -> None:
            self._dispatched += 1
            if on_dispatch is not None:
                on_dispatch(request, disk_id)

        super().__init__(
            catalog, config, SimulationEngine(), on_served, on_lost, on_dispatched
        )
        self._dispatched = 0

    # -- clock injection -----------------------------------------------

    def advance_to(self, time_s: float) -> None:
        """Run the engine up to the service clock's ``time_s`` seconds.

        Completion callbacks for every event due by then fire inside
        this call, in time order across the disks — including events
        scheduled at exactly the current instant (a disk acting at its
        submit time). A ``time_s`` behind the engine clock is a no-op
        (the engine never rewinds).
        """
        engine = self._engine
        if time_s < engine.now:
            return
        due = self.fleet.due
        while True:
            # One instant at a time: the heap's next event or the next
            # disk transition, whichever is first.
            step_s = min(due)
            head_s = engine.peek_time()
            if head_s is not None and head_s < step_s:
                step_s = head_s
            if step_s > time_s:
                break
            engine.run(until=step_s)
            if step_s >= time_s:
                return
        engine.run(until=time_s)

    def next_event_time(self) -> Optional[float]:
        """Seconds timestamp of the next pending disk event, or None."""
        self._catch_up()
        next_s = min(self.fleet.due)
        head_s = self._engine.peek_time()
        if head_s is not None and head_s < next_s:
            return head_s
        return None if next_s == inf else next_s

    # -- accounting ----------------------------------------------------

    @property
    def requests_submitted(self) -> int:
        """Requests handed to disks so far: dispatches and failovers."""
        return self._dispatched + self._redispatched

    @property
    def events_processed(self) -> int:
        """Engine events fired, and disk transitions resolved, so far."""
        self._catch_up()
        return self._engine.events_processed

    def finalize(self, time_s: Optional[float] = None) -> None:
        """Close every disk ledger at ``time_s`` (idempotent); ``None``
        closes at the current engine time."""
        if self._finalized:
            return
        if time_s is not None:
            self.advance_to(time_s)
        super().finalize()

__all__ = ["CompletionCallback", "SimBackend"]
