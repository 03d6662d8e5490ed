"""Simulated disk drive: FIFO queue + power state machine + energy ledger.

One :class:`SimulatedDisk` combines a FIFO request queue serviced one
request at a time (Disksim's role), the five-state power machine of the
paper's disk model, a :class:`~repro.power.policy.PowerPolicy` (2CPM in
the paper), a :class:`~repro.disk.stats.DiskStats` ledger and its slot in
the fleet's Eq. 5/6 cost columns (:class:`~repro.core.fleet.FleetCostState`).
As in Section 2 of the paper, a request that finds the disk in STANDBY
waits ``Tup`` for the spin-up it triggers, one that finds it spinning
down waits for the spin-down to end and then the full spin-up, and a
disk whose queue drains idles until the policy's timeout.

The disk is lazy: under this model its timeline follows from its own
arrivals, so its completions, idle timeout and spin-down never go
through the engine. It holds the request in service with its completion
instant, and a FIFO of waiting requests whose service times are drawn
at their service start, from the disk's own RNG.
:meth:`~SimulatedDisk.advance` walks the disk up to an instant, making
each transition and reporting each completion; ``fleet.due`` holds the
instant of the next one, so a reader spends one float compare on a disk
that is already current. Every power-state change, walked or not, goes
through :meth:`~SimulatedDisk._transition`, the one place that writes
the disk's ledger and its Eq. 5/6 cost terms. Every reader of the
disk's state walks it first (:meth:`~SimulatedDisk.catch_up`), up to
and including the current instant: a request sees every transition due
at its instant already made. The one disk event left on the engine is
the spin-up completion: the spin-up fault hook may brick the disk then,
and its queue must fail over at that instant.
"""

from __future__ import annotations

import random
from collections import deque
from math import inf
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.core.fleet import FleetCostState
from repro.disk.service import ConstantServiceModel, ServiceTimeModel
from repro.disk.stats import DiskStats
from repro.errors import ReplicaUnavailableError, SimulationError
from repro.faults.health import DiskHealth
from repro.power.policy import PowerPolicy, TwoCompetitivePolicy
from repro.power.profile import DiskPowerProfile
from repro.power.states import DiskPowerState
from repro.types import CompletionRecord, DiskId, Request

if TYPE_CHECKING:  # used only in annotations; avoids a package import cycle
    from repro.sim.engine import Event, SimulationEngine

#: Called once per serviced request with its record.
CompletionCallback = Callable[[CompletionRecord], None]

# Hot-path aliases: one global load instead of an enum attribute lookup.
_HEALTHY = DiskHealth.HEALTHY
_ACTIVE = DiskPowerState.ACTIVE
_IDLE = DiskPowerState.IDLE
_STANDBY = DiskPowerState.STANDBY
_SPIN_UP = DiskPowerState.SPIN_UP
_SPIN_DOWN = DiskPowerState.SPIN_DOWN


class SimulatedDisk:
    """One disk of the storage simulation, walked forward on demand."""

    __slots__ = (
        "disk_id",
        "_engine",
        "profile",
        "_draw_service",
        "_rng",
        "_stamps",
        "_on_complete",
        "_state",
        "stats",
        "_queue",
        "_in_service",
        "_started",
        "_stamp",
        "_due",
        "_spin_up",
        "_idle_timeout_s",
        "last_request_time",
        "_fleet",
        "_f_tlast",
        "_f_queue",
        "_f_due",
        "_f_pi",
        "_f_const",
        "_terms",
        "_health",
        "spin_up_failed",
    )

    def __init__(
        self,
        disk_id: DiskId,
        engine: SimulationEngine,
        profile: DiskPowerProfile,
        policy: Optional[PowerPolicy] = None,
        service_model: Optional[ServiceTimeModel] = None,
        rng: Optional[random.Random] = None,
        on_complete: Optional[CompletionCallback] = None,
        initial_state: DiskPowerState = DiskPowerState.STANDBY,
        record_transitions: bool = False,
        fleet: Optional[FleetCostState] = None,
    ):
        if initial_state not in (DiskPowerState.STANDBY, DiskPowerState.IDLE):
            raise SimulationError(
                "disks must start in STANDBY or IDLE, got " + initial_state.value
            )
        self.disk_id = disk_id
        self._engine = engine
        self.profile = profile
        self._draw_service = (service_model or ConstantServiceModel(0.0)).service_time
        self._rng = rng or random.Random(disk_id)
        # Start stamps share the engine's event sequence, so they order
        # service starts across every disk on the engine.
        self._stamps = engine._sequence
        self._on_complete = on_complete
        self._state = initial_state
        self.stats = DiskStats(profile)
        if record_transitions:
            self.stats.enable_transition_log()
        self.stats.begin(initial_state, engine.now)
        self._queue: Deque[Request] = deque()
        #: The request in service, its start instant and start stamp.
        self._in_service: Optional[Request] = None
        self._started = 0.0
        self._stamp = 0
        #: The pending spin-up end on the engine, for a crash to cancel.
        self._spin_up: Optional[Event] = None
        policy = policy or TwoCompetitivePolicy()
        self._idle_timeout_s = policy.idle_timeout(profile)
        #: ``Tlast`` of Eq. 5 — when this disk last *received* a request.
        self.last_request_time: Optional[float] = None
        # This disk's slot in the fleet's cost columns. A standalone disk
        # keeps a private fleet and has the engine walk it at the end of
        # each run; the owner of a shared fleet walks all of its disks.
        if fleet is None:
            fleet = FleetCostState(disk_id + 1, profile)
            engine.add_lazy(self.advance)
        elif not 0 <= disk_id < fleet.num_disks:
            raise SimulationError(
                f"disk id {disk_id} outside fleet of {fleet.num_disks}"
            )
        self._fleet = fleet
        self._f_tlast = fleet.tlast
        self._f_queue = fleet.queue
        self._f_due = fleet.due
        self._f_pi = fleet.pi
        self._f_const = fleet.const
        self._terms = fleet.terms
        fleet.encode(disk_id, initial_state, None)
        # Health changes only through fail()/repair().
        self._health = DiskHealth.HEALTHY
        #: Spin-up fault hook, set by the fault injector: called with
        #: this disk's id at each spin-up completion, it returns True
        #: when the attempt failed (and fails the disk itself when the
        #: disk is bricked).
        self.spin_up_failed: Optional[Callable[[DiskId], bool]] = None
        self._due = inf
        if initial_state is DiskPowerState.IDLE:
            self._idle_from(engine.now)
        self._f_due[disk_id] = self._due

    @property
    def state(self) -> DiskPowerState:
        self.catch_up()
        return self._state

    @property
    def queue_length(self) -> int:
        """``P(dk)`` of Eq. 7: queued requests plus the one in service."""
        self.catch_up()
        return len(self._queue) + (1 if self._in_service is not None else 0)

    @property
    def health(self) -> DiskHealth:
        """Availability of this disk, orthogonal to its power state."""
        return self._health

    @property
    def is_available(self) -> bool:
        """True when this disk can accept and service requests."""
        return self._health.is_available

    def submit(self, request: Request) -> None:
        """Accept a request at the current simulated time.

        Raises:
            ReplicaUnavailableError: when the disk is down or failed; the
                storage layer pre-filters such disks, so this is a
                defensive guard against direct misuse.
        """
        if self._health is not _HEALTHY:
            raise ReplicaUnavailableError(
                f"disk {self.disk_id} is {self._health.value}; cannot accept "
                f"request {request.request_id}"
            )
        now = self._engine._now
        self.advance(now)
        self.last_request_time = now
        i = self.disk_id
        self._f_tlast[i] = now
        self._f_queue[i] += 1.0
        queue = self._queue
        queue.append(request)
        state = self._state
        if state is _IDLE:
            self._serve(now)
        elif state is _STANDBY:
            self._start_spin_up(now)
        elif state is _SPIN_DOWN and len(queue) == 1 and self.profile.spin_up_time > 0:
            # The first request to wait out a spin-down arms the spin-up
            # after it; the walk moves only the ledger.
            self._spin_up = self._engine.schedule(
                self._due + self.profile.spin_up_time, self._on_spin_up_complete
            )
        # ACTIVE / SPIN_UP: served after the requests ahead of it.

    def held_requests(self) -> List[Request]:
        """The request in service (if any), then the queue in order."""
        self.catch_up()
        held = [] if self._in_service is None else [self._in_service]
        held.extend(self._queue)
        return held

    def finalize(self) -> None:
        """Close the stats ledger at simulation end."""
        self.catch_up()
        self.stats.finalize(self._engine.now)

    def catch_up(self) -> None:
        """Walk this disk up to the engine's current instant."""
        self.advance(self._engine._now)

    def advance(self, until: float) -> None:
        """Resolve every completion, idle timeout and spin-down end due at
        or before ``until`` seconds, in order; each counts as one engine
        event (a zero-time service or spin-down, done inline, does not)."""
        due = self._due
        if due > until:
            return
        engine = self._engine
        i = self.disk_id
        while due <= until:
            state = self._state
            engine._events_processed += 1
            if state is _ACTIVE:  # the request in service completes
                request = self._in_service
                self._in_service = None
                self._f_queue[i] -= 1.0
                self.stats.requests_serviced += 1
                if self._on_complete is not None:
                    self._on_complete((due, self._started, self._stamp, request, i))
                if self._queue:
                    self._serve(due)
                else:
                    self._transition(_IDLE, due)
                    timeout = self._idle_timeout_s
                    self._due = inf if timeout is None else due + timeout
            elif state is _IDLE:  # the policy's idle timeout
                self._transition(_SPIN_DOWN, due)
                self._due = due + self.profile.spin_down_time
                if self.profile.spin_down_time <= 0:
                    self._end_spin_down(due)  # inline: not an event
            else:
                self._end_spin_down(due)
            due = self._due
        self._f_due[i] = due

    def fail(self, permanent: bool) -> List[Request]:
        """Crash-stop this disk; returns every request drained from it.

        The in-service request (if any) and the whole queue, whose
        service times are undrawn, are handed back for the storage layer
        to fail over. The power state collapses straight to STANDBY — a
        crash-stop is not an orderly spin-down, so no spin operation is
        added to the ledger — nothing stays due, and a pending spin-up is
        cancelled. The disk enters the fleet's ``down`` set, which is how
        the schedulers and the failover path see it is gone.
        """
        if self._health is DiskHealth.FAILED:
            raise SimulationError(f"disk {self.disk_id} failed twice")
        drained = self.held_requests()
        self._health = DiskHealth.FAILED if permanent else DiskHealth.DOWN
        self._fleet.down.add(self.disk_id)
        if self._spin_up is not None:
            self._engine.cancel(self._spin_up)
        self._in_service = None
        self._queue.clear()
        self._f_queue[self.disk_id] = 0.0
        self._due = self._f_due[self.disk_id] = inf
        if self._state is not _STANDBY:
            self._transition(_STANDBY, self._engine.now)
        return drained

    def repair(self) -> None:
        """End a transient outage; the disk returns spun-down and empty,
        and leaves the fleet's ``down`` set."""
        if self._health is not DiskHealth.DOWN:
            raise SimulationError(
                f"repair of disk {self.disk_id} in health {self._health.value}"
            )
        self.catch_up()
        self._health = DiskHealth.HEALTHY
        self._fleet.down.discard(self.disk_id)

    # -- state machine internals -------------------------------------

    def _transition(self, new_state: DiskPowerState, now: float) -> None:
        """Enter ``new_state`` at ``now``: the disk's one writer of its
        power state, ledger (StateLedger.transition, inlined without its
        closed and time-order checks) and columns (FleetCostState.terms;
        a disk is IDLE only after its first request, so its Tlast is
        known)."""
        stats = self.stats
        stats.state_time[self._state] += now - stats._state_since
        if stats.transitions is not None:
            stats.transitions.append((now, new_state))
        if new_state is _SPIN_UP:
            stats.ups += 1
        elif new_state is _SPIN_DOWN:
            stats.downs += 1
        stats._current_state = new_state
        stats._state_since = now
        self._state = new_state
        i = self.disk_id
        self._f_pi[i], self._f_const[i] = self._terms[new_state]

    def _serve(self, now: float) -> None:
        """Start the queue's head at ``now``; a disk not yet serving
        becomes ACTIVE. A zero-time service (the paper's analysis
        configuration) completes inline and the next starts, iteratively;
        a drained queue leaves the disk IDLE."""
        if self._state is not _ACTIVE:
            self._transition(_ACTIVE, now)
        queue = self._queue
        while queue:
            request = queue.popleft()
            duration = self._draw_service(request, self._rng)
            if duration < 0:
                raise SimulationError("service model returned negative duration")
            stamp = next(self._stamps)
            if duration > 0:
                self._in_service = request
                self._started = now
                self._stamp = stamp
                self._due = self._f_due[self.disk_id] = now + duration
                return
            self._f_queue[self.disk_id] -= 1.0
            self.stats.requests_serviced += 1
            if self._on_complete is not None:
                self._on_complete((now, now, stamp, request, self.disk_id))
        self._transition(_IDLE, now)
        self._idle_from(now)

    def _idle_from(self, now: float) -> None:
        """Arm the policy's idle timeout for an IDLE disk."""
        timeout = self._idle_timeout_s
        self._due = self._f_due[self.disk_id] = inf if timeout is None else now + timeout

    def _start_spin_up(self, now: float, armed: bool = False) -> None:
        """Enter SPIN_UP; its end is an engine event, armed here unless
        a request waiting out a spin-down armed it already."""
        self._transition(_SPIN_UP, now)
        if self.profile.spin_up_time <= 0:
            self._finish_spin_up(now)
        elif not armed:
            self._spin_up = self._engine.schedule_after(
                self.profile.spin_up_time, self._on_spin_up_complete
            )

    def _on_spin_up_complete(self) -> None:
        self.catch_up()  # a spin-down the spin-up waited for
        if self._state is not _SPIN_UP:
            raise SimulationError(
                f"spin-up completion in state {self._state.value} on disk "
                f"{self.disk_id}"
            )
        self._finish_spin_up(self._engine.now)

    def _finish_spin_up(self, now: float) -> None:
        failed = self.spin_up_failed
        if failed is not None and failed(self.disk_id):
            if self._health is _HEALTHY:  # retry; a bricked disk is FAILED
                self._transition(_STANDBY, now)
                self._start_spin_up(now)
            return
        self._transition(_IDLE, now)
        if self._queue:
            self._serve(now)
        else:
            self._idle_from(now)

    def _end_spin_down(self, now: float) -> None:
        self._due = inf
        self._transition(_STANDBY, now)
        if self._queue:  # requests that waited out the spin-down
            self._start_spin_up(now, armed=True)
