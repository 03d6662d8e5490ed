"""Simulated disk drive: request queue + power state machine + energy ledger.

One :class:`SimulatedDisk` combines:

* a FIFO request queue serviced one request at a time (Disksim's role),
* the five-state power machine of the paper's disk model
  (standby / spin-up / idle / active / spin-down),
* a :class:`~repro.power.policy.PowerPolicy` deciding when an idle disk
  spins down (2CPM in the paper's experiments),
* a :class:`~repro.disk.stats.DiskStats` ledger integrating time and energy,
  and
* its slot in the fleet's Eq. 5/6 cost columns
  (:class:`~repro.core.fleet.FleetCostState`), which the schedulers read.

Semantics match Section 2 of the paper:

* A request arriving at a STANDBY disk triggers a spin-up; the request (and
  any that pile up behind it) waits ``Tup`` seconds — the spin-up penalty.
* A request arriving mid-SPIN_DOWN waits for the spin-down to complete and
  then the full spin-up (the transition is not abortable).
* When the queue drains, the disk goes IDLE and arms the policy's idleness
  timer; any arrival cancels it. When the timer fires the disk spins down.
"""

from __future__ import annotations

import random
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.core.fleet import FleetCostState
from repro.disk.service import ConstantServiceModel, ServiceTimeModel
from repro.disk.stats import DiskStats
from repro.errors import ReplicaUnavailableError, SimulationError
from repro.faults.health import DiskHealth
from repro.power.policy import PowerPolicy, TwoCompetitivePolicy
from repro.power.profile import DiskPowerProfile
from repro.power.states import DiskPowerState
from repro.types import DiskId, Request

if TYPE_CHECKING:  # used only in annotations; avoids a package import cycle
    from repro.sim.engine import SimulationEngine

CompletionCallback = Callable[[Request, DiskId, float], None]

# Hot-path aliases: one global load instead of an enum attribute lookup
# per state test in submit / completion (the two per-request functions).
_HEALTHY = DiskHealth.HEALTHY
_ACTIVE = DiskPowerState.ACTIVE
_IDLE = DiskPowerState.IDLE
_STANDBY = DiskPowerState.STANDBY


class SimulatedDisk:
    """One disk inside the event-driven storage simulation."""

    __slots__ = (
        "disk_id",
        "_engine",
        "profile",
        "_policy",
        "_service_model",
        "_draw_service",
        "_rng",
        "_on_complete",
        "_state",
        "stats",
        "_queue",
        "_in_service",
        "_idle_timer",
        "_service_timer",
        "_spin_up_timer",
        "_spin_down_timer",
        "_idle_timeout_s",
        "last_request_time",
        "_fleet",
        "_f_tlast",
        "_f_queue",
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
        self._policy = policy or TwoCompetitivePolicy()
        self._service_model = service_model or ConstantServiceModel(0.0)
        # Bound-method cache: the per-request draw skips two attribute
        # hops (the model never changes after construction).
        self._draw_service = self._service_model.service_time
        self._rng = rng or random.Random(disk_id)
        self._on_complete = on_complete
        self._state = initial_state
        self.stats = DiskStats(profile)
        if record_transitions:
            self.stats.enable_transition_log()
        self.stats.begin(initial_state, engine.now)
        self._queue: Deque[Request] = deque()
        self._in_service: Optional[Request] = None
        # One reusable engine timer per pending-event kind. A disk has at
        # most one of them armed at a time, and fail() cancels them all.
        # The 2CPM idle timer's cancel-on-arrival / re-arm-on-drain churn
        # then costs O(1) field writes instead of heap traffic.
        self._idle_timer = engine.timer(self._on_idle_timeout)
        self._service_timer = engine.timer(self._on_service_complete)
        self._spin_up_timer = engine.timer(self._on_spin_up_complete)
        self._spin_down_timer = engine.timer(self._on_spin_down_complete)
        # The policy's timeout depends only on (policy, profile), both
        # fixed at construction — resolve it once instead of per drain.
        self._idle_timeout_s = self._policy.idle_timeout(profile)
        #: ``Tlast`` of Eq. 5 — when this disk last *received* a request.
        self.last_request_time: Optional[float] = None
        # This disk's slot in the fleet's cost columns (repro.core.fleet),
        # written from every hook below; schedulers score through the
        # columns. A standalone disk keeps a private fleet.
        if fleet is None:
            fleet = FleetCostState(disk_id + 1, profile)
        elif not 0 <= disk_id < fleet.num_disks:
            raise SimulationError(
                f"disk id {disk_id} outside fleet of {fleet.num_disks}"
            )
        self._fleet = fleet
        self._f_tlast = fleet.tlast
        self._f_queue = fleet.queue
        fleet.encode(disk_id, initial_state, None)
        # Health changes only through fail()/repair().
        self._health = DiskHealth.HEALTHY
        #: Spin-up fault hook, set by the fault injector: called with
        #: this disk's id at each spin-up completion, it returns True
        #: when the attempt failed (and fails the disk itself when the
        #: disk is bricked).
        self.spin_up_failed: Optional[Callable[[DiskId], bool]] = None
        if initial_state is DiskPowerState.IDLE:
            self._arm_idle_timer()

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    @property
    def state(self) -> DiskPowerState:
        return self._state

    @property
    def queue_length(self) -> int:
        """``P(dk)`` of Eq. 7: queued requests plus the one in service."""
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
        self.last_request_time = now
        i = self.disk_id
        self._f_tlast[i] = now
        self._f_queue[i] += 1.0
        state = self._state
        if state is not _IDLE:
            self._queue.append(request)
            if state is _STANDBY:
                self._start_spin_up()
            # ACTIVE: queued behind the in-flight request.
            # SPIN_UP: serviced when the spin-up completes.
            # SPIN_DOWN: serviced after spin-down completes + full spin-up.
            return
        # Fused IDLE -> ACTIVE arrival (the hot path): inlines the service
        # draw, _transition(ACTIVE) and the first _service_loop iteration.
        # Byte-identical bookkeeping: the queue was empty, so the general
        # path's append/popleft pair cancels and the request goes straight
        # into service; the service draw moves ahead of the ledger update,
        # which consumes the per-disk RNG in the identical order (nothing
        # draws in between).
        self._idle_timer.cancel()
        duration = self._draw_service(request, self._rng)
        if duration < 0:
            raise SimulationError("service model returned negative duration")
        stats = self.stats
        stats.state_time[_IDLE] += now - stats._state_since
        if stats.transitions is not None:
            stats.transitions.append((now, _ACTIVE))
        stats._current_state = _ACTIVE
        stats._state_since = now
        self._state = _ACTIVE
        self._fleet.encode(i, _ACTIVE, now)
        self._in_service = request
        if duration > 0:
            self._service_timer.schedule_at(now + duration)
            return
        # Zero-duration service (analysis configs): complete inline.
        self._on_service_complete()

    def held_requests(self) -> List[Request]:
        """The request in service (if any), then the queue in order."""
        held: List[Request] = []
        if self._in_service is not None:
            held.append(self._in_service)
        held.extend(self._queue)
        return held

    def finalize(self) -> None:
        """Close the stats ledger at simulation end."""
        self.stats.finalize(self._engine.now)

    # ------------------------------------------------------------------
    # fault injection (driven by repro.faults.injector.FaultInjector)
    # ------------------------------------------------------------------

    def fail(self, permanent: bool) -> List[Request]:
        """Crash-stop this disk; returns every request drained from it.

        The in-service request (if any) and the whole queue are handed
        back for the storage layer to fail over.  The power state
        collapses straight to STANDBY — a crash-stop is not an orderly
        spin-down, so no spin operation is added to the ledger — and every
        pending timer of this disk (idle, service, spin-up, spin-down) is
        cancelled, so none of them fires into the post-crash state machine.
        The disk enters the fleet's ``down`` set, which is how the
        schedulers and the failover path see it is gone.
        """
        if self._health is DiskHealth.FAILED:
            raise SimulationError(f"disk {self.disk_id} failed twice")
        self._health = DiskHealth.FAILED if permanent else DiskHealth.DOWN
        self._fleet.down.add(self.disk_id)
        self._idle_timer.cancel()
        self._service_timer.cancel()
        self._spin_up_timer.cancel()
        self._spin_down_timer.cancel()
        drained = self.held_requests()
        self._in_service = None
        self._queue.clear()
        self._f_queue[self.disk_id] = 0.0
        if self._state is not DiskPowerState.STANDBY:
            self._transition(DiskPowerState.STANDBY)
        return drained

    def repair(self) -> None:
        """End a transient outage; the disk returns spun-down and empty,
        and leaves the fleet's ``down`` set."""
        if self._health is not DiskHealth.DOWN:
            raise SimulationError(
                f"repair of disk {self.disk_id} in health {self._health.value}"
            )
        self._health = DiskHealth.HEALTHY
        self._fleet.down.discard(self.disk_id)

    # ------------------------------------------------------------------
    # state machine internals
    # ------------------------------------------------------------------

    def _transition(self, new_state: DiskPowerState) -> None:
        self.stats.transition(new_state, self._engine.now)
        self._state = new_state
        self._fleet.encode(self.disk_id, new_state, self.last_request_time)

    def _start_spin_up(self) -> None:
        self._transition(DiskPowerState.SPIN_UP)
        if self.profile.spin_up_time > 0:
            self._spin_up_timer.schedule_after(self.profile.spin_up_time)
        else:
            self._on_spin_up_complete()

    def _on_spin_up_complete(self) -> None:
        if self._state is not DiskPowerState.SPIN_UP:
            raise SimulationError(
                f"spin-up completion in state {self._state.value} on disk "
                f"{self.disk_id}"
            )
        failed = self.spin_up_failed
        if failed is not None and failed(self.disk_id):
            if self._health is _HEALTHY:  # retry; a bricked disk is FAILED
                self._transition(DiskPowerState.STANDBY)
                self._start_spin_up()
            return
        self._transition(DiskPowerState.IDLE)
        if self._queue:
            self._start_service()
        else:
            self._arm_idle_timer()

    def _start_service(self) -> None:
        if self._in_service is not None:
            raise SimulationError(f"disk {self.disk_id} already servicing")
        self._transition(DiskPowerState.ACTIVE)
        self._service_loop()

    def _service_loop(self) -> None:
        """Start queued requests; zero-duration services complete inline.

        Iterative (not recursive) so a long queue with a zero-cost service
        model — the paper's analysis configuration — cannot overflow the
        stack.
        """
        while True:
            self._in_service = self._queue.popleft()
            duration = self._draw_service(self._in_service, self._rng)
            if duration < 0:
                raise SimulationError("service model returned negative duration")
            if duration > 0:
                self._service_timer.schedule_after(duration)
                return
            self._complete_current()
            if not self._queue:
                self._transition(DiskPowerState.IDLE)
                self._arm_idle_timer()
                return

    def _on_service_complete(self) -> None:
        # Fused completion (the hot path): inlines _complete_current, the
        # queue-drained _transition(IDLE) and the ledger update —
        # byte-identical bookkeeping to the helpers it mirrors.
        request = self._in_service
        if request is None:
            raise SimulationError("service completion with no request in flight")
        self._in_service = None
        self._f_queue[self.disk_id] -= 1.0
        stats = self.stats
        stats.requests_serviced += 1
        if self._on_complete is not None:
            self._on_complete(request, self.disk_id, self._engine._now)
        if self._queue:
            self._service_loop()
            return
        now = self._engine._now
        stats.state_time[_ACTIVE] += now - stats._state_since
        if stats.transitions is not None:
            stats.transitions.append((now, _IDLE))
        stats._current_state = _IDLE
        stats._state_since = now
        self._state = _IDLE
        self._fleet.encode(self.disk_id, _IDLE, self.last_request_time)
        timeout = self._idle_timeout_s
        if timeout is not None:
            self._idle_timer.schedule_at(now + timeout)

    def _complete_current(self) -> None:
        request = self._in_service
        if request is None:
            raise SimulationError("service completion with no request in flight")
        self._in_service = None
        self._f_queue[self.disk_id] -= 1.0
        self.stats.note_request_serviced()
        if self._on_complete is not None:
            self._on_complete(request, self.disk_id, self._engine.now)

    def _arm_idle_timer(self) -> None:
        timeout = self._idle_timeout_s
        if timeout is not None:
            self._idle_timer.schedule_after(timeout)

    def _on_idle_timeout(self) -> None:
        # Armed only on entering IDLE; both ways out of IDLE (an arrival,
        # a crash-stop) cancel it, so it can only fire in IDLE.
        if self._state is not DiskPowerState.IDLE:
            raise SimulationError(
                f"idle timeout in state {self._state.value} on disk "
                f"{self.disk_id}"
            )
        if self._queue:
            raise SimulationError("idle timeout fired with non-empty queue")
        self._start_spin_down()

    def _start_spin_down(self) -> None:
        self._transition(DiskPowerState.SPIN_DOWN)
        if self.profile.spin_down_time > 0:
            self._spin_down_timer.schedule_after(self.profile.spin_down_time)
        else:
            self._on_spin_down_complete()

    def _on_spin_down_complete(self) -> None:
        if self._state is not DiskPowerState.SPIN_DOWN:
            raise SimulationError(
                f"spin-down completion in state {self._state.value} on disk "
                f"{self.disk_id}"
            )
        self._transition(DiskPowerState.STANDBY)
        if self._queue:
            # Requests arrived during the spin-down; wake straight back up.
            self._start_spin_up()
