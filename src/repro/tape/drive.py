"""Simulated tape drive: pending queue + mount state machine + seek model.

One :class:`TapeDrive` is the cold-tier counterpart of
:class:`~repro.disk.drive.SimulatedDisk`:

* requests queue while the drive mounts, winds or streams; when the
  drive is free the whole pending queue is handed to the configured
  :class:`~repro.tape.sequencer.TapeSequencer`, which plans the batch's
  service order (the LTSP decision),
* a six-state power machine (unmounted / mounting / loaded / seeking /
  reading / unmounting) driven by the shared
  :class:`~repro.sim.engine.SimulationEngine`,
* the 2CPM analogue for mounts: an idle LOADED drive arms a
  mount-breakeven timer and unmounts (rewinding to the start of the
  tape) when it fires, and
* a :class:`~repro.tape.stats.TapeStats` ledger integrating time,
  energy and wound metres.

Plan-per-busy-period semantics: the sequencer plans over the requests
pending when the drive comes free; requests arriving mid-batch wait for
the next planning round. This keeps every plan a pure function of
(head position, pending positions) — the same contract the property
tests exercise — and keeps runs deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Event, SimulationEngine
from repro.tape.profile import TapePowerProfile
from repro.tape.sequencer import TapeSequencer
from repro.tape.states import TapePowerState
from repro.tape.stats import TapeStats
from repro.types import Request

#: Completion callback signature — identical to the disk drive's, with
#: the drive's completion id in the disk-id slot so one
#: :class:`~repro.report.MetricsCollector` can log both tiers.
TapeCompletionCallback = Callable[[Request, int, float], None]

_UNMOUNTED = TapePowerState.UNMOUNTED
_MOUNTING = TapePowerState.MOUNTING
_LOADED = TapePowerState.LOADED
_SEEKING = TapePowerState.SEEKING
_READING = TapePowerState.READING
_UNMOUNTING = TapePowerState.UNMOUNTING


class TapeDrive:
    """One tape drive inside the event-driven storage simulation."""

    __slots__ = (
        "drive_id",
        "completion_id",
        "_engine",
        "profile",
        "_sequencer",
        "_on_complete",
        "_state",
        "stats",
        "_head_m",
        "_pending",
        "_plan",
        "_current",
        "_unmount",
    )

    def __init__(
        self,
        drive_id: int,
        engine: SimulationEngine,
        profile: TapePowerProfile,
        sequencer: TapeSequencer,
        on_complete: Optional[TapeCompletionCallback] = None,
        completion_id: Optional[int] = None,
    ):
        """Create a drive attached to ``engine``.

        ``completion_id`` is the id reported to ``on_complete`` (the
        tier offsets it past the disk ids so a shared collector can
        split the tiers); it defaults to ``drive_id``.
        """
        self.drive_id = drive_id
        self.completion_id = drive_id if completion_id is None else completion_id
        self._engine = engine
        self.profile = profile
        self._sequencer = sequencer
        self._on_complete = on_complete
        self._state = _UNMOUNTED
        self.stats = TapeStats(profile)
        self.stats.begin(_UNMOUNTED, engine.now)
        self._head_m = 0.0
        self._pending: List[Tuple[Request, float]] = []
        self._plan: Deque[Tuple[Request, float]] = deque()
        self._current: Optional[Tuple[Request, float]] = None
        #: The pending mount-breakeven unmount, for an arrival to cancel.
        self._unmount: Optional[Event] = None

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    @property
    def state(self) -> TapePowerState:
        return self._state

    @property
    def head_position_m(self) -> float:
        """Current head position in metres from the start of the tape."""
        return self._head_m

    @property
    def queue_length(self) -> int:
        """Pending + planned requests plus the one in service."""
        return (
            len(self._pending)
            + len(self._plan)
            + (1 if self._current is not None else 0)
        )

    def submit(self, request: Request, position_m: float) -> None:
        """Accept a request for data at ``position_m`` metres."""
        if not 0.0 <= position_m <= self.profile.tape_length:
            raise ConfigurationError(
                f"request {request.request_id} targets {position_m} m, off "
                f"the {self.profile.tape_length} m tape"
            )
        self._pending.append((request, position_m))
        state = self._state
        if state is _UNMOUNTED:
            self._start_mount()
        elif state is _LOADED:
            # Idle with a cartridge threaded: cancel the breakeven
            # unmount timer and plan a fresh batch immediately.
            if self._unmount is not None:
                self._engine.cancel(self._unmount)
            self._advance()
        # MOUNTING / SEEKING / READING / UNMOUNTING: picked up when the
        # in-flight transition or service completes.

    def finalize(self) -> None:
        """Close the stats ledger at simulation end."""
        self.stats.finalize(self._engine.now)

    # ------------------------------------------------------------------
    # state machine internals
    # ------------------------------------------------------------------

    def _transition(self, new_state: TapePowerState) -> None:
        self.stats.transition(new_state, self._engine.now)
        self._state = new_state

    def _start_mount(self) -> None:
        self._transition(_MOUNTING)
        if self.profile.mount_time > 0:
            self._engine.schedule_after(
                self.profile.mount_time, self._on_mount_complete
            )
        else:
            self._on_mount_complete()

    def _on_mount_complete(self) -> None:
        if self._state is not _MOUNTING:
            raise SimulationError(
                f"mount completion in state {self._state.value} on tape "
                f"drive {self.drive_id}"
            )
        self._head_m = 0.0  # cartridges mount rewound
        self._transition(_LOADED)
        self._advance()

    def _advance(self) -> None:
        """Serve the plan; replan from pending when it drains.

        Iterative so zero-cost steps (unit profiles, co-located data)
        cannot overflow the stack.
        """
        while True:
            if not self._plan:
                if not self._pending:
                    self._transition(_LOADED)
                    self._unmount = self._engine.schedule_after(
                        self.profile.mount_breakeven_time, self._on_unmount_timeout
                    )
                    return
                self._build_plan()
                continue
            request, position = self._plan.popleft()
            distance = abs(position - self._head_m)
            self.stats.note_seek(distance)
            self._current = (request, position)
            seek_s = self.profile.seek_time(distance)
            if seek_s > 0:
                self._transition(_SEEKING)
                self._engine.schedule_after(seek_s, self._on_seek_complete)
                return
            self._head_m = position
            self._transition(_READING)
            read_s = self.profile.read_time(request.size_bytes)
            if read_s > 0:
                self._engine.schedule_after(read_s, self._on_read_complete)
                return
            self._complete_current()
            # loop: next planned request (or replan / go idle)

    def _build_plan(self) -> None:
        """Sequence the whole pending queue into the service plan."""
        pending = self._pending
        self._pending = []
        order = self._sequencer.plan(
            self._head_m, [position for _, position in pending]
        )
        self._plan = deque(pending[index] for index in order)

    def _on_seek_complete(self) -> None:
        if self._state is not _SEEKING or self._current is None:
            raise SimulationError(
                f"seek completion in state {self._state.value} on tape "
                f"drive {self.drive_id}"
            )
        self._head_m = self._current[1]
        self._transition(_READING)
        read_s = self.profile.read_time(self._current[0].size_bytes)
        if read_s > 0:
            self._engine.schedule_after(read_s, self._on_read_complete)
            return
        self._complete_current()
        self._advance()

    def _on_read_complete(self) -> None:
        if self._state is not _READING:
            raise SimulationError(
                f"read completion in state {self._state.value} on tape "
                f"drive {self.drive_id}"
            )
        self._complete_current()
        self._advance()

    def _complete_current(self) -> None:
        current = self._current
        if current is None:
            raise SimulationError("completion with no request in flight")
        self._current = None
        request = current[0]
        self.stats.note_request_serviced()
        if self._on_complete is not None:
            self._on_complete(request, self.completion_id, self._engine.now)

    def _on_unmount_timeout(self) -> None:
        # Armed only on going LOADED with nothing queued; the one way out
        # of that (an arrival) cancels it, so it can only fire in LOADED.
        if self._state is not _LOADED:
            raise SimulationError(
                f"unmount timeout in state {self._state.value} on tape "
                f"drive {self.drive_id}"
            )
        if self._pending or self._plan:
            raise SimulationError(
                "unmount timeout fired with queued tape requests"
            )
        self._start_unmount()

    def _start_unmount(self) -> None:
        self._transition(_UNMOUNTING)
        if self.profile.unmount_time > 0:
            self._engine.schedule_after(
                self.profile.unmount_time, self._on_unmount_complete
            )
        else:
            self._on_unmount_complete()

    def _on_unmount_complete(self) -> None:
        if self._state is not _UNMOUNTING:
            raise SimulationError(
                f"unmount completion in state {self._state.value} on tape "
                f"drive {self.drive_id}"
            )
        self._head_m = 0.0  # the unmount rewinds the cartridge
        self._transition(_UNMOUNTED)
        if self._pending:
            # Requests arrived during the unmount; remount immediately.
            self._start_mount()
