"""Deterministic discrete-event simulation engine (OMNeT++ substitute).

The engine is a binary-heap event queue with a monotonic clock. Events are
plain callables; insertion order breaks timestamp ties so runs are fully
deterministic, and a trace replay's arrivals stream beside the heap, each
firing before a heap event at its instant. Disks keep only their spin-up
completions here: a :class:`~repro.disk.drive.SimulatedDisk` walks its
own completions, idle timeout and spin-down when it is read (up to
:meth:`SimulationEngine.walk_limit`, and to a run's horizon through
:meth:`SimulationEngine.add_lazy`), counting each in ``events_processed``.

:meth:`SimulationEngine.schedule` posts a fire-and-forget event. The one
cancellable event is a :class:`ReusableTimer`; its cancel/re-arm churn
now serves only the tape unmount timer (a disk's spin-up uses one so a
crash can cancel it). It keeps at most one heap entry alive: cancelling
and re-arming to a later deadline are plain field writes, and the entry
migrates to the current deadline when it surfaces at the head of the
heap. A cancelled timer's entry stays in the heap, dormant, until it
surfaces or the timer is re-armed. Live events fire in ``(time,
insertion sequence)`` order; a dormant entry is skipped, never fired.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf, nextafter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

EventCallback = Callable[[], None]

#: Bulk-arrival stream accepted by :meth:`SimulationEngine.run`:
#: ``(times, payloads, callback)`` with ``times`` sorted ascending and
#: ``callback(payload)`` fired once per entry at its timestamp.
ArrivalStream = Tuple[Sequence[float], Sequence[Any], Callable[[Any], None]]

#: One heap entry: ``(time, sequence, timer, payload)``. For scheduled
#: events the timer slot is ``None`` and the payload is the callback; for
#: timer entries the payload is the generation the entry was pushed
#: under. The unique sequence number guarantees tuple comparison never
#: reaches the payload slot.
_QueueEntry = Tuple[float, int, Optional["ReusableTimer"], Any]


def _no_arrival_stream(payload: Any) -> None:
    """Placeholder arrival callback; unreachable (arrival_count stays 0)."""
    raise SimulationError("arrival fired without an arrival stream")


class ReusableTimer:
    """A slotted, cancellable engine timer built for cancel/re-arm churn.

    It owns at most one live heap entry: :meth:`cancel` leaves it in the
    heap, dormant; re-arming to the same or a later deadline (the tape
    unmount pattern) only updates the target, and the entry re-pushes
    itself to it when it surfaces; re-arming earlier abandons the entry
    via a generation bump and pushes a fresh one.

    Ties at the same timestamp break by insertion sequence. A migrated
    entry receives its sequence number when it migrates — strictly before
    its deadline — so it orders after anything pushed for that deadline
    before the migration, and before anything pushed after it.
    """

    __slots__ = ("_engine", "_callback", "_deadline", "_entry_time", "_generation")

    def __init__(self, engine: "SimulationEngine", callback: EventCallback):
        self._engine = engine
        self._callback = callback
        #: Current firing target in simulated seconds; None = dormant.
        self._deadline: Optional[float] = None
        #: Timestamp of this generation's in-heap entry; None = no entry.
        self._entry_time: Optional[float] = None
        self._generation = 0

    @property
    def armed(self) -> bool:
        """True when the timer has a pending deadline."""
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[float]:
        """The firing instant in simulated seconds, or ``None`` if dormant."""
        return self._deadline

    def schedule_at(self, time: float) -> None:
        """Arm (or re-arm) the timer to fire at absolute ``time`` seconds.

        Raises:
            SimulationError: when scheduling into the past.
        """
        engine = self._engine
        if time < engine._now:
            raise SimulationError(
                f"cannot schedule timer at {time} before now={engine._now}"
            )
        entry_time = self._entry_time
        if entry_time is not None and entry_time <= time:
            # In-place re-arm: the existing entry fires no later than the
            # new deadline and will migrate itself forward when popped.
            if self._deadline is None:
                engine._cancelled_pending -= 1  # entry is live again
            self._deadline = time
            return
        if entry_time is not None:
            # Earlier than the in-heap entry: abandon it to a stale
            # generation (dropped when it surfaces).
            self._generation += 1
            if self._deadline is not None:
                engine._cancelled_pending += 1
        self._deadline = time
        self._entry_time = time
        heapq.heappush(
            engine._queue,
            (time, next(engine._sequence), self, self._generation),
        )

    def schedule_after(self, delay: float) -> None:
        """Arm the timer ``delay`` seconds from the engine's current time."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.schedule_at(self._engine._now + delay)

    def cancel(self) -> None:
        """Disarm the timer (idempotent; the heap entry is reused later)."""
        if self._deadline is None:
            return
        self._deadline = None
        if self._entry_time is not None:
            self._engine._cancelled_pending += 1


class SimulationEngine:
    """Event loop with a monotonic simulated clock starting at 0 s.

    Typical use::

        engine = SimulationEngine()
        engine.schedule(10.0, lambda: print("fired at", engine.now))
        engine.run()
    """

    __slots__ = (
        "_now",
        "_queue",
        "_sequence",
        "_events_processed",
        "_running",
        "_cancelled_pending",
        "_in_arrival",
        "_lazy",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_QueueEntry] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._running = False
        #: Dead heap entries: dormant or abandoned timer entries.
        self._cancelled_pending = 0
        #: True while a streamed arrival fires (see walk_limit).
        self._in_arrival = False
        self._lazy: List[Callable[[float], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live events still queued.

        A dormant :class:`ReusableTimer` entry counts as dead; an armed
        timer counts as exactly one live event regardless of where its
        heap entry currently sits.
        """
        return len(self._queue) - self._cancelled_pending

    @property
    def queue_depth(self) -> int:
        """Raw heap size, dead timer entries included."""
        return len(self._queue)

    def schedule(self, time: float, callback: EventCallback) -> None:
        """Fire ``callback`` at absolute simulated ``time`` (seconds).

        Fire-and-forget: the event cannot be cancelled. Use a
        :meth:`timer` for an event that may need cancelling.

        Raises:
            SimulationError: when scheduling into the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        heapq.heappush(self._queue, (time, next(self._sequence), None, callback))

    def schedule_after(self, delay: float, callback: EventCallback) -> None:
        """Fire ``callback`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        self.schedule(self._now + delay, callback)

    def walk_limit(self) -> float:
        """The latest instant a lazy source may be walked to now: the
        current instant, or just before it while a streamed arrival
        fires there (the arrival comes first)."""
        return nextafter(self._now, -inf) if self._in_arrival else self._now

    def add_lazy(self, advance: Callable[[float], None]) -> None:
        """Call ``advance(horizon)`` last in every run with a horizon, so
        a source that resolves its own events on demand catches up."""
        self._lazy.append(advance)

    def timer(self, callback: EventCallback) -> ReusableTimer:
        """A dormant :class:`ReusableTimer` firing ``callback``."""
        return ReusableTimer(self, callback)

    def peek_time(self) -> Optional[float]:
        """Seconds timestamp of the next live event, or ``None`` if
        drained."""
        head = self._fix_head()
        if head is None:
            return None
        return head[0]

    def run(
        self,
        until: Optional[float] = None,
        arrivals: Optional[ArrivalStream] = None,
    ) -> None:
        """Drain the event queue (and an optional bulk-arrival stream).

        Args:
            until: Stop once the next event would be strictly after this
                time; the clock is advanced to ``until`` and every lazy
                source (:meth:`add_lazy`) walks up to it.
            arrivals: A ``(times, payloads, callback)`` stream of
                pre-sorted, uncancellable events merged with the heap.
                Equivalent to :meth:`schedule`-ing every entry before the
                run — at equal timestamps the stream fires first, exactly
                as preloaded events (with their earlier sequence numbers)
                would — but the entries never touch the heap, so bulk
                trace arrivals stop paying ``O(log n)`` push/pop each and
                stop inflating every other event's heap operations. The
                stream is consumed only up to ``until``; entries after the
                cutoff are dropped, so callers replaying a trace should
                pass a horizon at or after the last arrival.
        """
        if self._running:
            raise SimulationError("engine.run() is not re-entrant")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        arrival_times: Sequence[float] = ()
        arrival_payloads: Sequence[Any] = ()
        arrival_callback: Callable[[Any], None] = _no_arrival_stream
        arrival_index = 0
        arrival_count = 0
        if arrivals is not None:
            arrival_times, arrival_payloads, arrival_callback = arrivals
            arrival_count = len(arrival_times)
            if len(arrival_payloads) != arrival_count:
                raise SimulationError(
                    "arrival stream times and payloads differ in length"
                )
            if arrival_count and arrival_times[0] < self._now:
                raise SimulationError(
                    f"cannot stream event at {arrival_times[0]} before "
                    f"now={self._now}"
                )
        # The per-event horizon check reduces to a bare float compare:
        # +inf stands in for "no horizon".
        horizon = inf if until is None else until
        try:
            while True:
                self._in_arrival = True
                while arrival_index < arrival_count:
                    # A dead heap head only *underestimates* the next
                    # live event time, so firing the arrival when it is
                    # <= that bound is always order-correct — and skips
                    # normalising the head on the overwhelmingly common
                    # trace-replay iteration.
                    time = arrival_times[arrival_index]
                    if queue and time > queue[0][0]:
                        break  # a heap event (or dead bound) comes first
                    if time > horizon:
                        arrival_index = arrival_count  # past the horizon
                        break
                    payload = arrival_payloads[arrival_index]
                    arrival_index += 1
                    self._now = time
                    self._events_processed += 1
                    try:
                        arrival_callback(payload)
                    except SimulationError:
                        raise
                    except Exception as exc:
                        raise SimulationError(
                            f"event callback {arrival_callback!r} failed "
                            f"at t={time:.6g}s "
                            f"(event #{self._events_processed}): {exc}"
                        ) from exc
                self._in_arrival = False
                head = self._fix_head()
                if arrival_index < arrival_count and (
                    head is None or arrival_times[arrival_index] <= head[0]
                ):
                    # The dead bound that deferred the arrival was an
                    # *under*estimate of the live head; the arrival
                    # fires first after all.
                    continue
                if head is None:
                    break
                timer = head[2]
                time = head[0]
                if time > horizon:
                    break
                heappop(queue)
                if timer is not None:
                    timer._deadline = None
                    timer._entry_time = None
                    callback = timer._callback
                else:
                    callback = head[3]
                self._now = time
                self._events_processed += 1
                try:
                    callback()
                except SimulationError:
                    raise  # already carries simulation context
                except Exception as exc:
                    raise SimulationError(
                        f"event callback {callback!r} failed at t={time:.6g}s "
                        f"(event #{self._events_processed}): {exc}"
                    ) from exc
            if until is not None:
                if until > self._now:
                    self._now = until
                for advance in self._lazy:
                    advance(until)
        finally:
            self._running = False
            self._in_arrival = False

    # -- internals ------------------------------------------------------

    def _fix_head(self) -> Optional[_QueueEntry]:
        """Normalise the heap head: drop dead timer entries, migrate
        re-armed ones to their current deadline, and return the live head
        (or ``None`` when drained)."""
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        while queue:
            head = queue[0]
            timer = head[2]
            if timer is None:  # scheduled events are always live
                return head
            if head[3] != timer._generation:
                heappop(queue)
                self._cancelled_pending -= 1
                continue
            deadline = timer._deadline
            if deadline is None:
                heappop(queue)
                self._cancelled_pending -= 1
                timer._entry_time = None
                continue
            if deadline > head[0]:
                # Re-armed later while in flight: migrate the entry.
                heappop(queue)
                heappush(queue, (deadline, next(self._sequence), timer, head[3]))
                timer._entry_time = deadline
                continue
            return head
        return None
