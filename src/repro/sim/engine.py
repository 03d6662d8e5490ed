"""Deterministic discrete-event simulation engine (OMNeT++ substitute).

The engine is a binary-heap event queue with a monotonic clock. Events are
plain callables; insertion order breaks timestamp ties so runs are fully
deterministic, and a trace replay's arrivals stream beside the heap, each
firing after the heap events due at its instant. Disks keep only their
spin-up completions here: a :class:`~repro.disk.drive.SimulatedDisk`
walks its own completions, idle timeout and spin-down when it is read
(up to the current instant, and to a run's horizon through
:meth:`SimulationEngine.add_lazy`), counting each in ``events_processed``.
One tie rule follows: everything due at an instant happens before a
request dispatched at that instant.

:meth:`SimulationEngine.schedule` returns the event itself, its heap
entry ``[time, sequence, callback]``, and :meth:`SimulationEngine.cancel`
clears the callback slot. A cancelled entry stays in the heap, dead,
until it surfaces at the head and is dropped; the run loop clears the
slot of each entry it pops, so cancelling a fired event does nothing.
Cancelling is how a crash stops a disk's spin-up and how an arrival
stops a tape drive's unmount; re-arming is a cancel and a new event.
Live events fire in ``(time, sequence)`` order, the sequence being the
order they were scheduled in.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

EventCallback = Callable[[], None]

#: Bulk-arrival stream accepted by :meth:`SimulationEngine.run`:
#: ``(times, payloads, callback)`` with ``times`` sorted ascending and
#: ``callback(payload)`` fired once per entry at its timestamp.
ArrivalStream = Tuple[Sequence[float], Sequence[Any], Callable[[Any], None]]

#: A scheduled event, which is its heap entry: ``[time, sequence,
#: callback]``, the callback slot ``None`` once it fired or was
#: cancelled. The unique sequence number guarantees list comparison never
#: reaches the callback slot.
Event = List[Any]


def _no_arrival_stream(payload: Any) -> None:
    """Placeholder arrival callback; unreachable (arrival_count stays 0)."""
    raise SimulationError("arrival fired without an arrival stream")


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
        "_lazy",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Event] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._running = False
        #: Cancelled entries still in the heap.
        self._cancelled_pending = 0
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
        """Live events still queued (cancelled entries excluded)."""
        return len(self._queue) - self._cancelled_pending

    @property
    def queue_depth(self) -> int:
        """Raw heap size, cancelled entries included."""
        return len(self._queue)

    def schedule(self, time: float, callback: EventCallback) -> Event:
        """Fire ``callback`` at absolute simulated ``time`` (seconds).

        Returns the event, for :meth:`cancel`.

        Raises:
            SimulationError: when scheduling into the past.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        event = [time, next(self._sequence), callback]
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(self, delay: float, callback: EventCallback) -> Event:
        """Fire ``callback`` after a relative ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, callback)

    def cancel(self, event: Event) -> None:
        """Stop ``event`` from firing; does nothing once it has fired or
        was cancelled already."""
        if event[2] is not None:
            event[2] = None
            self._cancelled_pending += 1

    def add_lazy(self, advance: Callable[[float], None]) -> None:
        """Call ``advance(horizon)`` last in every run with a horizon, so
        a source that resolves its own events on demand catches up."""
        self._lazy.append(advance)

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
                An entry fires after every heap event due at or before
                its timestamp, those scheduled while earlier entries
                fired included, so a request sees everything due at its
                instant. The entries never touch the heap, so bulk trace
                arrivals pay no ``O(log n)`` push/pop each and do not
                inflate every other event's heap operations. The
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
                while arrival_index < arrival_count:
                    # A dead heap head only *underestimates* the next
                    # live event time, so firing the arrival when it is
                    # < that bound is always order-correct — and skips
                    # normalising the head on the overwhelmingly common
                    # trace-replay iteration.
                    time = arrival_times[arrival_index]
                    if queue and time >= queue[0][0]:
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
                head = self._fix_head()
                if arrival_index < arrival_count and (
                    head is None or arrival_times[arrival_index] < head[0]
                ):
                    # The dead bound that deferred the arrival was an
                    # *under*estimate of the live head; the arrival
                    # fires first after all.
                    continue
                if head is None:
                    break
                time = head[0]
                if time > horizon:
                    break
                heappop(queue)
                callback = head[2]
                head[2] = None  # fired: a later cancel does nothing
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

    # -- internals ------------------------------------------------------

    def _fix_head(self) -> Optional[Event]:
        """Drop cancelled entries off the heap head and return the live
        head (or ``None`` when drained)."""
        queue = self._queue
        while queue:
            head = queue[0]
            if head[2] is not None:
                return head
            heapq.heappop(queue)
            self._cancelled_pending -= 1
        return None
