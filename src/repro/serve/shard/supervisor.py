"""Supervised shard workers: spawn, observe, kill, restart, replay.

:class:`ShardSupervisor` owns every process-level concern the sharded
router used to handle inline — worker lifecycles, request/response
queues, the router-side outbox — plus the three abilities PR 8 adds:

* **Hang detection, not just death detection.** The collection barrier
  polls worker liveness *and* a per-shard response timeout fed by
  :class:`~repro.serve.shard.messages.ShardProgress` heartbeats, so a
  worker that is alive but silent (SIGSTOP, a wedged syscall) is
  escalated instead of awaited until the heat death of CI.
* **Restart from the derived seed.** A restarted shard is a fresh
  process built from the *same* :class:`ShardSpec` — same derived seed,
  same topology slice — fed the full outbox replay. Its virtual session
  re-runs from zero and reproduces the dead incarnation's outcomes
  exactly (the determinism tier's argument, now doing recovery work),
  which is why first-wins dedup of duplicate results is safe.
* **Bounded-retry rejoin.** Process spawn is retried with exponential
  backoff up to a configured attempt budget; every completed recovery
  is summarised in a typed :class:`RecoveryReport`.

Wall-clock readings here (downtime, backoff pacing, response timeouts)
are measurement and *pacing* only: which requests a restarted shard
replays is fixed by the schedule-scripted
:attr:`~repro.serve.shard.messages.ShardKill.recover_at_s`, so outcomes
never depend on how long a restart actually took.
"""

from __future__ import annotations

import os
import queue
import signal
import time
from dataclasses import dataclass
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from multiprocessing.queues import Queue as MpQueue
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.serve.shard.messages import (
    ShardFailure,
    ShardProgress,
    ShardRequest,
    ShardResult,
)
from repro.serve.shard.topology import ShardSpec
from repro.serve.shard.worker import shard_worker_main

#: Collection-barrier liveness poll interval (wall seconds).
BARRIER_POLL_S = 0.2

#: Requests per queue put. Chunking amortises pickle + pipe overhead
#: (one serialisation per chunk, not per request); the worker flattens
#: chunks back into the identical ordered stream, and every chunk
#: boundary is forced flush-before-kill, so chaos timing is unaffected.
REQUEST_CHUNK = 256


@dataclass(frozen=True)
class SupervisorConfig:
    """Recovery policy knobs (all wall-clock pacing, never outcomes).

    Attributes:
        supervise: Restart dead or escalated workers whose outbox still
            holds unanswered requests (instead of shedding their
            keyspace at the barrier).
        response_timeout_s: Barrier-side hang detector: seconds of
            *silence* (no heartbeat, no result) from a live worker
            before it is escalated to SIGKILL. ``None`` disables the
            detector — a hung worker then stalls the barrier, which is
            exactly the pre-supervision behaviour.
        max_spawn_attempts: Restart attempt budget per recovery.
        spawn_backoff_s: Base backoff between restart attempts; attempt
            ``k`` waits ``spawn_backoff_s * 2**(k-1)``.
    """

    supervise: bool = False
    response_timeout_s: Optional[float] = None
    max_spawn_attempts: int = 3
    spawn_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.response_timeout_s is not None and self.response_timeout_s <= 0:
            raise ConfigurationError(
                f"response_timeout_s must be positive, got "
                f"{self.response_timeout_s}"
            )
        if self.max_spawn_attempts < 1:
            raise ConfigurationError(
                f"max_spawn_attempts must be >= 1, got "
                f"{self.max_spawn_attempts}"
            )
        if self.spawn_backoff_s < 0:
            raise ConfigurationError(
                f"spawn_backoff_s must be >= 0, got {self.spawn_backoff_s}"
            )


@dataclass(frozen=True)
class RecoveryReport:
    """One completed worker recovery, summarised for the merged report.

    Attributes:
        shard_id: The recovered shard.
        reason: What took the previous incarnation down — ``"killed"``
            (scripted SIGKILL) or ``"hung"`` (escalated after the
            response timeout).
        spawn_attempts: Process-spawn attempts the restart consumed
            (1 = first try succeeded).
        requests_replayed: Outbox messages re-sent to the fresh
            incarnation.
        requests_failed_over: Requests re-routed to replica shards
            while this shard was down (0 unless cross-shard replication
            is on).
        duplicates_suppressed: Duplicate per-request outcomes discarded
            by the router's first-wins request-id dedup for this
            shard's results.
        downtime_wall_s: Wall seconds from death to successful rejoin.
            Measurement only — never serialised into report documents,
            which must stay byte-deterministic.
    """

    shard_id: int
    reason: str
    spawn_attempts: int
    requests_replayed: int
    requests_failed_over: int
    duplicates_suppressed: int
    downtime_wall_s: float


class _Incident:
    """Mutable recovery-in-progress bookkeeping (frozen at finalise)."""

    __slots__ = (
        "shard_id",
        "reason",
        "spawn_attempts",
        "requests_replayed",
        "requests_failed_over",
        "down_since_wall_s",
        "downtime_wall_s",
    )

    def __init__(self, shard_id: int, reason: str, down_since_wall_s: float):
        self.shard_id = shard_id
        self.reason = reason
        self.spawn_attempts = 0
        self.requests_replayed = 0
        self.requests_failed_over = 0
        self.down_since_wall_s = down_since_wall_s
        self.downtime_wall_s = 0.0


class ShardSupervisor:
    """Owns worker processes, queues, outboxes, and recovery.

    The router drives it in strict schedule order: enqueue/flush during
    routing, scripted ``kill``/``hang``/``restart`` at their schedule
    instants, then one :meth:`collect` barrier. Single-use, like the
    deployment it runs.

    Args:
        context: Multiprocessing context (fork on the platforms CI
            runs; everything queued is picklable so spawn works too).
        specs: One :class:`ShardSpec` per shard, shard-id order.
        config: Recovery policy.
    """

    def __init__(
        self,
        context: BaseContext,
        specs: Sequence[ShardSpec],
        config: SupervisorConfig,
    ):
        self._context = context
        self._specs = tuple(specs)
        self._config = config
        shard_ids = range(len(self._specs))
        self._request_qs: Dict[int, "MpQueue[object]"] = {}
        self._response_qs: Dict[int, "MpQueue[object]"] = {}
        self._processes: Dict[int, BaseProcess] = {}
        self._retired_processes: List[BaseProcess] = []
        self._retired_queues: List["MpQueue[object]"] = []
        self._outbox: Dict[int, List[ShardRequest]] = {
            shard: [] for shard in shard_ids
        }
        self._pending: Dict[int, List[ShardRequest]] = {
            shard: [] for shard in shard_ids
        }
        self._live: Set[int] = set()
        self._stream_closed = False
        self._incidents: Dict[int, _Incident] = {}  # open (unrecovered)
        self._recovered: List[_Incident] = []
        self._duplicates_by_shard: Dict[int, int] = {}
        self._requests_replayed = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Spawn one worker per shard."""
        if self._processes:
            raise SimulationError("supervisor already started")
        for shard_id in range(len(self._specs)):
            self._spawn(shard_id)
            self._live.add(shard_id)

    def _spawn(self, shard_id: int) -> None:
        request_q: "MpQueue[object]" = self._context.Queue()
        response_q: "MpQueue[object]" = self._context.Queue()
        process = self._context.Process(
            target=shard_worker_main,
            args=(self._specs[shard_id], request_q, response_q),
            name=f"shard-{shard_id}",
            daemon=True,
        )
        process.start()
        self._request_qs[shard_id] = request_q
        self._response_qs[shard_id] = response_q
        self._processes[shard_id] = process

    def is_live(self, shard_id: int) -> bool:
        """Whether ``shard_id`` is currently in the live set."""
        return shard_id in self._live

    @property
    def down_shards(self) -> Tuple[int, ...]:
        """Shards currently down, ascending."""
        return tuple(
            shard
            for shard in range(len(self._specs))
            if shard not in self._live
        )

    # -- request flow ---------------------------------------------------

    def enqueue(self, shard_id: int, message: ShardRequest) -> None:
        """Append one routed request to the shard's outbox (and wire).

        Live shards get the message on their request queue (chunked);
        for a down shard awaiting restart the message parks in the
        outbox only, to be delivered by the replay.
        """
        self._outbox[shard_id].append(message)
        if shard_id in self._live:
            pending = self._pending[shard_id]
            pending.append(message)
            if len(pending) >= REQUEST_CHUNK:
                self.flush(shard_id)

    def flush(self, shard_id: int) -> None:
        """Push the shard's buffered chunk onto its queue, if any."""
        pending = self._pending[shard_id]
        if pending and shard_id in self._live:
            self._request_qs[shard_id].put(list(pending))
            pending.clear()

    def flush_all(self) -> None:
        """Flush every live shard's staged messages (chunked sends)."""
        for shard_id in self._live:
            self.flush(shard_id)

    def close_streams(self) -> None:
        """Flush every live shard and send its end-of-stream sentinel."""
        for shard_id in sorted(self._live):
            self.flush(shard_id)
            self._request_qs[shard_id].put(None)
        self._stream_closed = True

    def outbox(self, shard_id: int) -> Tuple[ShardRequest, ...]:
        """Everything ever routed to ``shard_id`` (replay source)."""
        return tuple(self._outbox[shard_id])

    def drop_outbox(self, shard_id: int) -> None:
        """Forget a dead shard's outbox after its keys failed over."""
        self._outbox[shard_id].clear()
        self._pending[shard_id].clear()

    def note_failover(self, shard_id: int) -> None:
        """Count one request failed over away from down ``shard_id``."""
        incident = self._incidents.get(shard_id)
        if incident is not None:
            incident.requests_failed_over += 1

    # -- chaos actions --------------------------------------------------

    def kill(self, shard_id: int, reason: str = "killed") -> None:
        """SIGKILL the shard's worker now and mark it down."""
        if shard_id not in self._live:
            raise SimulationError(f"shard {shard_id} is already down")
        process = self._processes[shard_id]
        process.kill()  # SIGKILL: also fells SIGSTOPped workers
        process.join()
        self._live.discard(shard_id)
        self._pending[shard_id].clear()  # unsent tail replays from outbox
        incident = _Incident(
            shard_id,
            reason,
            time.monotonic(),  # reprolint: disable=RPL101 -- downtime measurement only
        )
        self._incidents[shard_id] = incident

    def hang(self, shard_id: int) -> None:
        """SIGSTOP the shard's worker: alive, silent, consuming nothing."""
        if shard_id not in self._live:
            raise SimulationError(f"cannot hang shard {shard_id}: down")
        pid = self._processes[shard_id].pid
        assert pid is not None  # started processes always have a pid
        os.kill(pid, signal.SIGSTOP)

    def restart(self, shard_id: int) -> None:
        """Respawn a down shard and replay its outbox (bounded retries).

        The fresh process runs the same :class:`ShardSpec` — derived
        seed, topology slice — so replaying the outbox reproduces the
        dead incarnation's session exactly. If the global request
        stream already closed, the replay ends with the sentinel so the
        new worker can finish; otherwise the router keeps streaming to
        it like any live shard.
        """
        if shard_id in self._live:
            raise SimulationError(f"shard {shard_id} is already live")
        incident = self._incidents.pop(shard_id, None)
        if incident is None:
            incident = _Incident(
                shard_id,
                "killed",
                time.monotonic(),  # reprolint: disable=RPL101 -- measurement only
            )
        self._retired_processes.append(self._processes[shard_id])
        self._retired_queues.append(self._request_qs[shard_id])
        self._retired_queues.append(self._response_qs[shard_id])
        config = self._config
        attempt = 0
        while True:
            attempt += 1
            try:
                self._spawn(shard_id)
                break
            except OSError as error:
                if attempt >= config.max_spawn_attempts:
                    raise SimulationError(
                        f"shard {shard_id} failed to respawn after "
                        f"{attempt} attempts: {error!r}"
                    )
                # Exponential backoff between spawn attempts: pure wall
                # pacing, invisible to outcomes.
                time.sleep(config.spawn_backoff_s * 2 ** (attempt - 1))
        replay = self._outbox[shard_id]
        for start in range(0, len(replay), REQUEST_CHUNK):
            self._request_qs[shard_id].put(
                list(replay[start:start + REQUEST_CHUNK])
            )
        if self._stream_closed:
            self._request_qs[shard_id].put(None)
        self._live.add(shard_id)
        incident.spawn_attempts = attempt
        incident.requests_replayed = len(replay)
        incident.downtime_wall_s = (
            time.monotonic()  # reprolint: disable=RPL101 -- measurement only
            - incident.down_since_wall_s
        )
        self._requests_replayed += len(replay)
        self._recovered.append(incident)

    # -- collection barrier ---------------------------------------------

    def collect(
        self, barrier_timeout_s: Optional[float]
    ) -> Tuple[List[ShardResult], List[int]]:
        """One reply (or an unrecovered death) per live shard.

        Polls each shard's response queue with a short timeout,
        checking three things between polls:

        * **liveness** — a worker that died without replying is either
          restarted (supervising, outbox unanswered) or marked down;
        * **silence** — a worker alive but heartbeat-silent past
          ``response_timeout_s`` is escalated: SIGKILLed, then
          restarted or marked down by the same rule;
        * **the global barrier budget** — ``barrier_timeout_s`` caps
          the whole collection as before.

        A final ``get_nowait`` drain closes the race where a worker
        replied and *then* exited between two polls.
        """
        # Supervision's barrier-entry sweep: a shard that was *already*
        # down when routing ended (a terminal scripted kill, say) still
        # holds unanswered requests in its outbox — restart it now so
        # the replay can answer them before the barrier waits on it.
        if self._config.supervise:
            for shard_id in self.down_shards:
                if self._outbox[shard_id]:
                    self.restart(shard_id)
        # Barrier pacing is wall-clock by nature (it guards against real
        # process death); results are unaffected by the poll cadence.
        barrier_start_s = time.monotonic()  # reprolint: disable=RPL101
        results: List[ShardResult] = []
        newly_down: List[int] = []
        for shard_id in sorted(self._live):
            reply = self._await_shard(
                shard_id, barrier_start_s, barrier_timeout_s
            )
            if reply is None:
                self._live.discard(shard_id)
                newly_down.append(shard_id)
                continue
            results.append(reply)
        return results, newly_down

    def _await_shard(
        self,
        shard_id: int,
        barrier_start_s: float,
        barrier_timeout_s: Optional[float],
    ) -> Optional[ShardResult]:
        """Wait for one shard's result; None = down for good."""
        config = self._config
        last_activity_s = time.monotonic()  # reprolint: disable=RPL101
        restarted_here = False
        while True:
            if (
                barrier_timeout_s is not None
                and time.monotonic() - barrier_start_s  # reprolint: disable=RPL101
                > barrier_timeout_s
            ):
                raise SimulationError(
                    f"collection barrier exceeded {barrier_timeout_s} s "
                    f"waiting on shard {shard_id}"
                )
            try:
                reply = self._response_qs[shard_id].get(
                    timeout=BARRIER_POLL_S
                )
            except queue.Empty:
                now_s = time.monotonic()  # reprolint: disable=RPL101
                process = self._processes[shard_id]
                hung = (
                    config.response_timeout_s is not None
                    and now_s - last_activity_s > config.response_timeout_s
                )
                if hung and process.is_alive():
                    # Alive but silent past the deadline: escalate.
                    if self._try_recover(shard_id, "hung", restarted_here):
                        restarted_here = True
                        last_activity_s = time.monotonic()  # reprolint: disable=RPL101
                        continue
                    return None
                if process.is_alive():
                    continue
                # Dead between polls: drain the race window, then decide.
                drained = self._drain_nowait(shard_id)
                if drained is not None:
                    return drained
                if self._try_recover(shard_id, "killed", restarted_here):
                    restarted_here = True
                    last_activity_s = time.monotonic()  # reprolint: disable=RPL101
                    continue
                return None
            if isinstance(reply, ShardProgress):
                last_activity_s = time.monotonic()  # reprolint: disable=RPL101
                continue
            return self._accept(shard_id, reply)

    def _drain_nowait(self, shard_id: int) -> Optional[ShardResult]:
        """Non-blocking drain of a shard's queue, skipping heartbeats."""
        while True:
            try:
                reply = self._response_qs[shard_id].get_nowait()
            except queue.Empty:
                return None
            if isinstance(reply, ShardProgress):
                continue
            return self._accept(shard_id, reply)

    def _try_recover(
        self, shard_id: int, reason: str, already_restarted: bool
    ) -> bool:
        """Escalate a dead/hung worker at the barrier; True = retry wait.

        SIGKILLs the incarnation (harmless if already dead), then
        restarts-and-replays when supervising and the shard's outbox
        still holds unanswered requests. One recovery per shard per
        barrier: a worker that dies *again* after its barrier restart
        stays down (the restart budget is the routing-time script's
        job, not the barrier's).
        """
        if shard_id in self._live:
            process = self._processes[shard_id]
            process.kill()
            process.join()
            self._live.discard(shard_id)
            self._pending[shard_id].clear()
            self._incidents[shard_id] = _Incident(
                shard_id,
                reason,
                time.monotonic(),  # reprolint: disable=RPL101 -- measurement only
            )
        if (
            already_restarted
            or not self._config.supervise
            or not self._outbox[shard_id]
        ):
            return False
        self.restart(shard_id)
        return True

    def _accept(self, shard_id: int, reply: object) -> ShardResult:
        if isinstance(reply, ShardFailure):
            raise SimulationError(
                f"shard {reply.shard_id} worker failed: {reply.error}"
            )
        if not isinstance(reply, ShardResult):
            raise SimulationError(
                f"shard {shard_id} sent an unexpected reply "
                f"{type(reply).__name__}"
            )
        return reply

    # -- accounting -----------------------------------------------------

    @property
    def requests_replayed(self) -> int:
        """Outbox messages re-sent across every restart."""
        return self._requests_replayed

    def note_duplicates(self, shard_id: int, count: int) -> None:
        """Record dedup-suppressed outcomes from a shard's results."""
        if count:
            self._duplicates_by_shard[shard_id] = (
                self._duplicates_by_shard.get(shard_id, 0) + count
            )

    def recovery_reports(self) -> Tuple[RecoveryReport, ...]:
        """Freeze every completed recovery, oldest first."""
        return tuple(
            RecoveryReport(
                shard_id=incident.shard_id,
                reason=incident.reason,
                spawn_attempts=incident.spawn_attempts,
                requests_replayed=incident.requests_replayed,
                requests_failed_over=incident.requests_failed_over,
                duplicates_suppressed=self._duplicates_by_shard.get(
                    incident.shard_id, 0
                ),
                downtime_wall_s=incident.downtime_wall_s,
            )
            for incident in self._recovered
        )

    # -- teardown -------------------------------------------------------

    def shutdown(self) -> None:
        """Kill every incarnation ever spawned and close every queue.

        ``kill`` (SIGKILL), not ``terminate`` (SIGTERM): a SIGSTOPped
        worker leaves SIGTERM pending forever, but SIGKILL fells
        stopped processes too.
        """
        processes = list(self._processes.values()) + self._retired_processes
        for process in processes:
            if process.is_alive():
                process.kill()
            process.join()
        queues = (
            list(self._request_qs.values())
            + list(self._response_qs.values())
            + self._retired_queues
        )
        for q in queues:
            q.close()
            q.cancel_join_thread()


__all__ = [
    "BARRIER_POLL_S",
    "REQUEST_CHUNK",
    "RecoveryReport",
    "ShardSupervisor",
    "SupervisorConfig",
]
