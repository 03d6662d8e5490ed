"""Picklable wire types crossing the router/worker process boundary.

Everything here is a frozen dataclass of plain values — the same
serialisation discipline the PR 2 ``SweepRunner`` established: if it
can't pickle under the ``spawn`` start method, it doesn't go on a
queue. Outcomes (:class:`~repro.serve.admission.Completed` /
``Rejected``) already satisfy this, so shard results carry them
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.serve.admission import Outcome
from repro.types import DataId


@dataclass(frozen=True)
class ShardRequest:
    """One routed request, as the owning shard worker receives it.

    Attributes:
        index: Global position in the load schedule — the router
            reassembles outcomes into schedule order by this.
        arrival_s: Virtual-clock arrival instant in seconds. Workers
            sleep their *own* virtual clock to this instant, so a
            shard's timeline is identical whether the stream arrived
            over a queue or from an in-process generator.
        client_id: Submitting client identity.
        data_id: Requested data item (owned by this shard).
    """

    index: int
    arrival_s: float
    client_id: str
    data_id: DataId


@dataclass(frozen=True)
class ShardResult:
    """A shard worker's complete session output.

    Attributes:
        shard_id: Which shard produced this.
        indices: Global schedule indices of ``outcomes``, in the order
            the shard received them.
        outcomes: Per-request outcomes, received order.
        registry_dump: Full-fidelity ``MetricsRegistry.dump()`` (raw
            histogram samples), for exact cross-shard merging.
        document: The shard's own schema-valid ``repro-bench/1`` report.
        virtual_elapsed_s: The shard's virtual clock at session end.
        compute_cpu_s: CPU seconds the worker spent inside the session
            (``time.process_time``). CPU — not wall — because a worker
            blocked on its request queue burns no CPU, so per-shard
            compute shrinks with the shard count even when all workers
            time-slice one core; this is what the ``serve_scale``
            critical-path rate is built from.
        events_processed: Engine events the shard's backend processed.
    """

    shard_id: int
    indices: Tuple[int, ...]
    outcomes: Tuple[Outcome, ...]
    registry_dump: Dict[str, Dict[str, object]]
    document: Dict[str, object]
    virtual_elapsed_s: float
    compute_cpu_s: float
    events_processed: int


@dataclass(frozen=True)
class ShardFailure:
    """A worker died with an exception (sent best-effort before re-raise).

    Attributes:
        shard_id: Which shard failed.
        error: ``repr`` of the exception (tracebacks don't pickle).
    """

    shard_id: int
    error: str


@dataclass(frozen=True)
class ShardKill:
    """A chaos instruction: SIGKILL one worker mid-traffic.

    Mirrors the :mod:`repro.faults` drill idiom — the failure is part of
    the scripted scenario, so the run (which requests are shed, which
    complete) is as reproducible as a healthy one.

    Attributes:
        shard_id: Victim shard.
        time_s: Schedule instant: the kill fires just before the first
            request whose ``arrival_s`` is at or past this.
        recover_at_s: Optional schedule instant at which the supervisor
            restarts the victim (fresh process from the same derived
            seed and topology slice) and replays its outbox. ``None``
            leaves the shard down for the rest of the run. Recovery is
            schedule-scripted for the same reason the kill is: the set
            of requests the restarted shard replays depends only on the
            schedule, never on wall-clock restart latency.
    """

    shard_id: int
    time_s: float
    recover_at_s: Optional[float] = None


@dataclass(frozen=True)
class ShardHang:
    """A chaos instruction: SIGSTOP one worker mid-traffic.

    The nastier cousin of :class:`ShardKill`: the victim stays *alive*
    (liveness polls keep passing) but consumes and answers nothing.
    Detecting this takes the collection barrier's per-shard response
    timeout — silence, not death — after which the supervisor escalates
    to SIGKILL (and, when supervising, restart-and-replay).

    Attributes:
        shard_id: Victim shard.
        time_s: Schedule instant: the stop fires just before the first
            request whose ``arrival_s`` is at or past this.
    """

    shard_id: int
    time_s: float


@dataclass(frozen=True)
class ShardProgress:
    """Worker → router heartbeat: one per request chunk consumed.

    Carries no outcome data — it exists so the collection barrier can
    tell a *slow* worker (progress messages still flowing) from a
    *hung* one (silence past the response timeout). Emitted before the
    chunk is processed, so a worker wedged mid-chunk still reported the
    receipt.

    Attributes:
        shard_id: The reporting shard.
        chunks_consumed: Monotonic count of chunks taken off the
            request queue so far.
    """

    shard_id: int
    chunks_consumed: int


__all__ = [
    "ShardFailure",
    "ShardHang",
    "ShardKill",
    "ShardProgress",
    "ShardRequest",
    "ShardResult",
]
