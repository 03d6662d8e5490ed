"""One shard session: a full ``SchedulingService`` in one process.

A shard worker is deliberately *not* a new kind of service — it is the
PR 5 :class:`~repro.serve.service.SchedulingService` verbatim, fed a
pre-routed request stream and scoped to its shard's disks, data subset
and derived seed. That is the whole determinism argument: a shard's
report is byte-identical to an unsharded run over the same sub-fleet
with the same seed because it *is* that run.

Each worker owns its own :class:`~repro.serve.clock.VirtualTimeLoop`
(virtual clocks are per-process state — satellite fix of this PR), so
shards advance time independently; cross-shard ordering lives entirely
in the router's merge, never in a shared clock.

The request iterator may block (a multiprocessing queue ``get``). That
is safe under the virtual loop: a blocked ``get`` stalls *wall* time
only, while the virtual timeline — and therefore every outcome, metric
and report byte — depends solely on the message contents.
"""

from __future__ import annotations

import time
from dataclasses import replace
from multiprocessing.queues import Queue as MpQueue
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.serve.clock import virtual_run
from repro.serve.loadgen import submit_schedule, tally_outcomes
from repro.serve.service import SchedulingService
from repro.serve.shard.messages import (
    ShardFailure,
    ShardProgress,
    ShardRequest,
    ShardResult,
)
from repro.serve.shard.reporting import shard_document
from repro.serve.shard.topology import ShardSpec
from repro.types import DataId


async def _session(
    spec: ShardSpec, messages: Iterable[ShardRequest]
) -> ShardResult:
    """Run one shard's whole lifecycle on the current (virtual) loop.

    The routed messages feed the same open-loop submit loop an
    unsharded session runs (:func:`~repro.serve.loadgen.submit_schedule`).
    The report and registry dump are assembled *inside* the coroutine,
    while the service's loop-bound clock is still live.
    """
    service = SchedulingService(spec.service, catalog=spec.make_catalog())
    await service.start()
    indices: List[int] = []

    def schedule() -> Iterator[Tuple[float, str, DataId]]:
        for message in messages:
            indices.append(message.index)
            yield message.arrival_s, message.client_id, message.data_id

    outcomes = tuple(await submit_schedule(service, schedule()))
    await service.drain(grace_s=spec.drain_grace_s)
    # The report's snapshot refreshes the derived gauges; dump after it.
    document = shard_document(spec, service, tally_outcomes(outcomes))
    return ShardResult(
        shard_id=spec.shard_id,
        indices=tuple(indices),
        outcomes=outcomes,
        registry_dump=service.metrics.dump(),
        document=document,
        virtual_elapsed_s=service.clock.now,
        compute_cpu_s=0.0,  # stamped by run_shard_session
        events_processed=service.backend.events_processed,
    )


def run_shard_session(
    spec: ShardSpec, messages: Iterable[ShardRequest]
) -> ShardResult:
    """Execute one shard session to completion (blocking).

    Works identically for the serial path (``messages`` is a list) and
    the worker process (``messages`` drains a queue). ``compute_cpu_s``
    measures CPU time spent inside the session — queue-blocked waiting
    costs nothing — so multi-process runs can report a critical-path
    rate even on single-core hosts.
    """
    # CPU-clock reads measure worker cost only; nothing scheduled
    # depends on them, so determinism is untouched.
    started_cpu_s = time.process_time()  # reprolint: disable=RPL101
    result = virtual_run(_session(spec, messages))
    elapsed_cpu_s = time.process_time() - started_cpu_s  # reprolint: disable=RPL101
    return replace(result, compute_cpu_s=elapsed_cpu_s)


def _drain_chunks(
    request_q: "MpQueue[Optional[Sequence[ShardRequest]]]",
    on_chunk: Optional[Callable[[int], None]] = None,
) -> Iterator[ShardRequest]:
    """Flatten the router's chunked stream until the ``None`` sentinel.

    The router batches requests per queue put (one pickle per chunk
    instead of per request) purely to cut serialisation overhead; the
    worker sees the identical flat, ordered message stream.
    ``on_chunk`` (if given) fires with the running chunk count as each
    chunk is taken off the queue — the liveness heartbeat hook.
    """
    chunks = 0
    for chunk in iter(request_q.get, None):
        chunks += 1
        if on_chunk is not None:
            on_chunk(chunks)
        for message in chunk:
            yield message


def shard_worker_main(
    spec: ShardSpec,
    request_q: "MpQueue[Optional[Sequence[ShardRequest]]]",
    response_q: "MpQueue[object]",
) -> None:
    """Worker-process entry point: drain the request queue, reply once.

    On failure a best-effort :class:`ShardFailure` goes back before the
    exception re-raises (so the parent sees a non-zero exit *and* a
    reason); the router's collection barrier additionally polls worker
    liveness, so even a SIGKILL (no reply at all) cannot wedge it.
    A :class:`ShardProgress` heartbeat precedes the reply for every
    chunk consumed, which is what lets the barrier's response timeout
    tell a slow worker from a hung one.
    """

    def heartbeat(chunks: int) -> None:
        response_q.put(
            ShardProgress(shard_id=spec.shard_id, chunks_consumed=chunks)
        )

    try:
        result = run_shard_session(
            spec, _drain_chunks(request_q, on_chunk=heartbeat)
        )
        response_q.put(result)
    except Exception as error:
        response_q.put(ShardFailure(shard_id=spec.shard_id, error=repr(error)))
        raise


__all__ = ["run_shard_session", "shard_worker_main"]
