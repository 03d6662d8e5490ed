"""Serve-session reports in the ``repro-bench/1`` document schema.

A serving run produces the same kind of artifact as an offline bench: a
single JSON document that CI can validate with
:func:`repro.experiments.harness.schema.validate_bench_payload` and diff
across commits. Under the virtual clock the document is **byte
reproducible** — the wall-only fields keep their stand-ins
(``created_unix = 0.0``, ``peak_rss_bytes = null``; a wall-clock caller
stamps real readings itself) and ``wall_clock_s`` records elapsed
*virtual* seconds. The ``service``, ``load`` and ``outcome`` blocks are
shared with the sharded reports (:mod:`repro.serve.shard.reporting`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.experiments.harness.schema import bench_document
from repro.serve.loadgen import LoadgenConfig, LoadResult, run_load
from repro.serve.service import SchedulingService, ServiceConfig


def service_block(config: ServiceConfig, virtual_clock: bool) -> Dict[str, Any]:
    """The report's ``service`` block: the session's serving knobs."""
    return {
        "policy": config.policy,
        "num_disks": config.num_disks,
        "replication_factor": config.replication_factor,
        "num_data": config.num_data,
        "queue_limit": config.queue_limit,
        "client_rate_per_s": config.client_rate_per_s,
        "window_s": config.window_s,
        "max_batch": config.max_batch,
        "virtual_clock": virtual_clock,
    }


def load_block(load: LoadgenConfig) -> Dict[str, Any]:
    """The report's ``load`` block: the generated workload."""
    return {
        "num_requests": load.num_requests,
        "rate_per_s": load.rate_per_s,
        "num_clients": load.num_clients,
        "arrival": load.arrival,
        "loop": load.loop,
        "seed": load.seed,
    }


def outcome_block(result: LoadResult) -> Dict[str, Any]:
    """The report's ``outcome`` block: the tally of every request."""
    return {
        "offered": result.offered,
        "completed": result.completed,
        "rejected": result.rejected,
        "rejected_by_reason": dict(result.rejected_by_reason),
        "completed_fraction": result.completed_fraction,
    }


def session_document(
    bench: str, session: SchedulingService, scale: float, **blocks: Dict[str, Any]
) -> Dict[str, Any]:
    """The envelope of one drained session: its result ``blocks`` plus
    the final metrics snapshot, timed in the session's own seconds."""
    return bench_document(
        bench,
        scale=scale,
        seed=session.config.seed,
        wall_clock_s=session.clock.now,
        events_processed=session.backend.events_processed,
        result={**blocks, "metrics": session.metrics_snapshot()},
    )


def serve_document(
    service: SchedulingService,
    load_config: LoadgenConfig,
    result: LoadResult,
    virtual_clock: bool,
) -> Dict[str, Any]:
    """Assemble the bench-schema document for one finished session.

    Call after :meth:`~repro.serve.service.SchedulingService.drain` —
    the snapshot then covers the whole session including final idle
    energy. ``virtual_clock`` is recorded, never acted on: the document
    itself reads no wall clock.
    """
    return session_document(
        f"serve:{service.config.policy}",
        service,
        float(load_config.num_requests),
        service=service_block(service.config, virtual_clock),
        load=load_block(load_config),
        outcome=outcome_block(result),
    )


async def serve_session(
    config: ServiceConfig,
    load: LoadgenConfig,
    drain_grace_s: Optional[float],
    virtual_clock: bool = True,
) -> Tuple[LoadResult, Dict[str, Any]]:
    """One whole session — start, load, drain — and its report."""
    service = SchedulingService(config)
    result = await run_load(service, load, drain_grace_s=drain_grace_s)
    return result, serve_document(service, load, result, virtual_clock)


__all__ = [
    "load_block",
    "outcome_block",
    "serve_document",
    "serve_session",
    "service_block",
    "session_document",
]
