"""Per-shard and merged ``repro-bench/1`` documents for sharded runs.

Both document shapes here are **fully deterministic**: wall-clock
readings (worker compute time, router overhead) deliberately stay out
of the documents and live on :class:`~repro.serve.shard.router.\
ShardedRunResult` instead, so the merged report digest can be pinned in
the determinism tier and compared byte-for-byte between the serial and
multiprocess execution paths. ``wall_clock_s`` records elapsed
*virtual* seconds, exactly like the unsharded serve report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.experiments.harness.schema import bench_document, document_digest
from repro.serve.admission import Completed, Rejected, RejectReason
from repro.serve.loadgen import LoadgenConfig, LoadResult, tally_outcomes
from repro.serve.reporting import load_block, outcome_block, service_block, session_document
from repro.serve.service import SchedulingService
from repro.serve.shard.topology import ShardSpec, ShardedServiceConfig
from repro.sim.metrics import MetricsRegistry, merge_dumps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (router imports us)
    from repro.serve.shard.router import ShardedRunResult


def shard_document(
    spec: ShardSpec, service: SchedulingService, result: LoadResult
) -> Dict[str, Any]:
    """One shard's own schema-valid report (virtual-clock fields only).

    Call after the shard drained, while its loop-bound clock is live.
    This is the document the determinism tier compares against an
    unsharded run over the same sub-fleet — hence no wall readings and
    ``created_unix = 0.0``.
    """
    return session_document(
        f"serve-shard:{spec.service.policy}:s{spec.shard_id:02d}",
        service,
        float(max(result.offered, 1)),
        shard={
            "shard_id": spec.shard_id,
            "num_shards_hint": None,
            "data_ids_owned": len(spec.data_ids),
            "global_disk_ids": list(spec.global_disk_ids),
        },
        service=service_block(spec.service, virtual_clock=True),
        outcome=outcome_block(result),
    )


def sharded_document(
    config: ShardedServiceConfig,
    load: LoadgenConfig,
    run: "ShardedRunResult",
) -> Dict[str, Any]:
    """The merged deployment report: one schema-valid document.

    Folds every shard's full-fidelity registry dump into one merged
    :class:`~repro.sim.metrics.MetricsRegistry` (counters summed, raw
    histogram samples re-observed, ``time.now_s`` maxed) and layers the
    router's own view on top: global outcome tally, per-shard summaries
    with their report digests, and the chaos record of shards lost
    mid-run. Wall-clock scaling numbers are *not* here — see the module
    docstring.

    Replication and recovery blocks appear only in the modes that
    produce them (``shard_replication_factor > 1``; any restart,
    failover or replay happened), so the replication-factor-1 document
    — and its pinned digest — is byte-identical to earlier releases.
    Everything in those blocks is a deterministic function of the
    topology and the chaos script; wall-clock recovery measurements
    (downtime, spawn attempts) stay on :class:`RecoveryReport`.
    """
    service = config.service
    merged = merge_dumps([r.registry_dump for r in run.shard_results])
    _fold_router_counters(merged, run)
    deployment: Dict[str, Any] = {
        "policy": service.policy,
        "num_shards": config.num_shards,
        "num_disks": service.num_disks,
        "replication_factor": service.replication_factor,
        "num_data": service.num_data,
        "vnodes": config.vnodes,
        "virtual_clock": True,
    }
    if config.shard_replication_factor > 1:
        deployment["shard_replication_factor"] = (
            config.shard_replication_factor
        )
    extra: Dict[str, Any] = {}
    if run.recoveries or run.failed_over_indices or run.requests_replayed:
        extra["recovery"] = {
            "restarts": len(run.recoveries),
            "recovered_shards": sorted(
                {report.shard_id for report in run.recoveries}
            ),
            "requests_replayed": run.requests_replayed,
            "requests_failed_over": len(run.failed_over_indices),
        }
    return bench_document(
        f"serve-sharded:{service.policy}",
        scale=float(load.num_requests),
        seed=service.seed,
        jobs=config.num_shards,
        wall_clock_s=max(
            (r.virtual_elapsed_s for r in run.shard_results), default=0.0
        ),
        events_processed=sum(r.events_processed for r in run.shard_results),
        result={
            "deployment": deployment,
            "load": load_block(load),
            "outcome": outcome_block(tally_outcomes(run.outcomes)),
            "chaos": {
                "shards_down": list(run.shards_down),
                "requests_lost": run.requests_lost,
            },
            "shards": [
                {
                    "shard_id": result.shard_id,
                    "offered": len(result.indices),
                    "completed": sum(1 for o in result.outcomes if o.accepted),
                    "events_processed": result.events_processed,
                    "virtual_elapsed_s": result.virtual_elapsed_s,
                    "document_sha256": document_digest(result.document),
                }
                for result in run.shard_results  # shard-id order
            ],
            "metrics": merged.snapshot(),
            **extra,
        },
    )


def _fold_router_counters(
    registry: MetricsRegistry, run: "ShardedRunResult"
) -> None:
    """Layer the router's own counters onto the merged registry.

    Shed-at-router requests (dead shard's keyspace, or a replica chain
    that died whole) never reached a worker, so they exist only here;
    folding them in keeps the merged ``requests.*`` counters consistent
    with the global outcome tally.

    Every metric added here is a deterministic function of the chaos
    script, so pinned digests stay valid — which is also why the
    race-dependent dedup count (``duplicates_suppressed``) is *never*
    folded: it lives on :class:`ShardedRunResult` only. New-mode
    metrics (failover, replay) appear only when nonzero, keeping the
    replication-factor-1 document byte-identical to earlier releases.
    """
    shed = run.requests_lost
    shard_down = sum(
        1
        for outcome in run.outcomes
        if isinstance(outcome, Rejected)
        and outcome.reason is RejectReason.SHARD_DOWN
    )
    if shed:
        registry.counter("requests.offered").inc(shed)
        registry.counter("requests.rejected").inc(shed)
        if shard_down:
            registry.counter("rejected.shard_down").inc(shard_down)
        if shed - shard_down:
            registry.counter("rejected.failed_over").inc(shed - shard_down)
    registry.counter("router.requests_routed").inc(len(run.outcomes) - shed)
    registry.counter("router.requests_shed").inc(shed)
    if run.failed_over_indices:
        registry.counter("router.requests_failed_over").inc(
            len(run.failed_over_indices)
        )
        survived = (run.outcomes[index] for index in run.failed_over_indices)
        registry.histogram("failover.latency_s").observe_many(
            outcome.response_time_s
            for outcome in survived
            if isinstance(outcome, Completed)
        )
    if run.requests_replayed:
        registry.counter("router.requests_replayed").inc(
            run.requests_replayed
        )
    if run.recoveries:
        registry.counter("recovery.restarts").inc(len(run.recoveries))


__all__ = [
    "shard_document",
    "sharded_document",
]
