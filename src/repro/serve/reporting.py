"""Serve-session reports in the ``repro-bench/1`` document schema.

A serving run produces the same kind of artifact as an offline bench: a
single JSON document that CI can validate with
:func:`repro.experiments.harness.schema.validate_bench_payload` and diff
across commits. Under the virtual clock the document is **byte
reproducible** — wall-clock-dependent fields are pinned (``created_unix
= 0.0``, ``peak_rss_bytes = null``) and ``wall_clock_s`` records elapsed
*virtual* seconds, which are themselves deterministic.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Union

from repro.experiments.harness.schema import BENCH_SCHEMA
from repro.perf.profiler import peak_rss_bytes
from repro.serve.loadgen import LoadgenConfig, LoadResult
from repro.serve.service import SchedulingService


def serve_document(
    service: SchedulingService,
    load_config: LoadgenConfig,
    result: LoadResult,
    virtual_clock: bool,
) -> Dict[str, Any]:
    """Assemble the bench-schema document for one finished session.

    Call after :meth:`~repro.serve.service.SchedulingService.drain` —
    the snapshot then covers the whole session including final idle
    energy. ``virtual_clock`` selects reproducible stand-ins for the
    wall-only fields.
    """
    config = service.config
    backend = service.backend
    elapsed_s = service.clock.now
    snapshot = service.metrics_snapshot()
    events = backend.events_processed
    return {
        "schema": BENCH_SCHEMA,
        "bench": f"serve:{config.policy}",
        "created_unix": 0.0 if virtual_clock else time.time(),
        "scale": float(load_config.num_requests),
        "mwis_scale": 1.0,
        "seed": config.seed,
        "jobs": 1,
        "wall_clock_s": elapsed_s,
        "events_processed": events,
        "events_per_sec": events / elapsed_s if elapsed_s > 0 else 0.0,
        "peak_rss_bytes": None if virtual_clock else peak_rss_bytes(),
        "cache": {
            "enabled": False,
            "hits": 0,
            "misses": 0,
            "corrupt": 0,
            "hit_rate": 0.0,
        },
        "points": [],
        "result": {
            "service": {
                "policy": config.policy,
                "num_disks": config.num_disks,
                "replication_factor": config.replication_factor,
                "num_data": config.num_data,
                "queue_limit": config.queue_limit,
                "client_rate_per_s": config.client_rate_per_s,
                "window_s": config.window_s,
                "max_batch": config.max_batch,
                "virtual_clock": virtual_clock,
            },
            "load": {
                "num_requests": load_config.num_requests,
                "rate_per_s": load_config.rate_per_s,
                "num_clients": load_config.num_clients,
                "arrival": load_config.arrival,
                "loop": load_config.loop,
                "seed": load_config.seed,
            },
            "outcome": {
                "offered": result.offered,
                "completed": result.completed,
                "rejected": result.rejected,
                "rejected_by_reason": dict(result.rejected_by_reason),
                "completed_fraction": result.completed_fraction,
            },
            "metrics": snapshot,
        },
    }


def write_serve_document(
    document: Dict[str, Any], path: Union[str, Path]
) -> Path:
    """Write ``document`` as canonical (sorted, indented) JSON."""
    target = Path(path)
    target.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return target


__all__ = ["serve_document", "write_serve_document"]
