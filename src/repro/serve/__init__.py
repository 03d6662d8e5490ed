"""repro.serve: the async energy-aware scheduling service.

The paper's schedulers, re-hosted behind a live request API: an asyncio
service with online and micro-batch dispatch policies, bounded-ingress
admission control, typed load shedding, graceful drain, live metrics,
and a deterministic virtual-clock mode for byte-reproducible sessions.
"""

from repro.serve.admission import (
    AdmissionController,
    Completed,
    Outcome,
    Rejected,
    RejectReason,
    TokenBucket,
)
from repro.serve.backend import SimBackend
from repro.serve.clock import ServiceClock, VirtualTimeLoop, virtual_run
from repro.serve.loadgen import (
    LoadgenConfig,
    LoadResult,
    run_closed_loop,
    run_load,
    run_open_loop,
)
from repro.serve.reporting import serve_document, serve_session
from repro.serve.service import (
    POLICIES,
    POLICY_MICRO_BATCH,
    POLICY_ONLINE,
    SchedulingService,
    ServiceConfig,
)

__all__ = [
    "POLICIES",
    "POLICY_MICRO_BATCH",
    "POLICY_ONLINE",
    "AdmissionController",
    "Completed",
    "LoadResult",
    "LoadgenConfig",
    "Outcome",
    "Rejected",
    "RejectReason",
    "SchedulingService",
    "ServiceClock",
    "ServiceConfig",
    "SimBackend",
    "TokenBucket",
    "VirtualTimeLoop",
    "run_closed_loop",
    "run_load",
    "run_open_loop",
    "serve_document",
    "serve_session",
    "virtual_run",
]
