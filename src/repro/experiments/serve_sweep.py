"""Serve sweep: online vs micro-batch dispatch across arrival rates.

The serving-layer reading of the paper's central comparison (Figs. 5-7):
the same two non-clairvoyant schedulers, but driven by live Poisson
arrivals through :class:`~repro.serve.service.SchedulingService` instead
of a replayed trace. Every cell is one deterministic virtual-clock
session, so the sweep is byte-reproducible at a fixed seed.

Expected curve shapes:

* energy per request *falls* with the arrival rate for both policies
  (spin-up cost and idle power amortise over more requests);
* micro-batch spends less energy than online at moderate-to-high rates —
  whole windows dispatch through the weighted-set-cover model, which
  concentrates load on fewer disks and lets the rest sleep;
* micro-batch pays for it in response time: p95 grows by roughly the
  window length, the same latency-for-energy trade the paper's batch
  model makes against its online model;
* the completed fraction stays at 1.0 everywhere below saturation —
  admission control only sheds load under overload, which this sweep
  stays clear of.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments import common
from repro.experiments.ablations import AblationResult, Panel
from repro.serve.clock import virtual_run
from repro.serve.loadgen import LoadgenConfig, LoadResult, run_load
from repro.serve.service import POLICIES, SchedulingService, ServiceConfig

#: Mean Poisson arrival rates (requests/second) of the sweep columns.
SERVE_RATES_PER_S: Tuple[float, ...] = (50.0, 100.0, 200.0)

#: Requests per cell: long enough that spin decisions dominate noise,
#: short enough that the whole sweep stays a few wall-seconds.
SERVE_REQUESTS = 4_000

#: Micro-batch window (seconds) of the sweep's batch column — the regime
#: where batching visibly beats per-request dispatch on energy.
SERVE_WINDOW_S = 1.0

#: Drain grace (seconds): bounds the final partial window at shutdown.
SERVE_DRAIN_GRACE_S = 2.0


def _run_cell(
    policy: str, rate_per_s: float, num_requests: int, seed: int
) -> Tuple[LoadResult, SchedulingService]:
    service = SchedulingService(
        ServiceConfig(policy=policy, seed=seed, window_s=SERVE_WINDOW_S)
    )
    load = LoadgenConfig(
        num_requests=num_requests, rate_per_s=rate_per_s, seed=seed * 31 + 7
    )

    async def go() -> LoadResult:
        return await run_load(service, load, drain_grace_s=SERVE_DRAIN_GRACE_S)

    return virtual_run(go()), service


def run_serve_sweep(
    rates: Sequence[float] = SERVE_RATES_PER_S,
) -> AblationResult:
    """Sweep arrival rates across both serving policies.

    The campaign's scale multiplies the per-cell request count and its
    seed is the service + workload base seed.

    Args:
        rates: Mean Poisson arrival rates in requests/second.
    """
    scale, seed = common.knobs()
    num_requests = max(1, round(SERVE_REQUESTS * scale))
    energy_per_request: Dict[str, List[float]] = {}
    p95_response_s: Dict[str, List[float]] = {}
    completed_fraction: Dict[str, List[float]] = {}
    events = 0
    for policy in POLICIES:
        energy_per_request[policy] = []
        p95_response_s[policy] = []
        completed_fraction[policy] = []
        for rate in rates:
            result, service = _run_cell(policy, rate, num_requests, seed)
            snapshot = service.metrics_snapshot()
            events += service.backend.events_processed
            gauges = snapshot["gauges"]
            histograms = snapshot["histograms"]
            joules = float(gauges["energy.joules"])  # type: ignore[arg-type]
            completed = max(1, result.completed)
            energy_per_request[policy].append(joules / completed)
            response = histograms["response_s"]
            assert isinstance(response, dict)
            p95_response_s[policy].append(float(response["p95"]))
            completed_fraction[policy].append(result.completed_fraction)
    return AblationResult(
        ablation_id="serve_sweep",
        title=(
            f"serve sweep (poisson arrivals, {num_requests} requests, "
            f"window {SERVE_WINDOW_S}s, virtual clock)"
        ),
        panels=[
            Panel(
                name="serve sweep: energy per completed request (J)",
                x_label="arrivals/s",
                x_values=list(rates),
                series=energy_per_request,
                precision=3,
            ),
            Panel(
                name="serve sweep: p95 response time (s)",
                x_label="arrivals/s",
                x_values=list(rates),
                series=p95_response_s,
                precision=4,
            ),
            Panel(
                name="serve sweep: completed fraction of offered",
                x_label="arrivals/s",
                x_values=list(rates),
                series=completed_fraction,
                precision=4,
            ),
        ],
        events_processed=events,
    )


__all__ = [
    "SERVE_RATES_PER_S",
    "SERVE_REQUESTS",
    "SERVE_WINDOW_S",
    "run_serve_sweep",
]
