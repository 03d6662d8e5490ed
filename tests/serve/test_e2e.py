"""End-to-end acceptance tests for the serving stack.

Drives >= 10k requests through SchedulingService under the virtual
clock in both dispatch modes and asserts the PR's acceptance criteria:

1. two same-seed runs produce byte-identical report documents,
2. micro-batching yields lower energy than online dispatch at the
   same arrival rate, and
3. overload against a bounded ingress queue sheds load with typed
   rejections rather than hanging or crashing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

from repro.experiments import pins
from repro.experiments.harness.schema import validate_bench_payload
from repro.serve.admission import RejectReason, Rejected
from repro.serve.clock import virtual_run
from repro.serve.loadgen import LoadgenConfig, LoadResult, run_load
from repro.serve.reporting import serve_document
from repro.serve.service import SchedulingService, ServiceConfig

NUM_REQUESTS = 10_000
RATE_PER_S = 100.0
DRAIN_GRACE_S = 2.0

LOAD = LoadgenConfig(num_requests=NUM_REQUESTS, rate_per_s=RATE_PER_S, seed=7)

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_policy(policy: str) -> Dict[str, Any]:
    """Run one full session and return its canonical report document."""
    service = SchedulingService(
        ServiceConfig(policy=policy, seed=3, window_s=1.0)
    )

    async def go() -> LoadResult:
        return await run_load(service, LOAD, drain_grace_s=DRAIN_GRACE_S)

    result = virtual_run(go())
    return serve_document(service, LOAD, result, virtual_clock=True)


class TestAcceptance:
    """One shared run per policy; every criterion checks those runs."""

    documents: Dict[str, Dict[str, Any]] = {}

    @classmethod
    def setup_class(cls) -> None:
        cls.documents = {
            policy: run_policy(policy)
            for policy in ("online", "micro-batch")
        }

    def test_all_requests_complete_in_both_modes(self) -> None:
        for policy, document in self.documents.items():
            outcome = document["result"]["outcome"]
            assert outcome["offered"] == NUM_REQUESTS, policy
            assert outcome["completed"] == NUM_REQUESTS, policy
            assert outcome["rejected"] == 0, policy

    def test_reports_validate_against_bench_schema(self) -> None:
        for document in self.documents.values():
            assert validate_bench_payload(document) == []

    def test_same_seed_runs_are_byte_identical(self) -> None:
        for policy, document in self.documents.items():
            repeat = run_policy(policy)
            first = json.dumps(document, sort_keys=True)
            second = json.dumps(repeat, sort_keys=True)
            assert first == second, policy

    def test_micro_batching_saves_energy_at_equal_load(self) -> None:
        def energy_j(policy: str) -> float:
            gauges = self.documents[policy]["result"]["metrics"]["gauges"]
            joules = gauges["energy.joules"]
            assert isinstance(joules, float)
            return joules

        online_j = energy_j("online")
        batch_j = energy_j("micro-batch")
        assert batch_j < online_j
        # The measured gap at this operating point is ~5%; require at
        # least 2% so the assertion is meaningful, not a coin flip.
        assert (online_j - batch_j) / online_j > 0.02

    def test_virtual_clock_reports_are_wall_free(self) -> None:
        for document in self.documents.values():
            assert document["created_unix"] == 0.0
            assert document["peak_rss_bytes"] is None
            assert document["wall_clock_s"] > 90.0  # ~100 s of virtual time


def test_overload_sheds_with_typed_rejections() -> None:
    """A bounded queue under a >10x overload rejects the excess with
    QUEUE_FULL while still completing what it admitted."""
    service = SchedulingService(
        ServiceConfig(
            policy="micro-batch",
            seed=3,
            window_s=1.0,
            queue_limit=32,
        )
    )
    load = LoadgenConfig(num_requests=2_000, rate_per_s=5_000.0, seed=7)

    async def go() -> LoadResult:
        return await run_load(service, load, drain_grace_s=DRAIN_GRACE_S)

    result = virtual_run(go())
    assert result.offered == 2_000
    assert result.completed + result.rejected == 2_000
    assert result.rejected > 1_000  # overload, most load is shed
    assert result.completed >= 32  # but admitted work still finishes
    for outcome in result.outcomes:
        if isinstance(outcome, Rejected):
            assert outcome.reason is RejectReason.QUEUE_FULL
    snap = service.metrics_snapshot()
    assert snap["counters"]["requests.rejected"] == result.rejected
    assert snap["counters"]["rejected.queue_full"] == result.rejected


def test_serve_smoke_documents_match_their_pins() -> None:
    """CI's serve-smoke session, in-process, against its committed pins
    (the CLI's written documents are checked against the same files)."""
    for policy in ("online", "micro-batch"):
        assert validate_bench_payload(pins.serve_smoke_document(policy)) == []
    assert (
        pins.main(["--check", "serve_online", "serve_micro_batch"], root=REPO_ROOT)
        == 0
    )
