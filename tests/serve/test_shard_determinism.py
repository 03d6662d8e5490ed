"""The sharded determinism tier: serial ≡ multiprocess, digest pinned.

Three layers of the contract, in increasing strictness:

1. the same deployment run twice (multiprocess) is byte-identical;
2. the serial reference path and the multiprocess path produce
   byte-identical per-shard documents *and* merged document;
3. the merged document's SHA-256 for the canonical smoke parameters is
   pinned in the registry (:mod:`repro.experiments.pins`) — the same
   digest CI's ``shard-smoke`` job checks against a fresh CLI run, extending
   the byte-equality determinism tier in
   ``tests/experiments/test_determinism.py`` across the process
   boundary.

Any scheduling, placement, metrics or serialisation change that moves
a single byte of the merged report fails layer 3 loudly — update the
pinned digest deliberately, with the change that moved it.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import List

from repro.experiments import pins
from repro.experiments.harness.schema import document_json, validate_bench_payload
from repro.serve.admission import Outcome
from repro.serve.clock import virtual_run
from repro.serve.service import SchedulingService
from repro.serve.shard import (
    assign_data,
    build_topology,
    plan_messages,
    run_sharded,
    sharded_document,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The canonical smoke parameters live in the pin registry, next to the
#: pin files they produce; CI's ``shard-smoke`` job runs the same
#: deployments through the real CLI.
SMOKE_CONFIG = pins.SHARD_SMOKE_CONFIG
SMOKE_R2_CONFIG = pins.SHARD_SMOKE_R2_CONFIG
SMOKE_LOAD = pins.SHARD_SMOKE_LOAD


def test_multiprocess_run_is_byte_reproducible() -> None:
    first = run_sharded(SMOKE_CONFIG, SMOKE_LOAD)
    second = run_sharded(SMOKE_CONFIG, SMOKE_LOAD)
    assert first.outcomes == second.outcomes
    assert document_json(
        sharded_document(SMOKE_CONFIG, SMOKE_LOAD, first)
    ) == document_json(sharded_document(SMOKE_CONFIG, SMOKE_LOAD, second))


def test_serial_and_multiprocess_paths_are_byte_identical() -> None:
    serial = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=False)
    multi = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=True)
    assert serial.outcomes == multi.outcomes
    assert len(serial.shard_results) == SMOKE_CONFIG.num_shards
    for ours, theirs in zip(serial.shard_results, multi.shard_results):
        assert ours.shard_id == theirs.shard_id
        assert ours.indices == theirs.indices
        assert ours.outcomes == theirs.outcomes
        assert ours.registry_dump == theirs.registry_dump
        assert ours.virtual_elapsed_s == theirs.virtual_elapsed_s
        assert document_json(dict(ours.document)) == document_json(
            dict(theirs.document)
        )
    assert document_json(
        sharded_document(SMOKE_CONFIG, SMOKE_LOAD, serial)
    ) == document_json(sharded_document(SMOKE_CONFIG, SMOKE_LOAD, multi))


def test_merged_document_digest_matches_the_pinned_tier() -> None:
    validate_bench_payload(pins.shard_document(SMOKE_CONFIG))
    # A mismatch means the merged report changed bytes; if intentional,
    # regenerate the pin (see tests/serve/data/README.md).
    assert pins.main(["--check", "shard_smoke"], root=REPO_ROOT) == 0


def test_replicated_paths_are_byte_identical() -> None:
    """Layer 2 again, at ``shard_replication_factor = 2``."""
    serial = run_sharded(SMOKE_R2_CONFIG, SMOKE_LOAD, multiprocess=False)
    multi = run_sharded(SMOKE_R2_CONFIG, SMOKE_LOAD, multiprocess=True)
    assert serial.outcomes == multi.outcomes
    assert document_json(
        sharded_document(SMOKE_R2_CONFIG, SMOKE_LOAD, serial)
    ) == document_json(sharded_document(SMOKE_R2_CONFIG, SMOKE_LOAD, multi))
    # Healthy replicated run: nothing failed over, nothing replayed.
    assert multi.requests_failed_over == 0
    assert multi.requests_replayed == 0
    assert multi.recoveries == ()
    completed = sum(1 for outcome in multi.outcomes if outcome.accepted)
    assert multi.availability == completed / len(multi.outcomes)


def test_replicated_document_digest_matches_the_pinned_tier() -> None:
    document = pins.shard_document(SMOKE_R2_CONFIG)
    validate_bench_payload(document)
    deployment = document["result"]["deployment"]
    assert deployment["shard_replication_factor"] == 2
    assert "recovery" not in document["result"]
    assert pins.main(["--check", "shard_smoke_r2"], root=REPO_ROOT) == 0


def test_shard_worker_equals_an_independent_unsharded_service() -> None:
    """The tentpole contract, tested without the worker's own code.

    A plain :class:`SchedulingService` over shard 0's sub-fleet
    (its config, catalog and request sub-stream, driven by a session
    written here from scratch) must produce the exact outcomes the
    worker process reports for shard 0.
    """
    spec = build_topology(SMOKE_CONFIG)[0]
    table = assign_data(SMOKE_CONFIG)
    sub_stream = [
        message
        for message in plan_messages(SMOKE_CONFIG, SMOKE_LOAD)
        if table[message.data_id] == spec.shard_id
    ]

    async def session() -> List[Outcome]:
        service = SchedulingService(spec.service, catalog=spec.make_catalog())
        await service.start()
        loop = asyncio.get_running_loop()
        tasks: "List[asyncio.Task[Outcome]]" = []
        for message in sub_stream:
            await service.clock.sleep_until(message.arrival_s)
            tasks.append(
                loop.create_task(
                    service.submit(message.client_id, message.data_id)
                )
            )
        outcomes = list(await asyncio.gather(*tasks))
        await service.drain(grace_s=spec.drain_grace_s)
        return outcomes

    direct = virtual_run(session())
    run = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=True)
    assert tuple(direct) == run.shard_results[spec.shard_id].outcomes


def test_per_shard_reports_are_schema_valid() -> None:
    run = run_sharded(SMOKE_CONFIG, SMOKE_LOAD, multiprocess=False)
    for result in run.shard_results:
        validate_bench_payload(dict(result.document))
