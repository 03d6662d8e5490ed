"""Self-healing drills: failover, supervised restart, hangs, disk death.

Four fault families, each asserting the availability contract the PR 8
issue sets out, on top of the shed-only drills in
``test_shard_chaos.py``:

* **cross-shard failover** — at ``shard_replication_factor = 2`` a
  SIGKILLed shard's keys are served by replica shards: *zero*
  ``shard_down`` terminal outcomes, availability >= 99.9%;
* **supervised recovery** — a scripted restart (and the barrier-entry
  sweep for terminal kills under ``supervise=True``) replays the dead
  worker's outbox; the restarted shard rejoins the live set within the
  run, asserted through its :class:`RecoveryReport` *and* its presence
  in the merged per-shard results, with first-wins request-id dedup
  proving no duplicate completions;
* **hangs** — a SIGSTOPped worker is alive but silent; the barrier's
  response timeout escalates it instead of wedging (the satellite
  regression this PR hardens the collection barrier against);
* **in-shard disk death** — a disk crash-stop under traffic drains its
  queue back through the scheduler onto surviving replicas, and only a
  key with *no* surviving in-shard replica is shed as the typed
  ``data_unavailable``.

Chaos runs are scripted on the schedule clock, so each drill is also
re-run and byte-compared: a fault-injected run is exactly as
reproducible as a healthy one.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.harness.schema import document_json, validate_bench_payload
from repro.serve.admission import Completed, Rejected, RejectReason
from repro.serve.loadgen import LoadgenConfig, tally_outcomes
from repro.serve.service import ServiceConfig
from repro.serve.shard import (
    ShardHang,
    ShardKill,
    ShardedServiceConfig,
    assign_data,
    run_sharded,
    sharded_document,
)
from repro.serve.shard.messages import ShardResult
from repro.serve.shard.router import _place_outcomes

LOAD = LoadgenConfig(num_requests=450, rate_per_s=300.0, num_clients=8, seed=5)

R1_CONFIG = ShardedServiceConfig(
    service=ServiceConfig(num_disks=18, seed=5), num_shards=3
)

R2_CONFIG = replace(R1_CONFIG, shard_replication_factor=2)

VICTIM = 1
KILL_AT_S = 0.5


def test_replicated_kill_fails_over_with_zero_shard_down() -> None:
    """The tentpole acceptance drill: R=2, one shard SIGKILLed mid-run."""
    run = run_sharded(
        R2_CONFIG, LOAD, kills=(ShardKill(shard_id=VICTIM, time_s=KILL_AT_S),)
    )
    assert run.shards_down == (VICTIM,)
    # Zero terminal shard_down outcomes: every key the dead shard owned
    # was served by (or shed from) its replica shard instead.
    reasons = [o.reason for o in run.outcomes if isinstance(o, Rejected)]
    assert RejectReason.SHARD_DOWN not in reasons
    assert run.availability >= 0.999
    # Failover actually happened and is visible in the result...
    assert run.requests_failed_over > 0
    assert run.failed_over_indices
    # ...and everything that travelled through failover was a key whose
    # primary owner is the dead shard.
    owners = assign_data(R2_CONFIG)
    for index in run.failed_over_indices:
        assert owners[run.outcomes[index].data_id] == VICTIM
    # The merged report stays schema-valid and records the new mode.
    document = sharded_document(R2_CONFIG, LOAD, run)
    validate_bench_payload(document)
    result = document["result"]
    assert result["deployment"]["shard_replication_factor"] == 2
    counters = result["metrics"]["counters"]
    assert counters["router.requests_failed_over"] == run.requests_failed_over
    assert result["recovery"]["requests_failed_over"] == len(
        run.failed_over_indices
    )
    histograms = result["metrics"]["histograms"]
    completed_over = sum(
        1
        for index in run.failed_over_indices
        if isinstance(run.outcomes[index], Completed)
    )
    assert histograms["failover.latency_s"]["count"] == completed_over


def test_replicated_kill_drill_is_reproducible() -> None:
    """Scripted chaos is deterministic: two runs, identical bytes."""
    kills = (ShardKill(shard_id=VICTIM, time_s=KILL_AT_S),)
    first = run_sharded(R2_CONFIG, LOAD, kills=kills)
    second = run_sharded(R2_CONFIG, LOAD, kills=kills)
    assert first.outcomes == second.outcomes
    assert first.failed_over_indices == second.failed_over_indices
    assert document_json(
        sharded_document(R2_CONFIG, LOAD, first)
    ) == document_json(sharded_document(R2_CONFIG, LOAD, second))


def test_scripted_recovery_replays_and_rejoins() -> None:
    """Kill at 0.5, restart at 1.0: the shard rejoins within the run."""
    run = run_sharded(
        R1_CONFIG,
        LOAD,
        kills=(
            ShardKill(shard_id=VICTIM, time_s=KILL_AT_S, recover_at_s=1.0),
        ),
        supervise=True,
    )
    # Rejoined: not down at the end, and its session result is present
    # in the merged per-shard results like any healthy shard's.
    assert run.shards_down == ()
    assert [r.shard_id for r in run.shard_results] == [0, 1, 2]
    assert run.availability == 1.0
    assert run.requests_lost == 0
    # The replay is visible: a typed report with the outbox re-send.
    assert len(run.recoveries) == 1
    report = run.recoveries[0]
    assert report.shard_id == VICTIM
    assert report.reason == "killed"
    assert report.spawn_attempts >= 1
    assert report.requests_replayed > 0
    assert report.requests_replayed == run.requests_replayed
    assert report.downtime_wall_s >= 0.0
    # First-wins request-id dedup: every schedule slot resolved exactly
    # once, nothing needed suppressing.
    assert run.duplicates_suppressed == 0
    assert report.duplicates_suppressed == 0
    assert len(run.outcomes) == LOAD.num_requests
    document = sharded_document(R1_CONFIG, LOAD, run)
    validate_bench_payload(document)
    recovery = document["result"]["recovery"]
    assert recovery["restarts"] == 1
    assert recovery["recovered_shards"] == [VICTIM]
    assert recovery["requests_replayed"] == run.requests_replayed
    counters = document["result"]["metrics"]["counters"]
    assert counters["recovery.restarts"] == 1
    assert counters["router.requests_replayed"] == run.requests_replayed


def test_kill_during_recovery_restarts_again_at_the_barrier() -> None:
    """The restarted incarnation is felled too; supervision still heals."""
    run = run_sharded(
        R1_CONFIG,
        LOAD,
        kills=(
            ShardKill(shard_id=VICTIM, time_s=0.3, recover_at_s=0.6),
            ShardKill(shard_id=VICTIM, time_s=0.9),
        ),
        supervise=True,
    )
    assert run.shards_down == ()
    assert run.availability == 1.0
    assert len(run.recoveries) == 2
    assert all(r.shard_id == VICTIM for r in run.recoveries)
    # The second (barrier-entry) replay covers the whole outbox, so it
    # is at least as large as the first.
    assert run.recoveries[1].requests_replayed >= (
        run.recoveries[0].requests_replayed
    )
    assert run.duplicates_suppressed == 0


def test_hung_worker_is_escalated_not_awaited() -> None:
    """SIGSTOP regression: silence must escalate, never wedge.

    Without supervision the escalated shard stays down and its keyspace
    is shed exactly like a kill — but *typed* and bounded, proving the
    barrier's response timeout fires on a worker that is alive and
    consuming nothing.
    """
    run = run_sharded(
        R1_CONFIG,
        LOAD,
        hangs=(ShardHang(shard_id=VICTIM, time_s=KILL_AT_S),),
        response_timeout_s=1.0,
        barrier_timeout_s=120.0,
    )
    assert run.shards_down == (VICTIM,)
    shed = [
        o
        for o in run.outcomes
        if isinstance(o, Rejected) and o.reason is RejectReason.SHARD_DOWN
    ]
    assert shed  # the hung shard's keyspace was shed, typed
    assert run.requests_lost == len(shed)
    assert run.recoveries == ()


def test_hung_worker_recovers_under_supervision() -> None:
    """SIGSTOP + supervise: escalated, restarted, replayed, no loss."""
    run = run_sharded(
        R1_CONFIG,
        LOAD,
        hangs=(ShardHang(shard_id=VICTIM, time_s=KILL_AT_S),),
        supervise=True,
        response_timeout_s=1.0,
        barrier_timeout_s=120.0,
    )
    assert run.shards_down == ()
    assert run.availability == 1.0
    assert len(run.recoveries) == 1
    assert run.recoveries[0].reason == "hung"
    assert run.recoveries[0].requests_replayed > 0
    assert run.duplicates_suppressed == 0


def test_place_outcomes_dedup_is_first_wins() -> None:
    """The merge-time request-id dedup, unit-tested directly."""
    outcome = Rejected(
        client_id="c",
        data_id=0,
        reason=RejectReason.QUEUE_FULL,
        rejected_s=0.0,
    )
    result = ShardResult(
        shard_id=0,
        indices=(2, 0),
        outcomes=(outcome, outcome),
        registry_dump={},
        document={},
        virtual_elapsed_s=0.0,
        compute_cpu_s=0.0,
        events_processed=0,
    )
    slots: "list[object]" = [None, None, None]
    assert _place_outcomes(slots, result) == 0  # type: ignore[arg-type]
    assert slots[0] is outcome and slots[2] is outcome and slots[1] is None
    # A replayed duplicate of the same slots is fully suppressed.
    assert _place_outcomes(slots, result) == 2  # type: ignore[arg-type]
    assert slots[0] is outcome and slots[2] is outcome


def test_disk_death_redispatches_onto_surviving_replicas() -> None:
    """One in-shard disk dies under traffic; replicas absorb it."""
    config = ShardedServiceConfig(
        service=ServiceConfig(
            num_disks=12,
            seed=5,
            disk_deaths=((0, 0.5),),  # shard 0, local disk 0
        ),
        num_shards=2,
    )
    run = run_sharded(config, LOAD)
    by_reason = dict(tally_outcomes(run.outcomes).rejected_by_reason)
    # In-shard replication (3 copies) absorbs a single disk death.
    assert by_reason.get("data_unavailable", 0) == 0
    assert run.shards_down == ()
    document = sharded_document(config, LOAD, run)
    validate_bench_payload(document)
    counters = document["result"]["metrics"]["counters"]
    assert counters["disks.failed"] == 1
    # Nothing completed on the dead disk after its death instant
    # (``disk_id`` in outcomes is shard-local; shard 0's local 0 is the
    # global disk 0 the script killed).
    owners = assign_data(config)
    for outcome in run.outcomes:
        if isinstance(outcome, Completed) and outcome.completed_s > 0.5:
            assert (owners[outcome.data_id], outcome.disk_id) != (0, 0)


def test_losing_every_replica_disk_sheds_typed_data_unavailable() -> None:
    """Kill shard 0's whole slice: its keys become ``data_unavailable``."""
    config = ShardedServiceConfig(
        service=ServiceConfig(
            num_disks=12,
            seed=5,
            disk_deaths=tuple((disk, 0.5) for disk in range(6)),
        ),
        num_shards=2,
    )
    run = run_sharded(config, LOAD)
    by_reason = dict(tally_outcomes(run.outcomes).rejected_by_reason)
    assert by_reason["data_unavailable"] > 0
    # The worker survived its disks: this is data loss, not shard loss.
    assert run.shards_down == ()
    document = sharded_document(config, LOAD, run)
    validate_bench_payload(document)
    counters = document["result"]["metrics"]["counters"]
    assert counters["disks.failed"] == 6
    assert counters["rejected.data_unavailable"] == (
        by_reason["data_unavailable"]
    )
