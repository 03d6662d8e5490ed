"""Chaos e2e: SIGKILL one shard worker mid-traffic.

The sharded reading of the ``repro.faults`` drill idiom: the failure is
scripted (a :class:`ShardKill` at a fixed schedule instant), so the
degraded run is as reproducible as a healthy one. The drill asserts the
blast radius precisely:

* only the victim's keyspace is shed, every shed outcome typed
  ``shard_down``;
* survivors' keyspaces complete at 1.0 — no collateral damage;
* total lost requests are bounded by the victim's keyspace traffic;
* the merged report stays schema-valid and records the loss.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness.schema import validate_bench_payload
from repro.serve.admission import Completed, Rejected, RejectReason
from repro.serve.loadgen import LoadgenConfig
from repro.serve.service import ServiceConfig
from repro.serve.shard import (
    ShardKill,
    ShardedServiceConfig,
    assign_data,
    run_sharded,
    sharded_document,
)

CONFIG = ShardedServiceConfig(
    service=ServiceConfig(num_disks=18, seed=5), num_shards=3
)
LOAD = LoadgenConfig(num_requests=450, rate_per_s=300.0, num_clients=8, seed=5)
VICTIM = 1
KILL_AT_S = 0.5


def _owned_by(shard_id: int) -> set:
    table = assign_data(CONFIG)
    return {
        data_id
        for data_id in sorted(range(CONFIG.service.num_data))
        if table[data_id] == shard_id
    }


def test_killing_one_shard_sheds_only_its_keyspace() -> None:
    run = run_sharded(
        CONFIG, LOAD, kills=[ShardKill(shard_id=VICTIM, time_s=KILL_AT_S)]
    )
    assert run.shards_down == (VICTIM,)
    assert [r.shard_id for r in run.shard_results] == [0, 2]

    victim_keys = _owned_by(VICTIM)
    shed = [
        outcome
        for outcome in run.outcomes
        if isinstance(outcome, Rejected)
        and outcome.reason is RejectReason.SHARD_DOWN
    ]
    # Typed shard_down outcomes, and nothing shed outside the victim's
    # keyspace.
    assert shed, "the drill must actually shed something"
    for outcome in shed:
        assert outcome.data_id in victim_keys
    # No other rejection kinds anywhere (the workload is below
    # saturation), so survivors completed their keyspaces at 1.0.
    for outcome in run.outcomes:
        if isinstance(outcome, Rejected):
            assert outcome.reason is RejectReason.SHARD_DOWN
        else:
            assert isinstance(outcome, Completed)
            assert outcome.data_id not in victim_keys

    # Lost requests are bounded by the victim's total keyspace traffic;
    # requests the victim completed before the kill never reached it
    # anyway (the whole schedule routes up front), so here the bound is
    # exact.
    victim_traffic = sum(
        1 for o in run.outcomes if o.data_id in victim_keys
    )
    assert run.requests_lost == len(shed) == victim_traffic
    assert run.requests_lost < len(run.outcomes)


def test_chaos_report_is_schema_valid_and_records_the_loss() -> None:
    run = run_sharded(
        CONFIG, LOAD, kills=[ShardKill(shard_id=VICTIM, time_s=KILL_AT_S)]
    )
    document = sharded_document(CONFIG, LOAD, run)
    validate_bench_payload(document)
    result = document["result"]
    assert result["chaos"] == {
        "shards_down": [VICTIM],
        "requests_lost": run.requests_lost,
    }
    assert (
        result["outcome"]["rejected_by_reason"]["shard_down"]
        == run.requests_lost
    )
    # The merged registry folds the router-shed requests in, so the
    # global counters still balance.
    counters = result["metrics"]["counters"]
    assert counters["requests.offered"] == LOAD.num_requests
    assert counters["rejected.shard_down"] == run.requests_lost
    assert (
        counters["requests.completed"] + counters["requests.rejected"]
        == LOAD.num_requests
    )


def test_chaos_drill_is_reproducible() -> None:
    kills = [ShardKill(shard_id=VICTIM, time_s=KILL_AT_S)]
    first = run_sharded(CONFIG, LOAD, kills=kills)
    second = run_sharded(CONFIG, LOAD, kills=kills)
    assert first.outcomes == second.outcomes
    assert first.shards_down == second.shards_down
    assert first.requests_lost == second.requests_lost


def test_kill_validation() -> None:
    with pytest.raises(ConfigurationError):
        run_sharded(
            CONFIG,
            LOAD,
            multiprocess=False,
            kills=[ShardKill(shard_id=0, time_s=0.1)],
        )
    with pytest.raises(ConfigurationError):
        run_sharded(CONFIG, LOAD, kills=[ShardKill(shard_id=9, time_s=0.1)])
    with pytest.raises(ConfigurationError):
        run_sharded(
            CONFIG,
            LOAD,
            kills=[
                ShardKill(shard_id=0, time_s=0.1),
                ShardKill(shard_id=0, time_s=0.2),
            ],
        )
    with pytest.raises(ConfigurationError):
        run_sharded(
            CONFIG,
            LOAD,
            kills=[
                ShardKill(shard_id=s, time_s=0.1)
                for s in range(CONFIG.num_shards)
            ],
        )