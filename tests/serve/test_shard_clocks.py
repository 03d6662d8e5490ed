"""Regression tier: virtual clocks are per-process, never shared.

PR 5's drain deadline implicitly assumed one process, one
:class:`VirtualTimeLoop`. Sharding breaks that assumption on purpose:
every worker owns its own virtual timeline, and the router's collection
barrier must synchronise on *queues and liveness only* — if it ever
waited on a cross-shard clock, two shards with wildly different virtual
horizons would deadlock it (the fast shard's clock can never "catch up"
to the slow one's, because there is nothing connecting them).

These tests pin that down with two shards whose horizons differ by
~1000x: both must drain, in-process and across real worker processes,
and the merged ``time.now_s`` gauge must be the *max* across shards
(a sum or an average would be meaningless across independent clocks).
"""

from __future__ import annotations

import multiprocessing
from typing import List

from repro.serve.loadgen import LoadgenConfig
from repro.serve.service import ServiceConfig
from repro.serve.shard import (
    ShardRequest,
    ShardedServiceConfig,
    build_topology,
    run_shard_session,
    run_sharded,
    sharded_document,
)
from repro.serve.shard.messages import ShardProgress, ShardResult
from repro.serve.shard.worker import shard_worker_main

CONFIG = ShardedServiceConfig(
    service=ServiceConfig(num_disks=12, seed=11), num_shards=2
)

#: Virtual horizons of the two hand-crafted streams, seconds. The slow
#: shard's last arrival lands ~1000x beyond the fast shard's.
FAST_HORIZON_S = 1.0
SLOW_HORIZON_S = 1_000.0


def _stream(shard_id: int, horizon_s: float, count: int) -> List[ShardRequest]:
    """``count`` arrivals spread over ``[0, horizon_s]`` on one shard,
    addressing only data ids that shard owns."""
    spec = build_topology(CONFIG)[shard_id]
    return [
        ShardRequest(
            index=position,
            arrival_s=horizon_s * position / count,
            client_id=f"clock-{shard_id}",
            data_id=spec.data_ids[position % len(spec.data_ids)],
        )
        for position in range(count)
    ]


def test_virtual_clocks_are_per_session() -> None:
    """Two sessions in one process keep fully independent timelines."""
    specs = build_topology(CONFIG)
    slow = run_shard_session(specs[0], _stream(0, SLOW_HORIZON_S, 40))
    fast = run_shard_session(specs[1], _stream(1, FAST_HORIZON_S, 40))
    assert slow.virtual_elapsed_s >= SLOW_HORIZON_S * 0.9
    # The fast session starts from virtual zero again: the slow
    # session's horizon must not leak into it through any shared loop
    # or clock state. (Its elapsed exceeds its 1 s arrival horizon by a
    # queue-drain tail, but stays orders of magnitude under the slow
    # shard's 1000 s.)
    assert fast.virtual_elapsed_s < SLOW_HORIZON_S * 0.1
    assert slow.virtual_elapsed_s / fast.virtual_elapsed_s > 10.0
    assert len(slow.outcomes) == len(fast.outcomes) == 40


def _result(response_q: "multiprocessing.queues.Queue[object]") -> ShardResult:
    """Next non-heartbeat reply off a worker's response queue."""
    while True:
        reply = response_q.get(timeout=60)
        if isinstance(reply, ShardProgress):
            continue
        assert isinstance(reply, ShardResult)
        return reply


def test_skewed_horizons_do_not_wedge_the_barrier() -> None:
    """Real worker processes with ~1000x horizon skew both reply.

    The regression this guards: a barrier that waited for shards to
    reach a common virtual instant would hang here forever, because the
    fast shard's clock stops at ~1 s while the slow shard's runs to
    ~1000 s. The actual barrier waits on response queues + liveness,
    so both replies arrive promptly (virtual time costs no wall time).
    """
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    specs = build_topology(CONFIG)
    streams = [_stream(0, SLOW_HORIZON_S, 30), _stream(1, FAST_HORIZON_S, 30)]
    request_qs = [context.Queue() for _ in specs]
    response_qs = [context.Queue() for _ in specs]
    processes = [
        context.Process(
            target=shard_worker_main,
            args=(spec, request_qs[shard_id], response_qs[shard_id]),
            daemon=True,
        )
        for shard_id, spec in enumerate(specs)
    ]
    try:
        for process in processes:
            process.start()
        for shard_id, stream in enumerate(streams):
            request_qs[shard_id].put(stream)
            request_qs[shard_id].put(None)
        # A generous wall bound: if the barrier semantics regressed to
        # clock-coupling, this get would hang and the timeout fails the
        # test instead of wedging the suite. Heartbeats precede the
        # result on the response queue; skip past them.
        replies = [_result(response_qs[shard_id]) for shard_id in (0, 1)]
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
            process.join()
        for q in request_qs + response_qs:
            q.close()
            q.cancel_join_thread()
    assert replies[0].virtual_elapsed_s >= SLOW_HORIZON_S * 0.9
    assert replies[1].virtual_elapsed_s < SLOW_HORIZON_S * 0.1
    assert len(replies[0].outcomes) == len(replies[1].outcomes) == 30


def test_merged_now_s_gauge_is_the_max_across_shards() -> None:
    """``time.now_s`` merges by max — the deployment's horizon is the
    slowest shard's horizon, not the sum of unrelated clocks."""
    load = LoadgenConfig(num_requests=300, rate_per_s=200.0, seed=11)
    run = run_sharded(CONFIG, load, multiprocess=False)
    per_shard_now = [
        result.registry_dump["gauges"]["time.now_s"]
        for result in run.shard_results
    ]
    document = sharded_document(CONFIG, load, run)
    merged_now = document["result"]["metrics"]["gauges"]["time.now_s"]
    assert merged_now == max(per_shard_now)
    assert merged_now == max(r.virtual_elapsed_s for r in run.shard_results)
