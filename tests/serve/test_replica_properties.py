"""Property tests for cross-shard replica placement and failover order.

The contracts the self-healing router leans on:

* :func:`replica_table` places every data id on exactly
  ``shard_replication_factor`` *distinct* shards whenever the
  deployment has at least that many shards, with the primary owner
  (:func:`assign_data`'s answer) first;
* the failover order is a pure function of the deployment config —
  stable across processes (no per-process ``hash()``) and across
  live-set changes (a key never re-targets because some *other* shard
  died);
* the ring's live-aware ``lookup`` and its ``successors`` chain agree:
  looking a key up against any live set returns the first live entry
  of the key's successor chain, which is exactly the router's
  first-live-replica rule.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.service import ServiceConfig
from repro.serve.shard.ring import HashRing
from repro.serve.shard.topology import (
    ShardedServiceConfig,
    assign_data,
    replica_table,
)

KEYS = st.integers(min_value=0, max_value=100_000)


def _config(num_shards: int, factor: int, seed: int) -> ShardedServiceConfig:
    # 3 disks per shard keeps the smallest shard >= the in-shard
    # replication factor at every deployment width drawn below.
    return ShardedServiceConfig(
        service=ServiceConfig(num_disks=3 * num_shards, num_data=200, seed=seed),
        num_shards=num_shards,
        shard_replication_factor=factor,
    )


@given(
    num_shards=st.integers(min_value=1, max_value=8),
    factor=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=50, deadline=None)
def test_replicas_land_on_distinct_shards_primary_first(
    num_shards: int, factor: int, seed: int
) -> None:
    factor = min(factor, num_shards)  # config validates factor <= N
    config = _config(num_shards, factor, seed)
    owners = assign_data(config)
    table = replica_table(config, owners)
    assert len(table) == config.service.num_data
    for data_id, chain in enumerate(table):
        assert len(chain) == factor
        assert len(set(chain)) == factor  # R *distinct* shards
        assert chain[0] == owners[data_id]  # primary is untouched
        assert all(0 <= shard < num_shards for shard in chain)


@given(
    num_shards=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31),
    key=KEYS,
    dead_mask=st.integers(min_value=0, max_value=2**8 - 2),
)
@settings(max_examples=200, deadline=None)
def test_live_lookup_is_the_first_live_successor(
    num_shards: int, seed: int, key: int, dead_mask: int
) -> None:
    """``lookup(key, live)`` == first live entry of ``successors(key)``.

    This identity is what makes the router's failover deterministic
    *and* stable: the successor chain never depends on the live set, so
    a key's failover target moves only when a shard **on its own
    chain** changes state.
    """
    ring = HashRing(num_shards, vnodes=16, seed=seed)
    live = [s for s in range(num_shards) if not dead_mask & (1 << s)]
    if not live:
        return  # lookup validates against an empty live set
    chain = ring.successors(key)
    assert sorted(chain) == list(range(num_shards))  # a permutation
    assert chain[0] == ring.lookup(key)
    expected = next(s for s in chain if s in live)
    assert ring.lookup(key, live=live) == expected


@given(
    num_shards=st.integers(min_value=2, max_value=6),
    factor=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**20),
    data_id=st.integers(min_value=0, max_value=199),
    other=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_failover_target_ignores_unrelated_deaths(
    num_shards: int, factor: int, seed: int, data_id: int, other: int
) -> None:
    """Killing a shard *not* on a key's chain never moves the key."""
    factor = min(factor, num_shards)
    config = _config(num_shards, factor, seed)
    chain = replica_table(config)[data_id]
    victim = other % num_shards
    if victim in chain:
        return
    live_all = set(range(num_shards))
    live_without = live_all - {victim}
    pick = lambda live: next(s for s in chain if s in live)  # noqa: E731
    assert pick(live_all) == pick(live_without)


def _table_in_subprocess(
    args: "tuple[int, int, int]",
) -> List[Tuple[int, ...]]:
    """Module-level so ProcessPoolExecutor can pickle it (spawn-safe)."""
    num_shards, factor, seed = args
    return replica_table(_config(num_shards, factor, seed))


def test_failover_order_is_stable_across_processes() -> None:
    """A fresh process (fresh ``PYTHONHASHSEED``) derives the same
    replica table, so router and restarted workers can never disagree
    about failover priority."""
    args = (5, 3, 42)
    local = _table_in_subprocess(args)
    with ProcessPoolExecutor(max_workers=1) as pool:
        remote = pool.submit(_table_in_subprocess, args).result()
    assert remote == local


def test_r1_table_is_exactly_the_routing_table() -> None:
    """The replication machinery is invisible at R=1 — byte-compat."""
    config = _config(4, 1, 9)
    owners = assign_data(config)
    assert replica_table(config, owners) == [(owner,) for owner in owners]
