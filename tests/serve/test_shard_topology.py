"""Topology invariants: partitioning of disks, data, and popularity."""

from __future__ import annotations

from typing import Any

import pytest

from repro.errors import ConfigurationError
from repro.serve.service import ServiceConfig
from repro.serve.shard.topology import (
    ShardedServiceConfig,
    assign_data,
    build_topology,
)


def _config(num_shards: int, **service: Any) -> ShardedServiceConfig:
    return ShardedServiceConfig(
        service=ServiceConfig(**service), num_shards=num_shards
    )


def test_data_partition_is_disjoint_and_complete() -> None:
    config = _config(4, num_disks=24, num_data=1_000)
    specs = build_topology(config)
    seen: dict = {}
    for spec in specs:
        assert list(spec.data_ids) == sorted(spec.data_ids)
        for data_id in spec.data_ids:
            assert data_id not in seen, "data id owned by two shards"
            seen[data_id] = spec.shard_id
    assert sorted(seen) == list(range(config.service.num_data))


def test_disk_slices_are_contiguous_and_cover_the_fleet() -> None:
    config = _config(3, num_disks=20, num_data=100)
    specs = build_topology(config)
    covered = []
    for spec in specs:
        ids = list(spec.global_disk_ids)
        assert ids == list(range(ids[0], ids[-1] + 1)), "slice not contiguous"
        assert spec.service.num_disks == len(ids)
        covered.extend(ids)
    assert covered == list(range(config.service.num_disks))


def test_replicas_of_one_object_stay_on_one_shard() -> None:
    """Each shard's catalog must place only over its own local disks."""
    config = _config(3, num_disks=18, num_data=300)
    for spec in build_topology(config):
        catalog = spec.make_catalog()
        for data_id in spec.data_ids:
            locations = catalog.locations(data_id)
            assert len(locations) == config.service.replication_factor
            for disk_id in locations:
                assert 0 <= disk_id < spec.service.num_disks


def test_routing_table_matches_topology_ownership() -> None:
    config = _config(5, num_disks=30, num_data=777)
    owners = assign_data(config)
    for spec in build_topology(config):
        for data_id in spec.data_ids:
            assert owners[data_id] == spec.shard_id


def test_hot_head_is_weight_balanced() -> None:
    """The Zipf head must spread its expected load across all shards.

    With pure consistent hashing one shard would own rank 0 and with it
    ~12% of all traffic (zipf 1.0, 4000 ids). Greedy weight assignment
    caps the hot-head expected-load spread near 1/num_shards.
    """
    config = _config(4, num_disks=24, num_data=4_000)
    owners = assign_data(config)
    loads = [0.0] * config.num_shards
    for rank in range(config.hot_data_ids):
        loads[owners[rank]] += (rank + 1) ** -config.service.zipf_exponent
    mean = sum(loads) / len(loads)
    for load in loads:
        assert abs(load - mean) / mean < 0.25


def test_shard_seeds_are_distinct() -> None:
    config = _config(8, num_disks=48, num_data=100)
    seeds = [spec.service.seed for spec in build_topology(config)]
    assert len(set(seeds)) == len(seeds)
    assert config.service.seed not in seeds


def test_validation_rejects_starved_shards() -> None:
    with pytest.raises(ConfigurationError):
        # 10 disks over 4 shards leaves 2-disk shards < replication 3.
        _config(4, num_disks=10, replication_factor=3)
    with pytest.raises(ConfigurationError):
        ShardedServiceConfig(num_shards=0)
    with pytest.raises(ConfigurationError):
        _config(2, policy="clairvoyant")
    with pytest.raises(ConfigurationError):
        ShardedServiceConfig(hot_data_ids=-1)
    # Session knobs fail when the deployment config is built, not later
    # inside build_topology.
    with pytest.raises(ConfigurationError, match="window_s"):
        _config(2, window_s=0)
    with pytest.raises(ConfigurationError, match="max_batch"):
        _config(2, max_batch=0)
    # Disk 13 is local disk 4 of shard 1 in an 18-disk, 2-shard fleet;
    # the error names the global id the caller wrote.
    with pytest.raises(ConfigurationError, match="disk 13 twice"):
        _config(2, num_disks=18, disk_deaths=((13, 1.0), (13, 2.0)))
