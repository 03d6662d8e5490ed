"""Tests for block cache policies."""

import pytest

from repro.cache.policy import LRUBlockCache, PowerAwareLRUCache
from repro.errors import ConfigurationError
from repro.power.states import DiskPowerState


def spinning(disk_id):
    return DiskPowerState.IDLE


def sleeping(disk_id):
    return DiskPowerState.STANDBY


class TestLRU:
    def test_hit_after_insert(self):
        cache = LRUBlockCache(4)
        cache.insert(1, 0, spinning)
        assert cache.lookup(1)
        assert cache.hits == 1

    def test_miss_counted(self):
        cache = LRUBlockCache(4)
        assert not cache.lookup(1)
        assert cache.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUBlockCache(2)
        cache.insert(1, 0, spinning)
        cache.insert(2, 0, spinning)
        cache.lookup(1)                 # 1 becomes most recent
        cache.insert(3, 0, spinning)    # evicts 2
        assert 1 in cache
        assert 2 not in cache
        assert 3 in cache

    def test_capacity_zero_is_noop(self):
        cache = LRUBlockCache(0)
        cache.insert(1, 0, spinning)
        assert not cache.lookup(1)
        assert len(cache) == 0

    def test_reinsert_refreshes_position_and_home(self):
        cache = LRUBlockCache(2)
        cache.insert(1, 0, spinning)
        cache.insert(2, 0, spinning)
        cache.insert(1, 5, spinning)    # refresh
        cache.insert(3, 0, spinning)    # evicts 2, not 1
        assert 1 in cache
        assert cache.home_disk(1) == 5

    def test_hit_ratio(self):
        cache = LRUBlockCache(4)
        cache.insert(1, 0, spinning)
        cache.lookup(1)
        cache.lookup(2)
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            LRUBlockCache(-1)


class TestPowerAware:
    def probe_factory(self, sleeping_disks):
        def probe(disk_id):
            if disk_id in sleeping_disks:
                return DiskPowerState.STANDBY
            return DiskPowerState.IDLE

        return probe

    def test_spares_sleeping_disk_blocks(self):
        cache = PowerAwareLRUCache(2, scan_depth=4)
        probe = self.probe_factory(sleeping_disks={9})
        cache.insert(1, 9, probe)   # oldest, but its disk sleeps
        cache.insert(2, 0, probe)
        cache.insert(3, 0, probe)   # must evict — spares block 1
        assert 1 in cache
        assert 2 not in cache

    def test_falls_back_to_lru_when_all_sleep(self):
        cache = PowerAwareLRUCache(2, scan_depth=4)
        probe = self.probe_factory(sleeping_disks={0, 1})
        cache.insert(1, 0, probe)
        cache.insert(2, 1, probe)
        cache.insert(3, 0, probe)
        assert 1 not in cache  # plain LRU victim

    def test_scan_depth_limits_the_search(self):
        cache = PowerAwareLRUCache(3, scan_depth=1)
        probe = self.probe_factory(sleeping_disks={9})
        cache.insert(1, 9, probe)   # oldest; scan depth 1 only sees this
        cache.insert(2, 0, probe)
        cache.insert(3, 0, probe)
        cache.insert(4, 0, probe)   # scan sees only block 1 (asleep) -> LRU
        assert 1 not in cache

    def test_invalid_scan_depth(self):
        with pytest.raises(ConfigurationError):
            PowerAwareLRUCache(4, scan_depth=0)


class TestSimulationIntegration:
    def test_hits_bypass_disks(self):
        from repro.core.static_scheduler import StaticScheduler
        from repro.disk.service import ConstantServiceModel
        from repro.placement.catalog import PlacementCatalog
        from repro.power.profile import PAPER_UNIT
        from repro.sim.config import SimulationConfig
        from repro.sim.runner import simulate
        from repro.types import Request

        catalog = PlacementCatalog({0: [0]})
        requests = [
            Request(time=float(t), request_id=t, data_id=0) for t in range(5)
        ]
        config = SimulationConfig(
            num_disks=1,
            profile=PAPER_UNIT,
            service_model=ConstantServiceModel(0.0),
            drain_slack=1.0,
            cache_factory=lambda: LRUBlockCache(8),
        )
        report = simulate(requests, catalog, StaticScheduler(), config)
        assert report.requests_completed == 5
        assert report.cache_hits == 4          # first miss, rest hit
        assert report.cache_misses == 1
        assert report.disk_stats[0].requests_serviced == 1
        assert report.cache_hit_ratio == pytest.approx(0.8)

    def test_cache_reduces_energy_on_rereference_workload(self):
        import random

        from repro.core.heuristic import HeuristicScheduler
        from repro.placement.schemes import ZipfOriginalUniformReplicas
        from repro.power.profile import PAPER_EVAL
        from repro.sim.config import SimulationConfig
        from repro.sim.runner import simulate
        from repro.traces.record import TraceRecord
        from repro.traces.workload import Workload

        rng = random.Random(3)
        records = []
        t = 0.0
        for _ in range(3000):
            t += rng.expovariate(1.0)
            records.append(TraceRecord(time=t, data_key=rng.randrange(100)))
        workload = Workload(records)
        requests, catalog = workload.bind(
            ZipfOriginalUniformReplicas(replication_factor=2),
            num_disks=8,
            seed=4,
        )
        base_config = SimulationConfig(num_disks=8, profile=PAPER_EVAL)
        cached_config = SimulationConfig(
            num_disks=8,
            profile=PAPER_EVAL,
            cache_factory=lambda: PowerAwareLRUCache(50),
        )
        plain = simulate(requests, catalog, HeuristicScheduler(), base_config)
        cached = simulate(
            requests, catalog, HeuristicScheduler(), cached_config
        )
        assert cached.cache_hits > 0
        assert cached.total_energy < plain.total_energy
        # Note: the *mean* response time may rise — absorbing re-references
        # in the cache leaves the disks sleepier, so the remaining misses
        # pay more spin-up delays. The median tells the hit story instead.
        assert cached.response_percentile(0.5) <= plain.response_percentile(0.5)
