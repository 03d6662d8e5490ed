"""Block cache policies, including power-aware eviction.

The paper's related work (Section 1) lists power-aware caching (Zhu &
Zhou's PA-LRU / PB-LRU) as complementary to scheduling: "always prefer
evicting blocks from the cache residing on idle disks rather than from
disks in standby mode" — a hit on a standby disk's block avoids a full
spin-up, so those blocks are the precious ones.

* :class:`LRUBlockCache` — classic least-recently-used baseline.
* :class:`PowerAwareLRUCache` — LRU order, but eviction scans the
  ``scan_depth`` least-recent entries and prefers a victim whose home
  disk is currently spinning (cheap to re-fetch); only if every candidate
  lives on a sleeping disk does it fall back to plain LRU.

Caches are keyed by data id and remember each block's *home disk* (where
it was last fetched from) so the eviction policy can consult live disk
states through the scheduler's :class:`~repro.core.cost.DiskView`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable

from repro.errors import ConfigurationError
from repro.power.states import DiskPowerState
from repro.types import DataId, DiskId

#: Callable giving the cache a disk's live power state.
DiskStateProbe = Callable[[DiskId], DiskPowerState]


class BlockCache(ABC):
    """A bounded cache of data blocks in front of the disk array."""

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ConfigurationError("cache capacity must be >= 0")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    @abstractmethod
    def lookup(self, data_id: DataId) -> bool:
        """True (and bookkeeping updated) when ``data_id`` is cached."""

    @abstractmethod
    def insert(
        self, data_id: DataId, home_disk: DiskId, probe: DiskStateProbe
    ) -> None:
        """Cache ``data_id`` fetched from ``home_disk``, evicting if full."""

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:  # pragma: no cover - trivial in subclasses
        raise NotImplementedError


class LRUBlockCache(BlockCache):
    """Classic LRU over data ids."""

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._entries: "OrderedDict[DataId, DiskId]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, data_id: DataId) -> bool:
        return data_id in self._entries

    def lookup(self, data_id: DataId) -> bool:
        if data_id in self._entries:
            self._entries.move_to_end(data_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(
        self, data_id: DataId, home_disk: DiskId, probe: DiskStateProbe
    ) -> None:
        if self.capacity == 0:
            return
        if data_id in self._entries:
            self._entries.move_to_end(data_id)
            self._entries[data_id] = home_disk
            return
        if len(self._entries) >= self.capacity:
            self._evict(probe)
        self._entries[data_id] = home_disk

    def _evict(self, probe: DiskStateProbe) -> None:
        self._entries.popitem(last=False)

    def home_disk(self, data_id: DataId) -> DiskId:
        """The disk the cached block was last fetched from."""
        return self._entries[data_id]


class PowerAwareLRUCache(LRUBlockCache):
    """PA-LRU-style eviction: spare the blocks of sleeping disks.

    Args:
        capacity: Blocks held.
        scan_depth: How many least-recent entries to consider per
            eviction; the first whose home disk is spinning is evicted.
    """

    def __init__(self, capacity: int, scan_depth: int = 8):
        super().__init__(capacity)
        if scan_depth <= 0:
            raise ConfigurationError("scan_depth must be positive")
        self.scan_depth = scan_depth

    def _evict(self, probe: DiskStateProbe) -> None:
        candidates = []
        for data_id in self._entries:  # oldest first
            candidates.append(data_id)
            if len(candidates) >= self.scan_depth:
                break
        for data_id in candidates:
            if probe(self._entries[data_id]).is_spinning:
                del self._entries[data_id]
                return
        # Every candidate's disk sleeps: plain LRU fallback.
        self._entries.popitem(last=False)
