"""Block caching in front of the disk array (power-aware eviction)."""

from repro.cache.policy import BlockCache, LRUBlockCache, PowerAwareLRUCache

__all__ = [
    "BlockCache",
    "LRUBlockCache",
    "PowerAwareLRUCache",
]
