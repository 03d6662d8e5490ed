"""Placement catalog: the paper's ``L`` — data item -> ordered disk list.

The first location of each data item is its *original* location (the one
Static always uses); subsequent entries are *replica* locations. The
catalog is immutable once built, mirroring the paper's assumption that the
scheduler never moves data — it only chooses among existing locations.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.errors import PlacementError
from repro.types import DataId, DiskId


class PlacementCatalog:
    """Immutable map from data items to their replica locations."""

    def __init__(self, locations: Mapping[DataId, Sequence[DiskId]]):
        frozen: Dict[DataId, Tuple[DiskId, ...]] = {}
        for data_id, disks in locations.items():
            disk_tuple = tuple(disks)
            if not disk_tuple:
                raise PlacementError(f"data {data_id} has no locations")
            if len(set(disk_tuple)) != len(disk_tuple):
                raise PlacementError(
                    f"data {data_id} has duplicate locations {disk_tuple}"
                )
            frozen[data_id] = disk_tuple
        self._locations = frozen

    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, data_id: DataId) -> bool:
        return data_id in self._locations

    def __iter__(self) -> Iterator[DataId]:
        return iter(self._locations)

    def locations(self, data_id: DataId) -> Tuple[DiskId, ...]:
        """All disks holding ``data_id`` (original first)."""
        try:
            return self._locations[data_id]
        except KeyError:
            raise PlacementError(f"unknown data id {data_id}")

    def mapping(self) -> Mapping[DataId, Tuple[DiskId, ...]]:
        """The full ``data_id -> locations`` map, for hot-path lookups.

        Returned by reference (the catalog is immutable by convention);
        callers must treat it as read-only. The storage layer uses this
        to resolve placements with one dict access per request instead of
        a method call + guarded lookup.
        """
        return self._locations

    def original(self, data_id: DataId) -> DiskId:
        """The original location (Static's choice)."""
        return self.locations(data_id)[0]

    def replicas(self, data_id: DataId) -> Tuple[DiskId, ...]:
        """Replica locations (everything but the original)."""
        return self.locations(data_id)[1:]

    def replication_factor(self, data_id: DataId) -> int:
        """Number of copies of ``data_id`` (original included)."""
        return len(self.locations(data_id))

    @property
    def disks(self) -> Tuple[DiskId, ...]:
        """Every disk referenced by at least one data item, sorted."""
        seen = set()
        for disks in self._locations.values():
            seen.update(disks)
        return tuple(sorted(seen))

    def data_on_disk(self, disk_id: DiskId) -> Tuple[DataId, ...]:
        """All data items with a copy on ``disk_id`` (sorted)."""
        return tuple(
            sorted(
                data_id
                for data_id, disks in self._locations.items()
                if disk_id in disks
            )
        )

    def load_share(self, weights: Mapping[DataId, float]) -> Dict[DiskId, float]:
        """Original-location weight landing on each disk.

        Used by placement analyses: with ``weights`` = per-data access
        counts, this is the request share Static sends to each disk.
        """
        share: Dict[DiskId, float] = {}
        for data_id, weight in weights.items():
            disk = self.original(data_id)
            share[disk] = share.get(disk, 0.0) + weight
        return share

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[DataId, Sequence[DiskId]]]
    ) -> "PlacementCatalog":
        return cls(dict(pairs))
