"""Placement schemes: how data items are laid out over disks.

The paper's evaluation scheme (Section 4.2):

* the **original** location of each data item is drawn from a Zipf-like
  distribution over disks (exponent ``z``, rank-to-disk mapping shuffled),
  modelling either naturally skewed locality (observed in Cello) or the
  output of a popularity-packing placement technique;
* **replica** locations are drawn uniformly over the remaining disks, the
  common fault-tolerance layout.

:class:`UniformPlacement` (everything uniform) is the ``z = 0`` corner of
the Appendix A.1 study and is provided both for that sweep and as a
baseline scheme.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError, PlacementError
from repro.placement.catalog import PlacementCatalog
from repro.placement.zipf import ZipfSampler, rank_permutation
from repro.types import DataId, DiskId


class PlacementScheme(ABC):
    """Factory producing a :class:`PlacementCatalog` for a data population."""

    @abstractmethod
    def place(
        self, data_ids: Sequence[DataId], num_disks: int, rng: random.Random
    ) -> PlacementCatalog:
        """Assign every data item its ordered location list."""


def _validate(num_disks: int, replication_factor: int) -> None:
    if num_disks <= 0:
        raise ConfigurationError("num_disks must be positive")
    if replication_factor <= 0:
        raise ConfigurationError("replication_factor must be positive")
    if replication_factor > num_disks:
        raise PlacementError(
            f"replication factor {replication_factor} exceeds disk count {num_disks}"
        )


class ZipfOriginalUniformReplicas(PlacementScheme):
    """The paper's scheme: Zipf(z) originals, uniform replicas.

    Args:
        replication_factor: Total copies per data item (1 = no replicas).
        zipf_exponent: ``z`` of the original-location distribution; the
            paper uses 1.0 in the main evaluation and sweeps 0..1 in
            Appendix A.1.
    """

    def __init__(self, replication_factor: int = 1, zipf_exponent: float = 1.0):
        if replication_factor <= 0:
            raise ConfigurationError("replication_factor must be positive")
        if zipf_exponent < 0:
            raise ConfigurationError("zipf_exponent must be >= 0")
        self.replication_factor = replication_factor
        self.zipf_exponent = zipf_exponent

    def place(
        self, data_ids: Sequence[DataId], num_disks: int, rng: random.Random
    ) -> PlacementCatalog:
        _validate(num_disks, self.replication_factor)
        sampler = ZipfSampler(num_disks, self.zipf_exponent)
        rank_to_disk = rank_permutation(num_disks, rng)
        locations: Dict[DataId, List[DiskId]] = {}
        for data_id in data_ids:
            original = rank_to_disk[sampler.sample(rng)]
            disks = [original]
            disks.extend(
                _uniform_distinct(rng, num_disks, self.replication_factor - 1, disks)
            )
            locations[data_id] = disks
        return PlacementCatalog(locations)


class UniformPlacement(PlacementScheme):
    """All copies (original included) uniform over disks without repeats."""

    def __init__(self, replication_factor: int = 1):
        if replication_factor <= 0:
            raise ConfigurationError("replication_factor must be positive")
        self.replication_factor = replication_factor

    def place(
        self, data_ids: Sequence[DataId], num_disks: int, rng: random.Random
    ) -> PlacementCatalog:
        _validate(num_disks, self.replication_factor)
        locations: Dict[DataId, List[DiskId]] = {}
        for data_id in data_ids:
            locations[data_id] = _uniform_distinct(
                rng, num_disks, self.replication_factor, []
            )
        return PlacementCatalog(locations)


def _uniform_distinct(
    rng: random.Random, num_disks: int, count: int, exclude: Sequence[DiskId]
) -> List[DiskId]:
    """Draw ``count`` distinct disks uniformly, avoiding ``exclude``."""
    if count == 0:
        return []
    available = [disk for disk in range(num_disks) if disk not in set(exclude)]
    if count > len(available):
        raise PlacementError(
            f"cannot pick {count} distinct disks from {len(available)} remaining"
        )
    return rng.sample(available, count)
