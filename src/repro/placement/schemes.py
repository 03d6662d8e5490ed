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
        # Replica pools are built once per placement: pool ``o`` holds
        # every disk but ``o`` in ascending order. ``rng.sample`` reads
        # only a population's length and indexing, so drawing from the
        # shared pool equals drawing from a list rebuilt per item.
        disks = list(range(num_disks))
        pools = [disks[:original] + disks[original + 1:] for original in disks]
        replicas = self.replication_factor - 1
        locations: Dict[DataId, List[DiskId]] = {}
        for data_id in data_ids:
            original = rank_to_disk[sampler.sample(rng)]
            locations[data_id] = [original, *rng.sample(pools[original], replicas)]
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
        pool = list(range(num_disks))
        return PlacementCatalog(
            {
                data_id: rng.sample(pool, self.replication_factor)
                for data_id in data_ids
            }
        )
