"""Data placement: Zipf samplers, catalogs, placement schemes."""

from repro.placement.catalog import PlacementCatalog
from repro.placement.covering import covering_subset
from repro.placement.schemes import (
    PlacementScheme,
    UniformPlacement,
    ZipfOriginalUniformReplicas,
)
from repro.placement.zipf import ZipfSampler, rank_permutation, zipf_probabilities

__all__ = [
    "PlacementCatalog",
    "PlacementScheme",
    "UniformPlacement",
    "ZipfOriginalUniformReplicas",
    "ZipfSampler",
    "covering_subset",
    "rank_permutation",
    "zipf_probabilities",
]
