"""Tests for placement schemes."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, PlacementError
from repro.placement.schemes import UniformPlacement, ZipfOriginalUniformReplicas
from repro.placement.zipf import ZipfSampler, rank_permutation


DATA = list(range(400))


def reference_placement(data_ids, num_disks, rng, replication_factor, zipf_exponent):
    """Per-item draw that rebuilds the candidate population for every item.

    ``zipf_exponent=None`` is :class:`UniformPlacement`; otherwise the
    original comes from the Zipf sampler, as in the paper's scheme.
    """

    def uniform_distinct(count, exclude):
        if count == 0:
            return ()
        available = [disk for disk in range(num_disks) if disk not in exclude]
        return tuple(rng.sample(available, count))

    if zipf_exponent is None:
        return {d: uniform_distinct(replication_factor, ()) for d in data_ids}
    sampler = ZipfSampler(num_disks, zipf_exponent)
    rank_to_disk = rank_permutation(num_disks, rng)
    locations = {}
    for data_id in data_ids:
        original = rank_to_disk[sampler.sample(rng)]
        replicas = uniform_distinct(replication_factor - 1, (original,))
        locations[data_id] = (original, *replicas)
    return locations


@st.composite
def placement_cases(draw):
    num_disks = draw(st.integers(min_value=2, max_value=200))
    replication_factor = draw(st.integers(min_value=1, max_value=min(5, num_disks)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return num_disks, replication_factor, seed


@given(case=placement_cases(), zipf_exponent=st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=40, deadline=None)
def test_schemes_match_a_population_rebuilt_per_item(case, zipf_exponent):
    num_disks, replication_factor, seed = case
    data_ids = list(range(300))
    schemes = {
        zipf_exponent: ZipfOriginalUniformReplicas(replication_factor, zipf_exponent),
        None: UniformPlacement(replication_factor),
    }
    for exponent, scheme in schemes.items():
        catalog = scheme.place(data_ids, num_disks, random.Random(seed))
        expected = reference_placement(
            data_ids, num_disks, random.Random(seed), replication_factor, exponent
        )
        assert dict(catalog.mapping()) == expected


class TestZipfOriginalUniformReplicas:
    def test_every_item_gets_requested_replication(self):
        scheme = ZipfOriginalUniformReplicas(replication_factor=3)
        catalog = scheme.place(DATA, 20, random.Random(0))
        assert all(catalog.replication_factor(d) == 3 for d in DATA)

    def test_locations_are_distinct(self):
        scheme = ZipfOriginalUniformReplicas(replication_factor=5)
        catalog = scheme.place(DATA, 10, random.Random(1))
        for d in DATA:
            locations = catalog.locations(d)
            assert len(set(locations)) == len(locations)

    def test_originals_are_skewed_when_z_high(self):
        scheme = ZipfOriginalUniformReplicas(replication_factor=1, zipf_exponent=1.0)
        catalog = scheme.place(list(range(5000)), 20, random.Random(2))
        counts = Counter(catalog.original(d) for d in range(5000))
        top = counts.most_common(1)[0][1]
        assert top > 5000 / 20 * 2  # far above a uniform share

    def test_originals_uniform_when_z_zero(self):
        scheme = ZipfOriginalUniformReplicas(replication_factor=1, zipf_exponent=0.0)
        catalog = scheme.place(list(range(5000)), 10, random.Random(3))
        counts = Counter(catalog.original(d) for d in range(5000))
        for disk in range(10):
            assert counts[disk] == pytest.approx(500, rel=0.25)

    def test_replicas_roughly_uniform_even_with_skewed_originals(self):
        scheme = ZipfOriginalUniformReplicas(replication_factor=2, zipf_exponent=1.0)
        catalog = scheme.place(list(range(8000)), 16, random.Random(4))
        counts = Counter(
            replica for d in range(8000) for replica in catalog.replicas(d)
        )
        for disk in range(16):
            assert counts[disk] == pytest.approx(500, rel=0.35)

    def test_deterministic_given_seed(self):
        scheme = ZipfOriginalUniformReplicas(replication_factor=3)
        a = scheme.place(DATA, 12, random.Random(9))
        b = scheme.place(DATA, 12, random.Random(9))
        assert all(a.locations(d) == b.locations(d) for d in DATA)

    def test_replication_beyond_disks_rejected(self):
        scheme = ZipfOriginalUniformReplicas(replication_factor=11)
        with pytest.raises(PlacementError):
            scheme.place(DATA, 10, random.Random(0))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ZipfOriginalUniformReplicas(replication_factor=0)
        with pytest.raises(ConfigurationError):
            ZipfOriginalUniformReplicas(zipf_exponent=-1.0)

    @given(
        rf=st.integers(min_value=1, max_value=5),
        disks=st.integers(min_value=5, max_value=40),
        seed=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=30)
    def test_placement_always_valid(self, rf, disks, seed):
        scheme = ZipfOriginalUniformReplicas(replication_factor=rf)
        catalog = scheme.place(list(range(50)), disks, random.Random(seed))
        for d in range(50):
            locations = catalog.locations(d)
            assert len(locations) == rf
            assert len(set(locations)) == rf
            assert all(0 <= disk < disks for disk in locations)


class TestUniformPlacement:
    def test_replication_respected(self):
        catalog = UniformPlacement(replication_factor=2).place(
            DATA, 8, random.Random(0)
        )
        assert all(catalog.replication_factor(d) == 2 for d in DATA)

    def test_replication_beyond_disks_rejected(self):
        with pytest.raises(PlacementError):
            UniformPlacement(replication_factor=11).place(DATA, 10, random.Random(0))

    def test_roughly_balanced(self):
        catalog = UniformPlacement(replication_factor=1).place(
            list(range(8000)), 8, random.Random(1)
        )
        counts = Counter(catalog.original(d) for d in range(8000))
        for disk in range(8):
            assert counts[disk] == pytest.approx(1000, rel=0.2)
