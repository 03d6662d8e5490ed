"""Tests for placement schemes."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, PlacementError
from repro.placement.schemes import UniformPlacement, ZipfOriginalUniformReplicas


DATA = list(range(400))


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

    def test_roughly_balanced(self):
        catalog = UniformPlacement(replication_factor=1).place(
            list(range(8000)), 8, random.Random(1)
        )
        counts = Counter(catalog.original(d) for d in range(8000))
        for disk in range(8):
            assert counts[disk] == pytest.approx(1000, rel=0.2)
