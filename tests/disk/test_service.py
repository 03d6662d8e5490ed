"""Tests for service-time models."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.disk.geometry import BARRACUDA_GEOMETRY, CHEETAH_15K5_GEOMETRY
from repro.disk.service import AnalyticServiceModel, ConstantServiceModel
from repro.errors import ConfigurationError
from repro.types import Request


def make_request(size=512 * 1024):
    return Request(time=0.0, request_id=0, data_id=0, size_bytes=size)


class TestConstantModel:
    def test_returns_fixed_value(self):
        model = ConstantServiceModel(0.01)
        assert model.service_time(make_request(), random.Random(0)) == 0.01

    def test_zero_default(self):
        assert ConstantServiceModel().service_time(
            make_request(), random.Random(0)
        ) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantServiceModel(-0.5)


class TestAnalyticModel:
    def test_deterministic_given_seed(self):
        model = AnalyticServiceModel()
        a = model.service_time(make_request(), random.Random(42))
        b = model.service_time(make_request(), random.Random(42))
        assert a == b

    def test_millisecond_scale(self):
        """The paper's premise: I/O time is ms-scale vs seconds-scale power ops."""
        model = AnalyticServiceModel()
        rng = random.Random(7)
        times = [model.service_time(make_request(), rng) for _ in range(200)]
        assert all(0.001 < t < 0.05 for t in times)

    def test_mean_close_to_expectation(self):
        model = AnalyticServiceModel()
        rng = random.Random(3)
        n = 4000
        mean = sum(model.service_time(make_request(), rng) for _ in range(n)) / n
        assert mean == pytest.approx(
            model.expected_service_time(512 * 1024), rel=0.05
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        size=st.integers(min_value=1, max_value=10**8),
        geometry=st.sampled_from([CHEETAH_15K5_GEOMETRY, BARRACUDA_GEOMETRY]),
    )
    def test_inlined_draw_matches_the_geometry_reference(self, seed, size, geometry):
        """``service_time`` equals ``seek_time(d) + rotation + transfer +
        overhead``, with ``d`` and the rotation re-drawn from a clone of
        the same RNG."""
        rng = random.Random(seed)
        clone = random.Random()
        clone.setstate(rng.getstate())
        drawn = AnalyticServiceModel(geometry).service_time(make_request(size), rng)
        distance = clone.randrange(geometry.cylinders)
        rotation = clone.random() * geometry.rotation_time
        expected = (
            geometry.seek_time(distance)
            + rotation
            + geometry.transfer_time(size)
            + geometry.controller_overhead
        )
        assert drawn == expected
        assert rng.getstate() == clone.getstate()

    @given(size=st.integers(min_value=1, max_value=10**8))
    def test_always_positive(self, size):
        model = AnalyticServiceModel()
        assert model.service_time(make_request(size), random.Random(size)) > 0

    def test_bigger_payload_never_faster_in_expectation(self):
        model = AnalyticServiceModel()
        assert model.expected_service_time(10**6) < model.expected_service_time(10**8)

    def test_geometry_exposed(self):
        assert AnalyticServiceModel().geometry is CHEETAH_15K5_GEOMETRY
