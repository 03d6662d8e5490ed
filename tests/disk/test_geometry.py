"""Tests for the mechanical disk geometry model."""

import pytest

from repro.disk.geometry import (
    BARRACUDA_GEOMETRY,
    CHEETAH_15K5_GEOMETRY,
    DiskGeometry,
)
from repro.errors import ConfigurationError


class TestRotation:
    def test_rotation_time_15k(self):
        assert CHEETAH_15K5_GEOMETRY.rotation_time == pytest.approx(0.004)

    def test_rotation_time_7200(self):
        assert BARRACUDA_GEOMETRY.rotation_time == pytest.approx(60.0 / 7200.0)

    def test_average_rotational_latency_is_half_revolution(self):
        geometry = CHEETAH_15K5_GEOMETRY
        assert geometry.average_rotational_latency == pytest.approx(
            geometry.rotation_time / 2
        )


class TestSeekCurve:
    def test_zero_distance_is_free(self):
        assert CHEETAH_15K5_GEOMETRY.seek_time(0) == 0.0

    def test_single_cylinder_is_track_to_track(self):
        geometry = CHEETAH_15K5_GEOMETRY
        assert geometry.seek_time(1) == pytest.approx(
            geometry.track_to_track_seek, rel=0.1
        )

    def test_full_stroke_is_max(self):
        geometry = CHEETAH_15K5_GEOMETRY
        assert geometry.seek_time(geometry.cylinders) == geometry.full_stroke_seek

    def test_monotone_in_distance(self):
        geometry = CHEETAH_15K5_GEOMETRY
        samples = [geometry.seek_time(d) for d in (1, 10, 100, 1000, 10000)]
        assert samples == sorted(samples)

    def test_concave_shape(self):
        # sqrt ramp: the first half of the distance costs more than half
        # the remaining seek budget.
        geometry = CHEETAH_15K5_GEOMETRY
        half = geometry.seek_time(geometry.cylinders // 2)
        full = geometry.seek_time(geometry.cylinders - 1)
        assert half > full / 2

    def test_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            CHEETAH_15K5_GEOMETRY.seek_time(-1)


class TestTransfer:
    def test_transfer_scales_linearly(self):
        geometry = CHEETAH_15K5_GEOMETRY
        one = geometry.transfer_time(10**6)
        two = geometry.transfer_time(2 * 10**6)
        assert two == pytest.approx(2 * one)

    def test_512k_block_within_milliseconds(self):
        # The paper's 512 KiB blocks should be a ~4 ms transfer at 125 MB/s.
        t = CHEETAH_15K5_GEOMETRY.transfer_time(512 * 1024)
        assert 0.001 < t < 0.01


class TestValidation:
    def test_inverted_seek_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskGeometry(track_to_track_seek=0.01, full_stroke_seek=0.001)

    def test_nonpositive_rpm_rejected(self):
        with pytest.raises(ConfigurationError):
            DiskGeometry(rpm=0)
