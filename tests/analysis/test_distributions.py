"""Tests for distribution helpers."""

import pytest

from repro.analysis.distributions import log_spaced_thresholds, mean
from repro.errors import ConfigurationError
from repro.report import SimulationReport


class TestPercentile:
    def test_empty_rejected(self):
        # Fig. 13 reads a run's 90th percentile through the report; a run
        # that completed no request has none to give.
        report = SimulationReport(
            scheduler_name="empty",
            duration=100.0,
            total_energy=0.0,
            disk_stats={},
            response_times=[],
            requests_offered=0,
            requests_completed=0,
        )
        with pytest.raises(ValueError):
            report.response_percentile(0.9)


class TestThresholds:
    def test_log_spacing(self):
        thresholds = log_spaced_thresholds(0.001, 10.0, points_per_decade=1)
        assert thresholds == pytest.approx([0.001, 0.01, 0.1, 1.0, 10.0])

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            log_spaced_thresholds(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            log_spaced_thresholds(1.0, 0.5)


class TestMean:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean([])
