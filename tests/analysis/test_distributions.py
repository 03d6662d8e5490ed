"""Tests for a run's response-time distribution."""

import pytest

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
