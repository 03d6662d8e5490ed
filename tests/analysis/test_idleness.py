"""Tests for state-period analysis."""

import pytest

from repro.analysis.idleness import (
    PeriodSummary,
    standby_periods_of_report,
    state_periods,
)
from repro.errors import ConfigurationError
from repro.power.states import DiskPowerState

S = DiskPowerState


class TestStatePeriods:
    def test_basic_extraction(self):
        log = [
            (0.0, S.STANDBY),
            (10.0, S.SPIN_UP),
            (16.0, S.IDLE),
            (20.0, S.SPIN_DOWN),
            (22.0, S.STANDBY),
        ]
        assert state_periods(log, S.STANDBY, 100.0) == [10.0, 78.0]
        assert state_periods(log, S.IDLE, 100.0) == [4.0]
        assert state_periods(log, S.ACTIVE, 100.0) == []

    def test_open_final_interval_clamped_to_end(self):
        log = [(0.0, S.IDLE)]
        assert state_periods(log, S.IDLE, 42.0) == [42.0]

    def test_empty_log(self):
        assert state_periods([], S.IDLE, 10.0) == []

    def test_unsorted_log_rejected(self):
        log = [(0.0, S.IDLE), (5.0, S.ACTIVE), (1.0, S.IDLE)]
        with pytest.raises(ConfigurationError):
            state_periods(log, S.IDLE, 10.0)

    def test_adjacent_same_state_intervals_counted_separately(self):
        # ACTIVE -> ACTIVE re-entries (queue continuation) appear as
        # separate log entries and separate (possibly zero) periods.
        log = [(0.0, S.ACTIVE), (1.0, S.ACTIVE), (2.0, S.IDLE)]
        assert state_periods(log, S.ACTIVE, 5.0) == [1.0, 1.0]


class TestSummary:
    def test_of_durations(self):
        summary = PeriodSummary.of([1.0, 3.0, 2.0])
        assert summary.count == 3
        assert summary.total == 6.0
        assert summary.mean == 2.0
        assert summary.longest == 3.0

    def test_empty(self):
        summary = PeriodSummary.of([])
        assert summary.count == 0
        assert summary.mean == 0.0


class TestReportIntegration:
    def make_report(self, record):
        from repro.core.static_scheduler import StaticScheduler
        from repro.placement.catalog import PlacementCatalog
        from repro.power.profile import BARRACUDA
        from repro.sim.config import SimulationConfig
        from repro.sim.runner import simulate
        from repro.types import Request

        catalog = PlacementCatalog({0: [0]})
        requests = [
            Request(time=0.0, request_id=0, data_id=0),
            Request(time=200.0, request_id=1, data_id=0),
        ]
        config = SimulationConfig(
            num_disks=2,
            profile=BARRACUDA,
            record_transitions=record,
            drain_slack=60.0,
        )
        return simulate(requests, catalog, StaticScheduler(), config)

    def test_standby_periods_extracted(self):
        report = self.make_report(record=True)
        periods = standby_periods_of_report(report)
        # Disk 0: between the two far-apart requests + the tail;
        # disk 1: asleep the whole run.
        assert len(periods) >= 3
        assert max(periods) >= 100.0

    def test_idle_periods_bounded_by_threshold(self):
        from repro.power.profile import BARRACUDA

        report = self.make_report(record=True)
        for stats in report.disk_stats.values():
            for period in state_periods(
                stats.transitions, DiskPowerState.IDLE, report.duration
            ):
                assert period <= BARRACUDA.breakeven_time + 1e-6

    def test_without_recording_no_periods(self):
        report = self.make_report(record=False)
        assert standby_periods_of_report(report) == []
