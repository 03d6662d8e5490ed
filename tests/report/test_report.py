"""Tests for MetricsCollector and SimulationReport."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.disk.stats import DiskStats
from repro.errors import SimulationError
from repro.power.profile import PAPER_UNIT
from repro.power.states import DiskPowerState
from repro.report import MetricsCollector, SimulationReport, percentile
from repro.types import Request


def req(time, rid):
    return Request(time=time, request_id=rid, data_id=0)


class TestCollector:
    def test_response_time_is_completion_minus_arrival(self):
        collector = MetricsCollector()
        collector.on_complete(req(1.0, 0), 3, 4.5)
        assert collector.response_times == [3.5]
        assert collector.disk_of(0) == 3

    def test_negative_response_rejected(self):
        collector = MetricsCollector()
        with pytest.raises(SimulationError):
            collector.on_complete(req(5.0, 0), 0, 4.0)

    def test_completed_count(self):
        collector = MetricsCollector()
        for i in range(4):
            collector.on_complete(req(0.0, i), 0, 1.0)
        assert collector.completed == 4


class TestPercentile:
    def test_nearest_rank(self):
        values = sorted([10.0, 20.0, 30.0, 40.0, 50.0])
        assert percentile(values, 0.5) == 30.0
        assert percentile(values, 0.9) == 50.0
        assert percentile(values, 0.0) == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)

    def test_median(self):
        assert make_report([3.0, 1.0, 2.0]).response_percentile(0.5) == 2.0

    def test_p90_of_uniform_grid(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 0.9) == 90.0

    def test_extremes(self):
        values = [5.0, 7.0, 9.0]
        assert percentile(values, 0.0) == 5.0
        assert percentile(values, 1.0) == 9.0


class TestInverseCdf:
    def test_basic_points(self):
        report = make_report([1.0, 2.0, 3.0, 4.0])
        points = dict(report.inverse_cdf([0.5, 2.0, 4.0, 5.0]))
        assert points[0.5] == 1.0       # all greater
        assert points[2.0] == 0.5       # strictly greater than 2: {3, 4}
        assert points[4.0] == 0.0
        assert points[5.0] == 0.0

    def test_empty_values(self):
        assert make_report([]).inverse_cdf([1.0]) == [(1.0, 0.0)]

    @given(
        values=st.lists(st.floats(min_value=0, max_value=100), min_size=1),
        x=st.floats(min_value=-1, max_value=101),
    )
    def test_probability_in_unit_interval(self, values, x):
        (_x, p), = make_report(values).inverse_cdf([x])
        assert 0.0 <= p <= 1.0

    def test_monotone_nonincreasing(self):
        report = make_report([0.1, 0.5, 2.5, 9.0])
        points = report.inverse_cdf([0.0, 1.0, 5.0, 10.0])
        probs = [p for _x, p in points]
        assert probs == sorted(probs, reverse=True)


def make_report(response_times=(0.1, 0.2, 5.0), num_disks=2):
    disk_stats = {}
    for disk_id in range(num_disks):
        stats = DiskStats(PAPER_UNIT)
        stats.begin(DiskPowerState.IDLE, 0.0)
        stats.transition(DiskPowerState.SPIN_DOWN, 10.0 + disk_id * 10.0)
        stats.transition(DiskPowerState.STANDBY, 10.0 + disk_id * 10.0)
        stats.finalize(100.0)
        disk_stats[disk_id] = stats
    return SimulationReport(
        scheduler_name="test",
        duration=100.0,
        total_energy=sum(s.energy for s in disk_stats.values()),
        disk_stats=disk_stats,
        response_times=list(response_times),
        requests_offered=len(response_times),
        requests_completed=len(response_times),
    )


class TestReport:
    def test_mean_response_time(self):
        report = make_report()
        assert report.mean_response_time == pytest.approx((0.1 + 0.2 + 5.0) / 3)

    def test_mean_of_empty_is_zero(self):
        assert make_report(response_times=()).mean_response_time == 0.0

    def test_spin_counts_aggregate(self):
        report = make_report()
        assert report.spin_downs == 2
        assert report.spin_operations == report.spin_ups + report.spin_downs

    def test_normalized_energy(self):
        report = make_report()
        assert report.normalized_energy(report.total_energy * 2) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            report.normalized_energy(0.0)

    def test_state_time_totals(self):
        report = make_report()
        totals = report.state_time_totals()
        assert totals[DiskPowerState.IDLE] == pytest.approx(30.0)
        assert sum(totals.values()) == pytest.approx(200.0)

    def test_per_disk_fractions_sorted_by_standby(self):
        report = make_report()
        fractions = report.per_disk_fractions()
        standby = [f[DiskPowerState.STANDBY] for f in fractions]
        assert standby == sorted(standby, reverse=True)

    def test_inverse_cdf(self):
        report = make_report()
        points = dict(report.inverse_cdf([0.15, 10.0]))
        assert points[0.15] == pytest.approx(2 / 3)
        assert points[10.0] == 0.0

    def test_summary_mentions_scheduler(self):
        assert "test" in make_report().summary()
