"""Tests for the experiment plumbing (caching, cells, baselines)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import common


SCALE = 0.05


@pytest.fixture(autouse=True)
def fresh_caches():
    common.clear_caches()
    yield
    common.clear_caches()


class TestWorkloads:
    def test_workload_cached(self):
        first = common.get_workload("cello", SCALE)
        second = common.get_workload("cello", SCALE)
        assert first is second

    def test_traces_differ(self):
        cello = common.get_workload("cello", SCALE)
        financial = common.get_workload("financial", SCALE)
        assert cello is not financial
        assert (
            cello.stats().interarrival_cv > financial.stats().interarrival_cv
        )

    def test_unknown_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            common.get_workload("netflix", SCALE)


class TestBindings:
    def test_binding_shapes(self):
        requests, catalog, disks = common.get_binding("cello", 3, 1.0, SCALE)
        assert disks == common.num_disks_for(SCALE)
        assert all(
            catalog.replication_factor(d) == 3 for d in list(catalog)[:20]
        )
        assert len(requests) == common.get_workload("cello", SCALE).num_requests

    def test_binding_cached(self):
        a = common.get_binding("cello", 2, 1.0, SCALE)
        b = common.get_binding("cello", 2, 1.0, SCALE)
        assert a is b


class TestRunCell:
    def test_cell_cached(self):
        a = common.run_cell("cello", 1, "static", scale=SCALE)
        b = common.run_cell("cello", 1, "static", scale=SCALE)
        assert a is b

    def test_normalized_energy_sane(self):
        result = common.run_cell("cello", 3, "heuristic", scale=SCALE)
        assert 0.05 < result.normalized_energy < 1.3

    def test_mwis_cell_runs_offline(self):
        result = common.run_cell("cello", 2, "mwis", scale=SCALE)
        assert result.report.response_times == ()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            common.run_cell("cello", 1, "fifo", scale=SCALE)

    def test_alpha_beta_feed_heuristic(self):
        pure_energy = common.run_cell(
            "cello", 3, "heuristic", alpha=1.0, beta=100.0, scale=SCALE
        )
        pure_load = common.run_cell(
            "cello", 3, "heuristic", alpha=0.0, beta=100.0, scale=SCALE
        )
        assert (
            pure_energy.report.total_energy <= pure_load.report.total_energy
        )


class TestSchedulerFactory:
    def test_labels_cover_keys(self):
        for key in ("static", "random", "heuristic", "wsc", "mwis"):
            assert key in common.SCHEDULER_LABELS
            scheduler = common.make_scheduler_for_key(key)
            assert scheduler.name
