"""Cross-scheduler invariants promoted from the figure benches (tier 1).

The full Fig. 6/7/8 assertions live in ``benchmarks/``; this module
keeps the load-bearing physics in the fast test tier at
``REPRO_SCALE=0.05``. Tolerances are *measured* at this scale (cello,
seed 1): rf=1 parity is exact; at rf=5 MWIS (0.597) lands slightly above
WSC (0.575), hence the 0.03 slack on the offline bound; WSC trails the
Heuristic by up to 0.052 at rf=3, hence the 0.06 slack there.
"""

import pytest

from repro.experiments import common

SCALE = 0.05


@pytest.fixture(autouse=True)
def small_scale():
    previous = common.SCALE
    common.SCALE = SCALE
    yield
    common.SCALE = previous


def _energy(replication_factor, key):
    return common.run_cell(
        "cello", replication_factor, key
    ).normalized_energy


class TestReplicationOneParity:
    """rf=1 leaves no scheduling choice: simulated runs must coincide."""

    def test_single_choice_schedulers_identical(self):
        energies = {
            key: _energy(1, key) for key in ("random", "static", "heuristic")
        }
        reference = energies["static"]
        for key, value in energies.items():
            assert value == pytest.approx(reference, rel=1e-9), key

    def test_wsc_energy_matches_despite_batching(self):
        # Batching delays service but the chosen disk is still forced.
        assert _energy(1, "wsc") == pytest.approx(_energy(1, "static"), rel=0.02)

    def test_response_parity(self):
        responses = [
            common.run_cell("cello", 1, key).mean_response_time
            for key in ("random", "static", "heuristic")
        ]
        for value in responses[1:]:
            assert value == pytest.approx(responses[0], rel=1e-9)


class TestEnergyOrdering:
    """Fig. 6's cross-scheduler ordering, at a common scale."""

    @pytest.mark.parametrize("replication_factor", (3, 5))
    def test_offline_mwis_bounds_online(self, replication_factor):
        mwis = _energy(replication_factor, "mwis")
        wsc = _energy(replication_factor, "wsc")
        heuristic = _energy(replication_factor, "heuristic")
        assert mwis <= wsc + 0.03
        assert mwis <= heuristic + 0.03
        assert wsc <= heuristic + 0.06

    @pytest.mark.parametrize("replication_factor", (3, 5))
    def test_energy_aware_beat_random(self, replication_factor):
        random_ = _energy(replication_factor, "random")
        assert _energy(replication_factor, "heuristic") < random_ - 0.1
        assert _energy(replication_factor, "wsc") < random_ - 0.1

    def test_replication_helps_energy_aware(self):
        assert _energy(5, "heuristic") < _energy(1, "heuristic") - 0.15
        assert _energy(5, "wsc") < _energy(1, "wsc") - 0.15


class TestSpinOperations:
    """Fig. 7's spin-count physics."""

    def test_always_on_never_spins(self):
        baseline = common.get_baseline("cello")
        assert baseline.spin_operations == 0

    def test_energy_aware_spin_less_than_static_at_high_replication(self):
        static = common.run_cell("cello", 5, "static").spin_operations
        assert common.run_cell("cello", 5, "heuristic").spin_operations < static
        assert common.run_cell("cello", 5, "wsc").spin_operations < static


class TestResponseOrdering:
    """Fig. 8: energy-aware schedulers answer faster than the baselines."""

    @pytest.mark.parametrize("replication_factor", (3, 5))
    def test_heuristic_and_wsc_beat_static(self, replication_factor):
        static = common.run_cell(
            "cello", replication_factor, "static"
        ).mean_response_time
        for key in ("heuristic", "wsc"):
            result = common.run_cell("cello", replication_factor, key)
            assert result.mean_response_time < static


class TestEventsAccounting:
    """The events_processed counter rides along with every report."""

    def test_simulated_cells_count_events(self):
        result = common.run_cell("cello", 3, "heuristic")
        assert result.report.events_processed > 0

    def test_baseline_counts_events(self):
        assert common.get_baseline("cello").events_processed > 0

    def test_offline_mwis_reports_zero_events(self):
        # Analytically evaluated: no simulator runs, no events.
        result = common.run_cell("cello", 2, "mwis")
        assert result.report.events_processed == 0
