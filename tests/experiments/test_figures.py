"""Tests for the per-figure experiment entry points (small scale)."""

import pytest

from repro.experiments import common, figures


@pytest.fixture(autouse=True, scope="module")
def small_scale():
    """Run every figure at a tiny scale; restore afterwards."""
    old_scale = common.SCALE
    common.SCALE = 0.05
    common.clear_caches()
    yield
    common.SCALE = old_scale
    common.clear_caches()


class TestFig5:
    def test_describes_profile(self):
        text = figures.fig5()
        assert "breakeven" in text


class TestFig6:
    def test_series_complete(self):
        result = figures.fig6()
        assert result.x_values == (1, 2, 3, 4, 5)
        assert len(result.series) == 5
        for values in result.series.values():
            assert len(values) == 5
            assert all(v > 0 for v in values)

    def test_static_flat(self):
        result = figures.fig6()
        static = result.series[common.SCHEDULER_LABELS["static"]]
        assert max(static) - min(static) < 0.08

    def test_energy_aware_declines(self):
        result = figures.fig6()
        heuristic = result.series[common.SCHEDULER_LABELS["heuristic"]]
        assert heuristic[-1] < heuristic[0]

    def test_render_is_tabular(self):
        text = figures.fig6().render()
        assert "replication" in text
        assert "fig6" in text


class TestFig7:
    def test_static_normalised_to_one(self):
        result = figures.fig7()
        static = result.series[common.SCHEDULER_LABELS["static"]]
        assert all(v == pytest.approx(1.0) for v in static)


class TestFig8:
    def test_response_times_positive(self):
        result = figures.fig8()
        for values in result.series.values():
            assert all(v >= 0 for v in values)

    def test_mwis_omitted(self):
        result = figures.fig8()
        assert common.SCHEDULER_LABELS["mwis"] not in result.series


class TestFig9:
    def test_panels_have_all_disks(self):
        result = figures.fig9()
        disks = common.num_disks_for(common.SCALE)
        for fractions in result.panels.values():
            assert len(fractions) == disks

    def test_fractions_sum_to_one(self):
        result = figures.fig9()
        for fractions in result.panels.values():
            for disk_fraction in fractions:
                assert sum(disk_fraction.values()) == pytest.approx(1.0)

    def test_render(self):
        assert "fig9" in figures.fig9().render()


class TestFig10:
    def test_three_panels_over_grid(self):
        panels = figures.fig10(z_grid=(0.0, 1.0), rf_grid=(1, 3))
        assert set(panels) == {"random", "static", "heuristic"}
        for panel in panels.values():
            assert len(panel.series) == 2


class TestFig11:
    def test_energy_and_response_normalised_to_alpha0(self):
        energy, response = figures.fig11(
            alpha_grid=(0.0, 1.0), beta_grid=(100.0,)
        )
        assert energy.series["beta=100"][0] == pytest.approx(1.0)
        assert response.series["beta=100"][0] == pytest.approx(1.0)

    def test_energy_falls_with_alpha(self):
        energy, _response = figures.fig11(
            alpha_grid=(0.0, 1.0), beta_grid=(100.0,)
        )
        series = energy.series["beta=100"]
        assert series[-1] <= series[0] + 1e-9


class TestFig12:
    def test_probabilities_monotone(self):
        result = figures.fig12()
        for values in result.series.values():
            assert values == sorted(values, reverse=True)
            assert all(0.0 <= v <= 1.0 for v in values)


class TestFig13:
    def test_p90_positive(self):
        result = figures.fig13()
        for values in result.series.values():
            assert all(v >= 0 for v in values)


class TestFinancialVariants:
    def test_fig14_shape(self):
        result = figures.fig14()
        heuristic = result.series[common.SCHEDULER_LABELS["heuristic"]]
        assert heuristic[-1] < heuristic[0]

    def test_fig16_response_below_cello(self):
        """Financial1's steadier arrivals give lower response times."""
        cello = figures.fig8()
        financial = figures.fig16()
        label = common.SCHEDULER_LABELS["static"]
        assert (
            sum(financial.series[label]) <= sum(cello.series[label]) + 1e-9
        )


class TestDispatch:
    def test_run_figure_known(self):
        assert figures.run_figure("fig5")

    def test_run_figure_unknown(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            figures.run_figure("fig1")
