"""Tests for the headline-claims scorecard."""

import pytest

from repro.experiments import common
from repro.experiments.headline import HeadlineClaims, headline_claims


@pytest.fixture(autouse=True, scope="module")
def small_scale():
    old_scale = common.SCALE
    common.SCALE = 0.05
    common.clear_caches()
    yield
    common.SCALE = old_scale
    common.clear_caches()


def test_claims_computed_and_sane():
    claims = headline_claims("cello")
    assert 0.0 < claims.best_energy_reduction < 1.0
    assert claims.best_energy_cell[0] in ("heuristic", "wsc", "mwis")
    assert claims.best_energy_cell[1] in (1, 2, 3, 4, 5)
    assert -1.0 < claims.spin_reduction_vs_static < 1.0
    assert -1.0 < claims.response_reduction_vs_static < 1.0


def test_render_contains_all_three_claims():
    claims = headline_claims("cello")
    text = claims.render()
    assert "up to 55%" in text
    assert "fewer" in text
    assert "shorter" in text


def test_render_is_pure():
    claims = HeadlineClaims(
        trace="cello",
        best_energy_reduction=0.42,
        best_energy_cell=("wsc", 5),
        spin_reduction_vs_static=0.3,
        response_reduction_vs_static=0.25,
    )
    text = claims.render()
    assert "42%" in text
    assert "30% fewer" in text
    assert "25% shorter" in text
