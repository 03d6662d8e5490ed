"""Tests for power-management policies."""

import pytest

from repro.errors import ConfigurationError
from repro.power.policy import (
    AlwaysOnPolicy,
    ScaledBreakevenPolicy,
    TwoCompetitivePolicy,
)
from repro.power.profile import BARRACUDA, PAPER_UNIT


class TestTwoCompetitive:
    def test_timeout_is_breakeven(self):
        policy = TwoCompetitivePolicy()
        assert policy.idle_timeout(BARRACUDA) == pytest.approx(
            BARRACUDA.breakeven_time
        )

    def test_respects_override(self):
        assert TwoCompetitivePolicy().idle_timeout(PAPER_UNIT) == 5.0

    def test_name(self):
        assert TwoCompetitivePolicy().name == "2CPM"


class TestAlwaysOn:
    def test_never_times_out(self):
        assert AlwaysOnPolicy().idle_timeout(BARRACUDA) is None


class TestScaledBreakeven:
    def test_scales_breakeven(self):
        policy = ScaledBreakevenPolicy(0.5)
        assert policy.idle_timeout(BARRACUDA) == pytest.approx(
            BARRACUDA.breakeven_time / 2
        )

    def test_factor_one_matches_2cpm(self):
        assert ScaledBreakevenPolicy(1.0).idle_timeout(BARRACUDA) == (
            TwoCompetitivePolicy().idle_timeout(BARRACUDA)
        )

    def test_negative_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            ScaledBreakevenPolicy(-0.1)
