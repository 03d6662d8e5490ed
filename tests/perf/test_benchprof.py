"""Bench profiling path behind ``repro-storage profile <bench-id>``."""

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.perf.benchprof import profile_bench


def test_unknown_bench_id_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="unknown bench"):
        profile_bench("not-a-bench")


def test_specless_bench_is_a_configuration_error():
    # fig5 recomputes a table without running specs: nothing to profile.
    with pytest.raises(ConfigurationError, match="no runnable specs"):
        profile_bench("fig5")


def test_cli_profile_power_profile_still_works(capsys):
    assert main(["profile", "paper-evaluation"]) == 0
    assert "paper-evaluation" in capsys.readouterr().out


def test_cli_profile_bench_id_prints_top_table(capsys):
    """The acceptance path: ``repro-storage profile fig6`` exits 0 and
    prints the cProfile cumulative table."""
    assert main(["profile", "fig6", "--scale", "0.05", "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "profiled" in out
    assert "execute_spec" in out  # the per-spec root row
    assert "cumulative" in out  # pstats table header


def test_cli_profile_unknown_name_fails_cleanly(capsys):
    assert main(["profile", "no-such-thing"]) == 1
    assert "error:" in capsys.readouterr().err
