"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import common
from repro.experiments.harness.schema import validate_bench_file


@pytest.fixture(autouse=True)
def small_scale(monkeypatch):
    """Shrink the experiment scale so CLI tests stay fast."""
    monkeypatch.setattr(common, "SCALE", 0.05)
    common.clear_caches()
    yield
    common.clear_caches()


class TestParser:
    def test_profile_defaults_to_paper_eval(self):
        args = build_parser().parse_args(["profile"])
        assert args.name == "paper-evaluation"

    def test_figure_requires_known_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.policy == "both"
        assert args.requests == 2000
        assert args.arrival == "poisson"
        assert not args.wall

    def test_serve_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "clairvoyant"])


class TestCommands:
    def test_profile_prints_breakeven(self, capsys):
        assert main(["profile"]) == 0
        out = capsys.readouterr().out
        assert "breakeven" in out

    def test_profile_by_name(self, capsys):
        assert main(["profile", "paper-unit-model"]) == 0
        assert "paper-unit-model" in capsys.readouterr().out

    def test_simulate_prints_normalized_energy(self, capsys):
        code = main(
            ["simulate", "--scheduler", "static", "--replication", "2"]
        )
        assert code == 0
        assert "normalized energy" in capsys.readouterr().out

    def test_tiered_simulate_injects_the_fault_rate(self, capsys):
        code = main(["simulate", "--tier", "0.2", "--fault-rate", "0.001"])
        assert code == 0
        assert "availability" in capsys.readouterr().out

    def test_compare_lists_all_schedulers(self, capsys):
        assert main(["compare", "--replication", "2"]) == 0
        out = capsys.readouterr().out
        for label in ("Static", "Random", "Heuristic", "WSC", "MWIS"):
            assert label in out

    def test_figure_fig5(self, capsys):
        assert main(["figure", "fig5"]) == 0
        assert "breakeven" in capsys.readouterr().out

    def test_headline_scorecard(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "up to 55%" in out
        assert "measured" in out

    def test_serve_writes_valid_reports_for_both_policies(
        self, capsys, tmp_path
    ):
        code = main(
            [
                "serve",
                "--requests",
                "120",
                "--rate",
                "60",
                "--disks",
                "6",
                "--replication",
                "2",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("SERVE_online.json", "SERVE_micro_batch.json"):
            path = tmp_path / name
            assert path.is_file()
            assert validate_bench_file(path) == []
            document = json.loads(path.read_text())
            assert document["result"]["outcome"]["completed"] == 120
            # Virtual-clock runs must be free of wall-clock fields.
            assert document["created_unix"] == 0.0
            assert document["peak_rss_bytes"] is None
        assert "online" in out and "micro-batch" in out

    def test_serve_single_policy_is_deterministic(self, tmp_path):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        for out_dir in (first_dir, second_dir):
            code = main(
                [
                    "serve",
                    "--policy",
                    "online",
                    "--requests",
                    "80",
                    "--rate",
                    "40",
                    "--disks",
                    "6",
                    "--replication",
                    "2",
                    "--output-dir",
                    str(out_dir),
                ]
            )
            assert code == 0
        first = (first_dir / "SERVE_online.json").read_text()
        second = (second_dir / "SERVE_online.json").read_text()
        assert first == second


class TestExitCodes:
    """Every subcommand returns an explicit int status (satellite b)."""

    def test_domain_errors_exit_one(self, capsys):
        assert main(["profile", "no-such-profile"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bench_unknown_name_exits_one(self, capsys):
        assert main(["bench", "no-such-bench"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_errors_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "fig99"])
        assert excinfo.value.code == 2
