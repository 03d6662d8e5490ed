"""Bench-registry grouping and the tape_tier digest pin.

``repro-storage bench list`` groups bench ids by family so the tape
benches are discoverable next to the figure/ablation/serve tiers; the
pin registry (:mod:`repro.experiments.pins`) pins the tape_tier sweep
digest the same way it pins fig6 and the shard smokes. Both contracts
are cheap to regress and load-bearing for CI, so they get their own
tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

import pytest

from repro.cli import main as cli_main
from repro.experiments.harness import bench as bench_mod
from repro.experiments import pins

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_bench_list_groups_ids_by_family(
    capsys: "pytest.CaptureFixture[str]",
) -> None:
    assert cli_main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    headers = [line for line in lines if line and not line.startswith(" ")]
    # Families print in registry order, each id indented under its own.
    assert headers == [f"{family}:" for family in bench_mod.BENCH_FAMILIES]
    grouped: Dict[str, List[str]] = {}
    family = ""
    for line in lines:
        if not line:
            continue
        if not line.startswith(" "):
            family = line.rstrip(":")
            grouped[family] = []
        else:
            grouped[family].append(line.split()[0])
    assert "tape_tier" in grouped["tape"]
    assert "serve_sweep" in grouped["serve"]
    assert "fault_sweep" in grouped["ablations"]
    assert "headline" in grouped["figures"]
    # Grouping must not drop or duplicate ids.
    flat: List[str] = [bench_id for ids in grouped.values() for bench_id in ids]
    assert sorted(flat) == sorted(bench_mod.BENCHES)


def test_every_bench_family_is_registered() -> None:
    for definition in bench_mod.BENCHES.values():
        assert definition.family in bench_mod.BENCH_FAMILIES


def test_smoke_digest_is_stable_and_pins_round_trip(
    tmp_path: Path, capsys: "pytest.CaptureFixture[str]"
) -> None:
    assert pins.main(["--write", "tape_tier"], root=tmp_path) == 0
    written = pins.pinned("tape_tier", root=tmp_path)
    assert written == pins.PINS["tape_tier"].produce()
    assert pins.main(["--check", "tape_tier"], root=tmp_path) == 0
    assert "pin ok" in capsys.readouterr().out


def test_smoke_check_fails_on_a_stale_pin(
    tmp_path: Path, capsys: "pytest.CaptureFixture[str]"
) -> None:
    pin = tmp_path / pins.PINS["tape_tier"].path
    pin.parent.mkdir(parents=True)
    pin.write_text("0" * 64 + "\n")
    assert pins.main(["--check", "tape_tier"], root=tmp_path) == 1
    assert "digest mismatch" in capsys.readouterr().err


def test_committed_pin_matches_the_default_smoke_cell() -> None:
    assert pins.main(["--check", "tape_tier"], root=REPO_ROOT) == 0
