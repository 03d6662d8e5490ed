"""The fault_mix pin: every fault kind and every failure path in one run."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import pins

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "counter",
    [
        "disk_failures",
        "transient_outages",
        "spin_up_failures",
        "failover_retries",
        "requests_lost",
    ],
)
def test_fault_mix_exercises_every_path(counter: str) -> None:
    """The pinned cell kills disks, takes them down, fails spin-ups,
    backs requests off and loses some, so its digest covers each path."""
    assert pins.fault_mix_report()["availability"][counter] > 0


def test_fault_mix_matches_its_pin() -> None:
    assert pins.main(["--check", "fault_mix"], root=REPO_ROOT) == 0
