"""Every power-state change of a simulated disk goes through one method.

``SimulatedDisk._transition`` is the one place a disk writes its ledger
and its cost-column terms, so a trace of decisions or energy can hook it
alone. The test counts its calls during whole replays and checks them
against the transition logs the ledgers kept.
"""

from dataclasses import replace

import pytest

from repro.disk.drive import SimulatedDisk
from repro.experiments import pins
from repro.experiments.harness.runner import get_binding, make_config, make_scheduler
from repro.experiments.harness.spec import cell_spec
from repro.sim import simulate

SCALE = 0.05
SEED = 1

#: trace, scheduler, scale, fault plan. The fault-mix case runs the
#: fault_mix pin's own cell: its scripted drills name disks up to 13.
CASES = {
    "heuristic": ("cello", "heuristic", SCALE, None),
    "wsc": ("cello", "wsc", SCALE, None),
    "heuristic-fault-mix": (
        "financial", "heuristic", pins.FAULT_MIX_SCALE, pins.FAULT_MIX_PLAN
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_every_logged_transition_goes_through_transition(case, monkeypatch):
    trace, key, scale, plan = CASES[case]
    spec = cell_spec(trace, 3, key, scale=scale, seed=SEED)
    requests, catalog, disks = get_binding(
        spec.trace, spec.replication_factor, spec.zipf_exponent, spec.scale, spec.seed
    )
    config = replace(
        make_config(disks, spec.profile, spec.seed),
        record_transitions=True,
        fault_plan=plan,
    )
    calls = 0
    transition = SimulatedDisk._transition

    def counted(disk, new_state, now):
        nonlocal calls
        calls += 1
        transition(disk, new_state, now)

    monkeypatch.setattr(SimulatedDisk, "_transition", counted)
    report = simulate(requests, catalog, make_scheduler(spec), config)
    logged = sum(len(stats.transitions) - 1 for stats in report.disk_stats.values())
    assert logged > 1000
    assert calls == logged
