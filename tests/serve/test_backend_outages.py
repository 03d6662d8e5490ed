"""A transient outage process on the serving backend, which has no
horizon: each disk holds one drawn outage at a time, and the process
runs for as long as the service clock does."""

from __future__ import annotations

from repro.faults.plan import FaultPlan, TransientFaults
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_UNIT
from repro.serve.backend import SimBackend
from repro.sim.config import SimulationConfig

NUM_DISKS = 3


def _backend() -> SimBackend:
    config = SimulationConfig(
        num_disks=NUM_DISKS,
        profile=PAPER_UNIT,
        fault_plan=FaultPlan(
            seed=1, transient=TransientFaults(mtbf_s=100.0, mean_repair_s=1.0)
        ),
    )
    return SimBackend(
        PlacementCatalog({0: [0, 1, 2]}),
        config,
        on_complete=lambda request, disk_id, now: None,
        on_lost=lambda request, now: None,
    )


def test_construction_posts_one_outage_per_disk() -> None:
    backend = _backend()
    assert backend.engine.pending_events <= 2 * NUM_DISKS


def test_outages_continue_for_as_long_as_the_clock_runs() -> None:
    backend = _backend()
    backend.advance_to(2e6)
    report = backend.availability_report()
    assert report is not None
    # About 2e6 s / 101 s per cycle on each of three disks; an up-front
    # schedule capped at 10,000 outages per disk would stop at 30,000.
    assert report.transient_outages > 30_000
    assert backend.engine.pending_events <= 2 * NUM_DISKS
