"""Tiered disk+tape system tests: routing, promotion, reports, bytes.

Small deterministic workloads (a few hundred requests over a few dozen
ids) drive the full :class:`~repro.tape.tier.TieredStorageSystem` stack
— engine, disk tier, tape drives, sequencer — and check the accounting
identities, the report payload contract (the ``tape`` key is strictly
additive), and same-seed byte stability.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List

import pytest

from repro.core.heuristic import HeuristicScheduler
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.harness.serialize import (
    canonical_report_json,
    report_from_payload,
    report_to_payload,
)
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.placement.catalog import PlacementCatalog
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.placement.zipf import ZipfSampler
from repro.sim.config import SimulationConfig
from repro.sim.runner import simulate
from repro.tape.config import TierConfig
from repro.tape.tier import TieredStorageSystem
from repro.types import OpKind, Request

NUM_DISKS = 4
NUM_IDS = 60
NUM_REQUESTS = 250


def _workload(seed: int = 3) -> List[Request]:
    arrival_rng = random.Random(seed)
    sampler = ZipfSampler(NUM_IDS, 1.0)
    sample_rng = random.Random(seed + 1)
    requests: List[Request] = []
    time_s = 0.0
    for request_id in range(NUM_REQUESTS):
        time_s += arrival_rng.expovariate(2.0)
        requests.append(
            Request(
                time=time_s,
                request_id=request_id,
                data_id=sampler.sample(sample_rng),
                size_bytes=256 * 1024,
                op=OpKind.READ,
            )
        )
    return requests


def _catalog(seed: int = 3) -> PlacementCatalog:
    return ZipfOriginalUniformReplicas(replication_factor=2).place(
        list(range(NUM_IDS)), NUM_DISKS, random.Random(seed + 2)
    )


def _config(hot_fraction: float = 0.2, sequencer: str = "nearest") -> SimulationConfig:
    return SimulationConfig(
        num_disks=NUM_DISKS,
        seed=7,
        tier=TierConfig(hot_fraction=hot_fraction, sequencer=sequencer),
    )


def test_tier_split_accounts_for_every_request() -> None:
    report = simulate(_workload(), _catalog(), HeuristicScheduler(), _config())
    tape = report.tape
    assert tape is not None
    assert tape.requests_to_disk + tape.requests_to_tape == report.requests_offered
    assert tape.requests_to_tape > 0  # the cold tail actually goes to tape
    # The drain slack lets the planned sequencer finish everything.
    assert tape.tape_requests_completed == tape.requests_to_tape
    assert report.requests_completed == report.requests_offered
    assert len(tape.tape_response_times) == tape.tape_requests_completed
    assert tape.mounts >= 1
    assert tape.tape_energy > 0.0
    assert report.total_energy > tape.tape_energy  # disks still burn joules


def test_promote_on_access_keeps_the_hot_set_bounded() -> None:
    system = TieredStorageSystem(_catalog(), HeuristicScheduler(), _config(0.1))
    report = system.run(_workload())
    tape = report.tape
    assert tape is not None
    assert tape.promotions > 0
    assert tape.demotions == tape.promotions  # the set was full at seed time
    assert len(system.hot_ids) <= tape.hot_capacity
    assert "+tape-nearest" in report.scheduler_name


def test_disk_only_payload_has_no_tape_key() -> None:
    config = SimulationConfig(num_disks=NUM_DISKS, seed=7)
    report = simulate(_workload(), _catalog(), HeuristicScheduler(), config)
    assert report.tape is None
    assert "tape" not in report_to_payload(report)


def test_tiered_report_round_trips_through_the_payload() -> None:
    report = simulate(_workload(), _catalog(), HeuristicScheduler(), _config())
    restored = report_from_payload(report_to_payload(report))
    assert restored.tape is not None
    assert canonical_report_json(restored) == canonical_report_json(report)
    assert restored.tape.sequencer == "nearest"
    assert restored.tape.state_time_s == dict(report.tape.state_time_s)  # type: ignore[union-attr]


@pytest.mark.parametrize("sequencer", ["fifo", "nearest", "scan", "ltsp"])
def test_same_seed_tiered_runs_are_byte_identical(sequencer: str) -> None:
    first = simulate(
        _workload(), _catalog(), HeuristicScheduler(), _config(0.15, sequencer)
    )
    second = simulate(
        _workload(), _catalog(), HeuristicScheduler(), _config(0.15, sequencer)
    )
    assert canonical_report_json(first) == canonical_report_json(second)


def test_a_hot_tier_disk_death_fails_over_inside_the_tiered_run() -> None:
    healthy = simulate(_workload(), _catalog(), HeuristicScheduler(), _config())
    config = replace(
        _config(), fault_plan=FaultPlan(scripted=(ScriptedFault(0, 40.0),))
    )
    report = simulate(_workload(), _catalog(), HeuristicScheduler(), config)
    availability = report.availability
    assert availability is not None
    assert availability.disk_failures == 1
    assert (
        report.requests_completed + availability.requests_lost
        == report.requests_offered
    )
    # Routing by temperature does not depend on disk health.
    assert report.tape is not None and healthy.tape is not None
    assert report.tape.requests_to_tape == healthy.tape.requests_to_tape


def test_tiered_system_requires_a_tier_config() -> None:
    with pytest.raises(ConfigurationError):
        TieredStorageSystem(
            _catalog(),
            HeuristicScheduler(),
            SimulationConfig(num_disks=NUM_DISKS, seed=7),
        )


def test_tiered_system_is_single_use() -> None:
    system = TieredStorageSystem(_catalog(), HeuristicScheduler(), _config())
    system.run(_workload())
    with pytest.raises(SimulationError):
        system.run(_workload())
