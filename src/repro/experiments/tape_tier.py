"""Tape tier sweep: energy vs latency across tier splits and sequencers.

The cold-tier reading of the paper's energy/latency trade: the same
Zipf-skewed read workload served by (a) an all-disk fleet and (b) a
tiered fleet where only the hottest ids stay on disk and the cold tail
moves to one tape drive (see :mod:`repro.tape`). Every cell is one
deterministic event-driven run; the all-disk reference goes through the
*same* tiered harness at ``hot_fraction=1.0`` so both configurations pay
identical horizons and identical (idle) tape-drive power — the
comparison isolates the routing decision.

Expected panel shapes:

* **total energy** falls below the all-disk line at small hot fractions:
  cold requests stop waking standby disks (each wake is a ~360 J spin-up
  plus an idle tail), and the single tape drive serves them at a
  bounded ~27 W winding ceiling. Larger hot fractions converge back to
  the all-disk line from above (few tape requests left to amortise the
  drive).
* **mean response time** is the price: tape requests wait for winds and
  queue behind each other, so the mean grows as more of the tail goes
  to tape. This is the energy-for-latency trade, archival edition.
* **completed fraction** exposes sequencing quality: ``fifo`` random-
  walks the tape and saturates (it never drains the trace), while
  ``nearest``/``scan``/``ltsp`` amortise each batch into short sweeps
  and complete everything — the Linear Tape Scheduling Problem made
  visible (arXiv:2112.07018).
* **seek distance** separates the planners from the baseline: planned
  orders wind less tape per completed request.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.core.heuristic import HeuristicScheduler
from repro.experiments import common
from repro.experiments.ablations import AblationResult, Panel
from repro.placement.catalog import PlacementCatalog
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.placement.zipf import ZipfSampler
from repro.report import SimulationReport
from repro.sim.config import SimulationConfig
from repro.sim.runner import simulate
from repro.tape.config import TierConfig
from repro.types import OpKind, Request

#: Disks in both configurations (the tiered cells keep the full fleet —
#: the tier changes routing, not hardware).
TIER_NUM_DISKS = 24

#: Distinct data ids; the Zipf tail past the hot set is the cold data.
TIER_NUM_IDS = 2000

#: Requests per cell at scale 1.0.
TIER_REQUESTS = 6_000

#: Mean Poisson arrival rate in requests/second — low enough that disks
#: sleep between cold accesses (the spin-up-dominated regime the paper's
#: 2CPM policy targets), high enough that tape batches amortise.
TIER_RATE_PER_S = 2.0

#: Hot-set fractions swept (fraction of ids kept on disk).
TIER_HOT_FRACTIONS = (0.05, 0.1, 0.2)

#: Sequencer families compared (the full registry at time of writing).
TIER_SEQUENCERS = ("fifo", "nearest", "scan", "ltsp")

#: Replication factor of the disk placement.
TIER_REPLICATION = 2

#: Request size in bytes (modest objects; tape reads stream them fast,
#: the cost is all in the wind).
TIER_SIZE_BYTES = 512 * 1024

#: Series label of the all-disk reference (``hot_fraction=1.0``).
ALL_DISK_SERIES = "all_disk"


def _workload(num_requests: int, seed: int) -> List[Request]:
    """Poisson arrivals over a Zipf-skewed id space, fully seeded."""
    arrival_rng = random.Random(seed)
    sampler = ZipfSampler(TIER_NUM_IDS, 1.0)
    sample_rng = random.Random(seed * 31 + 7)
    requests: List[Request] = []
    time_s = 0.0
    for request_id in range(num_requests):
        time_s += arrival_rng.expovariate(TIER_RATE_PER_S)
        requests.append(
            Request(
                time=time_s,
                request_id=request_id,
                data_id=sampler.sample(sample_rng),
                size_bytes=TIER_SIZE_BYTES,
                op=OpKind.READ,
            )
        )
    return requests


def _run_cell(
    requests: Sequence[Request],
    catalog: PlacementCatalog,
    hot_fraction: float,
    sequencer: str,
    seed: int,
) -> SimulationReport:
    config = SimulationConfig(
        num_disks=TIER_NUM_DISKS,
        seed=seed,
        tier=TierConfig(hot_fraction=hot_fraction, sequencer=sequencer),
    )
    return simulate(requests, catalog, HeuristicScheduler(), config)


def run_tape_tier(
    scale: Optional[float] = None,
    hot_fractions: Sequence[float] = TIER_HOT_FRACTIONS,
    sequencers: Sequence[str] = TIER_SEQUENCERS,
    seed: Optional[int] = None,
) -> AblationResult:
    """Sweep hot fractions across the sequencer families.

    Args:
        scale: Multiplier on the per-cell request count (default: the
            campaign's scale).
        hot_fractions: Fractions of the id space kept on disk.
        sequencers: Sequencer family names to compare.
        seed: Workload + simulation base seed (default: the campaign's).
    """
    scale, seed = common.knobs(scale, seed)
    num_requests = max(1, round(TIER_REQUESTS * scale))
    requests = _workload(num_requests, seed)
    catalog = ZipfOriginalUniformReplicas(
        replication_factor=TIER_REPLICATION
    ).place(
        list(range(TIER_NUM_IDS)), TIER_NUM_DISKS, random.Random(seed * 13 + 5)
    )
    fractions = list(hot_fractions)

    reference = _run_cell(requests, catalog, 1.0, "nearest", seed)
    total_energy_j: Dict[str, List[float]] = {
        ALL_DISK_SERIES: [reference.total_energy] * len(fractions)
    }
    mean_response_s: Dict[str, List[float]] = {
        ALL_DISK_SERIES: [reference.mean_response_time] * len(fractions)
    }
    completed_fraction: Dict[str, List[float]] = {
        ALL_DISK_SERIES: [
            reference.requests_completed / max(1, reference.requests_offered)
        ]
        * len(fractions)
    }
    seek_distance_m: Dict[str, List[float]] = {}
    events = reference.events_processed

    for sequencer in sequencers:
        total_energy_j[sequencer] = []
        mean_response_s[sequencer] = []
        completed_fraction[sequencer] = []
        seek_distance_m[sequencer] = []
        for hot_fraction in fractions:
            report = _run_cell(
                requests, catalog, hot_fraction, sequencer, seed
            )
            events += report.events_processed
            tape = report.tape
            assert tape is not None
            total_energy_j[sequencer].append(report.total_energy)
            mean_response_s[sequencer].append(report.mean_response_time)
            completed_fraction[sequencer].append(
                report.requests_completed / max(1, report.requests_offered)
            )
            seek_distance_m[sequencer].append(tape.seek_distance_m)

    return AblationResult(
        ablation_id="tape_tier",
        title=(
            f"tape tier sweep ({num_requests} requests at "
            f"{TIER_RATE_PER_S}/s, {TIER_NUM_DISKS} disks, 1 tape drive)"
        ),
        panels=[
            Panel(
                name="tape tier: total energy (J)",
                x_label="hot fraction",
                x_values=fractions,
                series=total_energy_j,
                precision=0,
            ),
            Panel(
                name="tape tier: mean response time (s)",
                x_label="hot fraction",
                x_values=fractions,
                series=mean_response_s,
                precision=3,
            ),
            Panel(
                name="tape tier: completed fraction of offered",
                x_label="hot fraction",
                x_values=fractions,
                series=completed_fraction,
                precision=4,
            ),
            Panel(
                name="tape tier: tape seek distance (m)",
                x_label="hot fraction",
                x_values=fractions,
                series=seek_distance_m,
                precision=0,
            ),
        ],
        events_processed=events,
    )


__all__ = [
    "ALL_DISK_SERIES",
    "TIER_HOT_FRACTIONS",
    "TIER_NUM_DISKS",
    "TIER_NUM_IDS",
    "TIER_RATE_PER_S",
    "TIER_REPLICATION",
    "TIER_REQUESTS",
    "TIER_SEQUENCERS",
    "TIER_SIZE_BYTES",
    "run_tape_tier",
]
