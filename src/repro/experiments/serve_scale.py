"""Serve scale-out: aggregate throughput across 1/2/4/8 shards.

The same open-loop workload is served by sharded deployments of growing
width; every cell is one full multi-process run through the consistent-
hash router (:mod:`repro.serve.shard`). Two throughput readings per
cell:

* **wall** — engine events per raw router wall second. Honest but
  machine-bound: on a single-core host the workers time-slice and the
  wall rate barely moves with the shard count.
* **critical path** — engine events per ``router overhead + slowest
  shard compute`` second, each term measured in-process. This is the
  quantity an N-core host's wall clock approaches, and the one that
  shows near-linear scale-out on any machine: each shard owns ~1/N of
  the keyspace, so the slowest shard's compute shrinks ~linearly.

The ``speedup (critical path)`` panel is the acceptance gate: 4 shards
must clear 3x over the 1-shard cell of the same policy. Outcome quality
(completed fraction) is reported alongside to show scale-out does not
trade away availability.

The **degraded** panels rerun the multi-shard cells with cross-shard
replication on (``shard_replication_factor = 2``) and the last shard
SIGKILLed mid-schedule, unsupervised: every request fails over to the
surviving replica shards. They report what the self-healing tier costs
and buys — throughput with a shard-sized hole in the fleet, and the
availability the replicas preserve through it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.ablations import AblationResult, Panel
from repro.serve.loadgen import LoadgenConfig, tally_outcomes
from repro.serve.service import POLICIES
from repro.serve.shard import ShardKill, ShardedServiceConfig, run_sharded

#: Deployment widths of the sweep columns.
SCALE_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)

#: Fleet size: divisible by every shard count, and 8 shards still hold
#: 6 disks each — double the replication factor.
SCALE_DISKS = 48

#: Data population (spread across shards by the routing ring).
SCALE_DATA = 4_000

#: Requests per cell at scale 1.0.
SCALE_REQUESTS = 6_000

#: Mean Poisson arrival rate (requests/second).
SCALE_RATE_PER_S = 300.0

#: Timing rounds per policy. Outcomes are identical across rounds (the
#: virtual timeline is deterministic); only the CPU-clock readings vary
#: with machine conditions. Each round runs the *whole* shard-count
#: column back to back, so the speedup ratio is paired — host-speed
#: drift between cells minutes apart cancels out of the ratio — and
#: each cell/ratio reports its best round.
SCALE_REPEATS = 3


def run_serve_scale(
    scale: Optional[float] = None,
    shard_counts: Sequence[int] = SCALE_SHARD_COUNTS,
    seed: int = 3,
    multiprocess: bool = True,
    repeats: int = SCALE_REPEATS,
) -> AblationResult:
    """Sweep shard counts across both serving policies.

    Args:
        scale: Optional multiplier on the per-cell request count (the
            bench tier's usual knob; ``None`` = 1.0).
        shard_counts: Deployment widths to sweep.
        seed: Deployment + workload base seed.
        multiprocess: Worker processes (the default, and the point);
            False runs the serial reference path, where the critical
            path degenerates to the wall path.
        repeats: Timing rounds per policy; each round measures every
            shard count back to back and the speedup is the best
            *paired* ratio across rounds.
    """
    num_requests = max(1, round(SCALE_REQUESTS * (scale if scale else 1.0)))
    rounds = max(1, repeats)
    wall_rate: Dict[str, List[float]] = {}
    critical_rate: Dict[str, List[float]] = {}
    speedup: Dict[str, List[float]] = {}
    completed_fraction: Dict[str, List[float]] = {}
    degraded_rate: Dict[str, List[float]] = {}
    degraded_availability: Dict[str, List[float]] = {}
    # Degraded cells need >= 2 shards (replicas must span shards) and
    # real worker processes (a serial run cannot lose one).
    degraded_counts = (
        [n for n in shard_counts if n >= 2] if multiprocess else []
    )
    events = 0
    for policy in POLICIES:
        load = LoadgenConfig(
            num_requests=num_requests,
            rate_per_s=SCALE_RATE_PER_S,
            num_clients=8,
            seed=seed * 31 + 7,
        )
        # round_critical[r][i]: critical-path rate of shard_counts[i]
        # in timing round r (same column, seconds apart — paired).
        round_critical: List[List[float]] = []
        round_wall: List[List[float]] = []
        fractions: List[float] = []
        for _round in range(rounds):
            column_critical: List[float] = []
            column_wall: List[float] = []
            fractions = []
            for num_shards in shard_counts:
                config = ShardedServiceConfig(
                    policy=policy,
                    num_shards=num_shards,
                    num_disks=SCALE_DISKS,
                    num_data=SCALE_DATA,
                    seed=seed,
                )
                run = run_sharded(config, load, multiprocess=multiprocess)
                events += run.events_processed
                column_critical.append(run.events_per_sec_critical)
                column_wall.append(run.events_per_sec_wall)
                fractions.append(
                    tally_outcomes(run.outcomes).completed_fraction
                )
            round_critical.append(column_critical)
            round_wall.append(column_wall)
        wall_rate[policy] = [
            max(column[i] for column in round_wall)
            for i in range(len(shard_counts))
        ]
        critical_rate[policy] = [
            max(column[i] for column in round_critical)
            for i in range(len(shard_counts))
        ]
        speedup[policy] = [
            max(
                column[i] / column[0] if column[0] > 0 else 0.0
                for column in round_critical
            )
            for i in range(len(shard_counts))
        ]
        completed_fraction[policy] = fractions
        degraded_column: List[float] = []
        degraded_avail_column: List[float] = []
        for num_shards in degraded_counts:
            config = ShardedServiceConfig(
                policy=policy,
                num_shards=num_shards,
                num_disks=SCALE_DISKS,
                num_data=SCALE_DATA,
                shard_replication_factor=2,
                seed=seed,
            )
            # Fell the last shard halfway through the schedule; its
            # whole keyspace must ride the replicas from then on.
            kill = ShardKill(
                shard_id=num_shards - 1,
                time_s=num_requests / SCALE_RATE_PER_S / 2.0,
            )
            run = run_sharded(config, load, kills=(kill,))
            events += run.events_processed
            degraded_column.append(run.events_per_sec_critical)
            degraded_avail_column.append(run.availability)
        degraded_rate[policy] = degraded_column
        degraded_availability[policy] = degraded_avail_column
    degraded_panels = (
        [
            Panel(
                name=(
                    "serve scale degraded: events/s (critical path, "
                    "R=2, one shard killed mid-run)"
                ),
                x_label="shards",
                x_values=[float(n) for n in degraded_counts],
                series=degraded_rate,
                precision=0,
            ),
            Panel(
                name=(
                    "serve scale degraded: availability "
                    "(R=2, one shard killed mid-run)"
                ),
                x_label="shards",
                x_values=[float(n) for n in degraded_counts],
                series=degraded_availability,
                precision=4,
            ),
        ]
        if degraded_counts
        else []
    )
    return AblationResult(
        ablation_id="serve_scale",
        title=(
            f"serve scale-out ({num_requests} requests, {SCALE_DISKS} disks, "
            f"{'multiprocess' if multiprocess else 'serial'} shards)"
        ),
        panels=[
            Panel(
                name="serve scale: events/s (critical path)",
                x_label="shards",
                x_values=[float(n) for n in shard_counts],
                series=critical_rate,
                precision=0,
            ),
            Panel(
                name="serve scale: speedup vs 1 shard (critical path)",
                x_label="shards",
                x_values=[float(n) for n in shard_counts],
                series=speedup,
                precision=2,
            ),
            Panel(
                name="serve scale: events/s (raw wall)",
                x_label="shards",
                x_values=[float(n) for n in shard_counts],
                series=wall_rate,
                precision=0,
            ),
            Panel(
                name="serve scale: completed fraction of offered",
                x_label="shards",
                x_values=[float(n) for n in shard_counts],
                series=completed_fraction,
                precision=4,
            ),
            *degraded_panels,
        ],
        events_processed=events,
    )


__all__ = [
    "SCALE_DATA",
    "SCALE_DISKS",
    "SCALE_RATE_PER_S",
    "SCALE_REPEATS",
    "SCALE_REQUESTS",
    "SCALE_SHARD_COUNTS",
    "run_serve_scale",
]
