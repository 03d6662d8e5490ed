"""Digest pins: one registry of committed digests, one write/check CLI.

A pin is the committed SHA-256 of a deterministic producer's canonical
output; any later run must reproduce it bit for bit. A mismatch means
something changed an observable result, which the determinism contract
forbids unless the pin is rewritten on purpose (``--write``) in the
commit that moved it. :data:`PINS` maps each pin name to its committed
file and its producer. From the repository root::

    python -m repro.experiments.pins --check [NAME ...]   # default: all
    python -m repro.experiments.pins --write NAME
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from repro.experiments.ablations import run_mwis_solver, run_threshold
from repro.experiments.fault_sweep import fault_sweep_cells
from repro.experiments.figures import energy_cells
from repro.experiments.harness import RunSpec, canonical_json, execute_spec
from repro.experiments.harness.bench import ablation_result_payload
from repro.experiments.harness.runner import get_binding, make_config, make_scheduler
from repro.experiments.harness.schema import document_digest
from repro.experiments.harness.serialize import report_to_payload, sha256_hex
from repro.experiments.harness.spec import cell_spec
from repro.experiments.tape_tier import run_tape_tier
from repro.faults.plan import (
    FaultPlan,
    PermanentFaults,
    ScriptedFault,
    SpinUpFaults,
    TransientFaults,
)
from repro.serve import LoadgenConfig, ServiceConfig, serve_session, virtual_run
from repro.serve.shard import ShardedServiceConfig, run_sharded, sharded_document
from repro.sim.runner import simulate

#: fig6 smoke cell: the cell sizes bench-smoke runs.
FIG6_SCALE = 0.05
FIG6_SEED = 1

#: fault_sweep smoke cells: fault-injected replays at the fig6 size.
FAULT_SWEEP_SCALE = 0.05
FAULT_SWEEP_SEED = 1

#: mwis_solver cell: every MWIS greedy at cap 4 and GWMIN at caps 1/2/4/8.
MWIS_SOLVER_SCALE = 0.02
MWIS_SOLVER_SEED = 1

#: threshold cell: the spin-down threshold sweep and its 2CPM/oracle
#: ratios.
THRESHOLD_SCALE = 0.05
THRESHOLD_SEED = 1

#: fault_mix cell: Heuristic on the Financial-like trace at rf 3 (18
#: disks, 7,000 requests) under every fault kind at once.
FAULT_MIX_SCALE = 0.1
FAULT_MIX_SEED = 1
#: The permanent, transient and spin-up models of perfbench's
#: ``faulty-financial`` workload, plus scripted drills: every replica of
#: data 0 (disks 9, 6, 13) goes down for 30 s at t = 1000 s, so its
#: requests back off and retry; every replica of data 1 (disks 4, 8, 0)
#: dies at t = 2500 s, so its later requests end in a typed loss.
FAULT_MIX_PLAN = FaultPlan(
    seed=FAULT_MIX_SEED,
    permanent=PermanentFaults(mttf_s=1e4),
    transient=TransientFaults(mtbf_s=2000.0, mean_repair_s=10.0),
    spin_up=SpinUpFaults(probability=0.05),
    scripted=tuple(
        ScriptedFault(disk_id, 1000.0, repair_after_s=30.0)
        for disk_id in (9, 6, 13)
    )
    + tuple(ScriptedFault(disk_id, 2500.0) for disk_id in (4, 8, 0)),
)

#: tape_tier smoke cell: 300 requests per cell over 2000 ids.
TAPE_SCALE = 0.05
TAPE_SEED = 11

#: CI's serve smoke (``repro-storage serve --policy both --requests 1000
#: --rate 100 --seed 3``), one pin per policy, with the CLI defaults it
#: relies on (18 disks, 1 s window, 8 clients, 2 s drain grace) spelled out.
SERVE_SMOKE_CONFIG = ServiceConfig(num_disks=18, replication_factor=3, seed=3, window_s=1.0)
SERVE_SMOKE_LOAD = LoadgenConfig(num_requests=1_000, rate_per_s=100.0, num_clients=8, seed=3)
SERVE_SMOKE_DRAIN_GRACE_S = 2.0

#: The sharded smoke deployment. ``window_s`` pins the CLI's default so
#: CI can run the real ``repro-storage serve --shards 2`` with no extra
#: flags and check its output against the same pin file.
SHARD_SMOKE_CONFIG = ShardedServiceConfig(
    service=ServiceConfig(
        policy="online", num_disks=18, replication_factor=3, seed=5, window_s=1.0
    ),
    num_shards=2,
)
#: The replicated smoke: same fleet and load, three shards holding every
#: data id on two of them. No faults are injected, so the pin shows that
#: replication alone changes no outcome bytes.
SHARD_SMOKE_R2_CONFIG = replace(
    SHARD_SMOKE_CONFIG, num_shards=3, shard_replication_factor=2
)
SHARD_SMOKE_LOAD = LoadgenConfig(
    num_requests=800, rate_per_s=200.0, num_clients=8, seed=5
)


def cells_digest(specs: Sequence[RunSpec]) -> str:
    """Combined digest of a cell list's reports, specs in label order
    (independent of the list's order)."""
    lines = []
    for spec in sorted(specs, key=lambda s: s.label()):
        report = execute_spec(spec)["report"]
        lines.append(f"{spec.label()} {sha256_hex(canonical_json(report))}")
    return sha256_hex("\n".join(lines))


def fig6_digest() -> str:
    """Combined digest of the fig6 smoke sweep."""
    return cells_digest(energy_cells("cello", FIG6_SCALE, FIG6_SEED))


def fault_sweep_digest() -> str:
    """Combined digest of the fault_sweep smoke cells (every scheduler at
    every failure rate, plus the baseline)."""
    return cells_digest(fault_sweep_cells(FAULT_SWEEP_SCALE, FAULT_SWEEP_SEED))


def mwis_solver_digest() -> str:
    """Digest of the MWIS solver ablation's bench payload."""
    result = run_mwis_solver(scale=MWIS_SOLVER_SCALE, seed=MWIS_SOLVER_SEED)
    return sha256_hex(canonical_json(ablation_result_payload(result)))


def threshold_digest() -> str:
    """Digest of the threshold ablation's bench payload."""
    result = run_threshold(scale=THRESHOLD_SCALE, seed=THRESHOLD_SEED)
    return sha256_hex(canonical_json(ablation_result_payload(result)))


def tape_tier_digest() -> str:
    """Digest of the tape_tier smoke sweep's bench payload (panels,
    x-values and every series value)."""
    result = run_tape_tier(scale=TAPE_SCALE, seed=TAPE_SEED)
    return sha256_hex(canonical_json(ablation_result_payload(result)))


def fault_mix_report() -> Dict[str, Any]:
    """Report payload of the fault_mix cell."""
    spec = cell_spec(
        "financial", 3, "heuristic", scale=FAULT_MIX_SCALE, seed=FAULT_MIX_SEED
    )
    requests, catalog, disks = get_binding(
        spec.trace,
        spec.replication_factor,
        spec.zipf_exponent,
        spec.scale,
        spec.seed,
    )
    config = replace(
        make_config(disks, spec.profile, spec.seed), fault_plan=FAULT_MIX_PLAN
    )
    report = simulate(requests, catalog, make_scheduler(spec), config)
    return report_to_payload(report)


def shard_document(config: ShardedServiceConfig) -> Dict[str, Any]:
    """Merged report of one smoke deployment (serial path)."""
    run = run_sharded(config, SHARD_SMOKE_LOAD, multiprocess=False)
    return sharded_document(config, SHARD_SMOKE_LOAD, run)


def serve_smoke_document(policy: str) -> Dict[str, Any]:
    """Report of one serve-smoke session under the virtual clock."""
    session = serve_session(
        replace(SERVE_SMOKE_CONFIG, policy=policy),
        SERVE_SMOKE_LOAD,
        SERVE_SMOKE_DRAIN_GRACE_S,
    )
    return virtual_run(session)[1]


@dataclass(frozen=True)
class Pin:
    """One committed digest and the producer that recomputes it."""

    path: Path
    produce: Callable[[], str]


#: Pin name -> committed file (relative to the repository root) and
#: producer.
PINS: Dict[str, Pin] = {
    "fig6": Pin(
        Path("tests/experiments/data/fig6_kernel_smoke.sha256"), fig6_digest
    ),
    "fault_sweep": Pin(
        Path("tests/faults/data/fault_sweep_smoke.sha256"), fault_sweep_digest
    ),
    "fault_mix": Pin(
        Path("tests/faults/data/fault_mix.sha256"),
        lambda: sha256_hex(canonical_json(fault_mix_report())),
    ),
    "mwis_solver": Pin(
        Path("tests/core/data/mwis_solver.sha256"), mwis_solver_digest
    ),
    "threshold": Pin(
        Path("tests/power/data/threshold.sha256"), threshold_digest
    ),
    "tape_tier": Pin(
        Path("tests/tape/data/tape_smoke.sha256"), tape_tier_digest
    ),
    "serve_online": Pin(
        Path("tests/serve/data/serve_online.sha256"),
        lambda: document_digest(serve_smoke_document("online")),
    ),
    "serve_micro_batch": Pin(
        Path("tests/serve/data/serve_micro_batch.sha256"),
        lambda: document_digest(serve_smoke_document("micro-batch")),
    ),
    "shard_smoke": Pin(
        Path("tests/serve/data/shard_smoke.sha256"),
        lambda: document_digest(shard_document(SHARD_SMOKE_CONFIG)),
    ),
    "shard_smoke_r2": Pin(
        Path("tests/serve/data/shard_smoke_r2.sha256"),
        lambda: document_digest(shard_document(SHARD_SMOKE_R2_CONFIG)),
    ),
}


def pinned(name: str, root: Path = Path(".")) -> str:
    """The committed digest of pin ``name`` under ``root``."""
    return (root / PINS[name].path).read_text(encoding="utf-8").strip()


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the pin CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.pins",
        description="recompute digest pins and check or rewrite them",
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--check",
        nargs="*",
        metavar="NAME",
        choices=sorted(PINS),
        help="fail unless each pin (default: all) matches its file",
    )
    action.add_argument(
        "--write",
        metavar="NAME",
        choices=sorted(PINS),
        help="rewrite this pin's file with the recomputed digest",
    )
    return parser


def main(
    argv: Optional[Sequence[str]] = None, root: Path = Path(".")
) -> int:
    """Recompute the named pins; write or check them under ``root``."""
    args = build_parser().parse_args(argv)
    if args.write is not None:
        path = root / PINS[args.write].path
        digest = PINS[args.write].produce()
        print(f"{digest}  {args.write}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(digest + "\n", encoding="utf-8")
        print(f"wrote {path}")
        return 0
    status = 0
    for name in args.check or sorted(PINS):
        digest = PINS[name].produce()
        print(f"{digest}  {name}")
        expected = pinned(name, root)
        if digest != expected:
            status = 1
            print(
                f"digest mismatch: {name} measured {digest} != pinned "
                f"{expected} ({root / PINS[name].path})",
                file=sys.stderr,
            )
        else:
            print(f"pin ok: {root / PINS[name].path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
