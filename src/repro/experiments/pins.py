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

from repro.experiments.figures import energy_cells
from repro.experiments.harness import canonical_json, execute_spec
from repro.experiments.harness.bench import ablation_result_payload
from repro.experiments.harness.serialize import sha256_hex
from repro.experiments.tape_tier import run_tape_tier
from repro.serve.loadgen import LoadgenConfig
from repro.serve.shard import ShardedServiceConfig, run_sharded, sharded_document
from repro.serve.shard.reporting import document_digest

#: fig6 smoke cell: the cell sizes bench-smoke runs.
FIG6_SCALE = 0.05
FIG6_SEED = 1

#: tape_tier smoke cell: 300 requests per cell over 2000 ids.
TAPE_SCALE = 0.05
TAPE_SEED = 11

#: The sharded smoke deployment. ``window_s`` pins the CLI's default so
#: CI can run the real ``repro-storage serve --shards 2`` with no extra
#: flags and check its output against the same pin file.
SHARD_SMOKE_CONFIG = ShardedServiceConfig(
    policy="online",
    num_shards=2,
    num_disks=18,
    replication_factor=3,
    seed=5,
    window_s=1.0,
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


def fig6_digest() -> str:
    """Combined digest of the fig6 smoke sweep, specs in label order
    (independent of the cell list's order)."""
    specs = energy_cells("cello", FIG6_SCALE, FIG6_SCALE, FIG6_SEED)
    lines = []
    for spec in sorted(specs, key=lambda s: s.label()):
        report = execute_spec(spec)["report"]
        lines.append(f"{spec.label()} {sha256_hex(canonical_json(report))}")
    return sha256_hex("\n".join(lines))


def tape_tier_digest() -> str:
    """Digest of the tape_tier smoke sweep's bench payload (panels,
    x-values and every series value)."""
    result = run_tape_tier(scale=TAPE_SCALE, seed=TAPE_SEED)
    return sha256_hex(canonical_json(ablation_result_payload(result)))


def shard_document(config: ShardedServiceConfig) -> Dict[str, Any]:
    """Merged report of one smoke deployment (serial path)."""
    run = run_sharded(config, SHARD_SMOKE_LOAD, multiprocess=False)
    return sharded_document(config, SHARD_SMOKE_LOAD, run)


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
    "tape_tier": Pin(
        Path("tests/tape/data/tape_smoke.sha256"), tape_tier_digest
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
