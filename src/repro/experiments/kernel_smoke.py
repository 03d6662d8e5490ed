"""fig6 digest pin: digest a bench's reports and check them against a pin.

``python -m repro.experiments.kernel_smoke`` executes every spec of one
bench (default: fig6 at CI smoke scale), digests each canonical report
JSON, and folds the per-spec digests into one combined SHA-256. The
combined digest is what gets pinned (``--write <pin>``); any later run
must reproduce it bit for bit (``--check <pin>``). A mismatch means
something on the simulation path changed an observable result, which
the determinism contract forbids unless the pin is regenerated on
purpose.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.experiments.harness import canonical_json, execute_spec
from repro.experiments.harness.bench import BENCHES
from repro.experiments.harness.serialize import sha256_hex

#: CI smoke defaults — the same cell sizes bench-smoke runs.
DEFAULT_BENCH = "fig6"
DEFAULT_SCALE = 0.05
DEFAULT_SEED = 1


def digest_bench(
    bench_id: str, scale: float, mwis_scale: float, seed: int
) -> Tuple[str, List[Tuple[str, str]]]:
    """(combined digest, per-spec digests) for one bench's spec sweep.

    Specs are digested in label order so the combined digest is
    independent of registry iteration order.
    """
    if bench_id not in BENCHES:
        raise SystemExit(
            f"unknown bench {bench_id!r}; known: {sorted(BENCHES)}"
        )
    specs = BENCHES[bench_id].specs(scale, mwis_scale, seed)
    if not specs:
        raise SystemExit(f"bench {bench_id!r} has no runnable specs")
    per_spec: List[Tuple[str, str]] = []
    for spec in sorted(specs, key=lambda s: s.label()):
        payload = execute_spec(spec)
        digest = sha256_hex(canonical_json(payload["report"]))
        per_spec.append((spec.label(), digest))
    combined = sha256_hex(
        "\n".join(f"{label} {digest}" for label, digest in per_spec)
    )
    return combined, per_spec


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the digest-pin CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.kernel_smoke",
        description="digest a bench's reports and compare against a "
        "committed pin",
    )
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--mwis-scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--check",
        metavar="PIN",
        default=None,
        help="fail unless the combined digest equals this pin file's",
    )
    parser.add_argument(
        "--write",
        metavar="PIN",
        default=None,
        help="write the combined digest to this pin file",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the sweep, print per-spec digests, write/check the pin."""
    args = build_parser().parse_args(argv)
    mwis_scale = args.mwis_scale if args.mwis_scale is not None else args.scale
    combined, per_spec = digest_bench(
        args.bench, args.scale, mwis_scale, args.seed
    )
    for label, digest in per_spec:
        print(f"{digest}  {label}")
    print(f"{combined}  combined:{args.bench}")
    if args.write is not None:
        Path(args.write).write_text(combined + "\n", encoding="utf-8")
        print(f"wrote {args.write}")
    if args.check is not None:
        pinned = Path(args.check).read_text(encoding="utf-8").strip()
        if combined != pinned:
            print(
                f"digest mismatch: measured {combined} != pinned {pinned} "
                f"({args.check})",
                file=sys.stderr,
            )
            return 1
        print(f"pin ok: {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
