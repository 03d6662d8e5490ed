#!/usr/bin/env python3
"""Repeat benchmark runs over seeds; optionally pair two checkouts.

Spread of one tree (what the steadiness check measures)::

    python3 perfbench/compare.py --workload online-cello --seeds 1-10

Paired comparison of a base checkout against this one, alternating which
side runs first on successive seeds::

    python3 perfbench/compare.py --workload online-cello --seeds 1-10 \\
        --base ../parent-checkout

Every run lasts BENCHMARK.json's ``run_seconds``. For every end-to-end
metric, and for the raw host figures the runs print beside the normalised
ones (``raw.*``), it prints each side's median and quartiles, the quartile
spread as a share of the median, and with ``--base`` how often this tree
beat the base on the same seed (ties count for neither) and the change of
the medians against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HEAD = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


RAW_PREFIX = "raw host figures:"


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> Dict[str, float]:
    """One untraced benchmark run in ``tree``; its metric values by name.

    The raw host figures come back as ``raw.<metric>``.
    """
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, timeout=600, check=False
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{tree}: {workload} seed {seed} exited {done.returncode}\n"
            f"{done.stdout}{done.stderr}"
        )
    result = json.loads(lines[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    for line in lines:
        if line.startswith(RAW_PREFIX):
            for field in line[len(RAW_PREFIX):].split():
                name, _, value = field.partition("=")
                values[f"raw.{name}"] = float(value)
    return values


def spread(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--base", type=Path, help="checkout to compare against")
    args = parser.parse_args(argv)

    spec = json.loads((HEAD / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for meta in spec["end_to_end"]:
        if meta["name"] in ("setup_s", "requests_per_s"):
            metrics[f"raw.{meta['name']}"] = meta
    for workload in args.workload:
        sides: Dict[str, List[Dict[str, float]]] = {"head": [], "base": []}
        for index, seed in enumerate(parse_seeds(args.seeds)):
            order = ["head"] if args.base is None else (
                ["base", "head"] if index % 2 == 0 else ["head", "base"]
            )
            for side in order:
                tree = HEAD if side == "head" else args.base
                sides[side].append(run_once(tree, workload, seed, seconds))
        print(f"== {workload} ({len(sides['head'])} seeds, {seconds} s runs)")
        for name, meta in metrics.items():
            head = spread([run[name] for run in sides["head"]])
            line = (f"  {name:<36} median {head['median']:.6g} "
                    f"[{head['q1']:.6g}, {head['q3']:.6g}] spread {head['spread']:.4f} "
                    f"(bound {meta['bound']})")
            if args.base is not None:
                base = spread([run[name] for run in sides["base"]])
                sign = 1 if meta["better"] == "higher" else -1
                pairs = zip(sides["head"], sides["base"])
                wins = sum(1 for h, b in pairs if sign * (h[name] - b[name]) > 0)
                change = (head["median"] - base["median"]) / base["median"] if base["median"] else 0.0
                line += (f"\n  {'':<36} base {base['median']:.6g} "
                         f"[{base['q1']:.6g}, {base['q3']:.6g}] spread {base['spread']:.4f}; "
                         f"head better in {wins}/{len(sides['head'])}, "
                         f"median change {change:+.4f}")
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
