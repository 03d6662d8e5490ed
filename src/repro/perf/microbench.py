"""Microbenchmarks of the tape sequencer.

The end-to-end figures and their per-layer split (engine, scheduler
choose, WSC tick, set cover, disk state machine) come from the repo
benchmark under ``perfbench/``. No perfbench workload runs the tape
tier, so the one layer timed here is the LTSP sequencer:

* ``tape_plan_{nearest,ltsp}_{10,100,1000}`` — one
  :meth:`~repro.tape.sequencer.Sequencer.plan` call per busy period,
  over a seeded pending batch of each queue depth.

``python -m repro.perf.microbench`` runs them and prints the table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class MicrobenchResult:
    """One microbench measurement.

    Attributes:
        name: Bench identifier.
        iterations: Operations performed (requests sequenced).
        wall_s: Wall-clock seconds for the measured region.
    """

    name: str
    iterations: int
    wall_s: float

    @property
    def rate_per_s(self) -> float:
        """Operations per second (0.0 for an unmeasurably fast region)."""
        return self.iterations / self.wall_s if self.wall_s > 0 else 0.0


def bench_tape_plan(
    policy: str, queue_depth: int, iterations: int
) -> MicrobenchResult:
    """LTSP sequencing throughput: plan() over a fixed pending batch.

    One plan call sequences ``queue_depth`` pending requests — the work
    the tape drive performs per busy period. Positions are a seeded
    uniform scatter over an LTO-length tape; the head starts mid-tape so
    both sweep directions stay populated. At ``queue_depth`` above the
    DP cutoff the ``ltsp`` policy exercises its nearest-neighbour
    fallback, which is exactly the saturated-queue path worth timing.
    """
    import random

    from repro.tape.profile import LTO_GEN8
    from repro.tape.sequencer import make_sequencer

    rng = random.Random(1)
    positions = [
        rng.uniform(0.0, LTO_GEN8.tape_length) for _ in range(queue_depth)
    ]
    head_m = LTO_GEN8.tape_length / 2
    sequencer = make_sequencer(policy)
    plan = sequencer.plan
    started = time.perf_counter()
    for _ in range(iterations):
        plan(head_m, positions)
    wall_s = time.perf_counter() - started
    return MicrobenchResult(
        f"tape_plan_{policy}_{queue_depth}", iterations * queue_depth, wall_s
    )


def run_suite(iterations: int = 200) -> List[MicrobenchResult]:
    """Every ``tape_plan_*`` microbench, ``iterations`` plans each."""
    return [
        bench_tape_plan(policy, queue_depth, iterations)
        for policy in ("nearest", "ltsp")
        for queue_depth in (10, 100, 1000)
    ]


def render(results: Sequence[MicrobenchResult]) -> str:
    """The measurements as an aligned text table."""
    lines = [
        f"{'bench':<28s} {'iterations':>12s} {'wall (s)':>10s} {'rate/s':>12s}"
    ]
    for result in results:
        lines.append(
            f"{result.name:<28s} {result.iterations:>12d} "
            f"{result.wall_s:>10.3f} {result.rate_per_s:>12.0f}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render(run_suite()))
