"""Microbenchmarks of the simulation hot path.

Each bench isolates one layer so a regression can be localised without
bisecting a full experiment:

* ``engine_dispatch`` — raw event-loop throughput: posted (handle-free)
  no-op events through :meth:`SimulationEngine.run`.
* ``timer_churn`` — :class:`ReusableTimer` re-arm/cancel churn, the 2CPM
  idle-timer pattern that dominated heap traffic before the slotted
  timer existed.
* ``scheduler_choose`` — :meth:`HeuristicScheduler.choose` against a
  live :class:`StorageSystem` view (Eq. 5 evaluation per replica).
* ``storage_dispatch`` — a small end-to-end trace replay (arrival →
  cost → dispatch → service → completion).
* ``fleet_choose_{10,180,1000}`` — :meth:`FleetCostState.choose`,
  the Eq. 5/Eq. 6 arg-min, over whole-fleet candidate sets of each size.
* ``wsc_weight_pass_180`` — the WSC batch scheduler's per-tick Eq. 6
  weight pass over every covering disk.
* ``perf_core`` — the headline number: events/sec of the fig6 workload
  cell (cello, rf=3, heuristic) via the harness's
  :func:`~repro.experiments.harness.runner.execute_spec`, measured with
  a warm workload binding (generation excluded, like the recorded
  pre-optimisation baseline).

``python -m repro.perf`` runs the suite, writes a schema-versioned
``BENCH_perf_core.json`` and — given ``--baseline`` — enforces the CI
regression gate: fail when measured events/sec drops more than
``--tolerance`` below the committed baseline document.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Best-of events/sec of the fig6 workload cell (cello rf=3 heuristic,
#: scale 0.5, seed 1, warm binding) measured on the reference container
#: immediately *before* the hot-path optimisation PR. The ``speedup``
#: field of the emitted document is relative to this constant; the CI
#: gate compares against the committed document instead (same-machine
#: comparison, no cross-hardware constant involved).
PRE_PR_BASELINE_EPS = 109305.0

#: Default acceptable fractional drop of events/sec vs the baseline
#: document before the gate fails (hardware noise on shared runners).
DEFAULT_GATE_TOLERANCE = 0.2


@dataclass(frozen=True)
class MicrobenchResult:
    """One microbench measurement.

    Attributes:
        name: Bench identifier.
        iterations: Operations performed (events, choose calls, ...).
        wall_s: Wall-clock seconds for the measured region.
    """

    name: str
    iterations: int
    wall_s: float

    @property
    def rate_per_s(self) -> float:
        """Operations per second (0.0 for an unmeasurably fast region)."""
        return self.iterations / self.wall_s if self.wall_s > 0 else 0.0

    def payload(self) -> Dict[str, Any]:
        """JSON-ready dict for the bench document's result block."""
        return {
            "iterations": self.iterations,
            "wall_s": self.wall_s,
            "rate_per_s": self.rate_per_s,
        }


def _noop() -> None:
    return None


def bench_engine_dispatch(num_events: int = 200_000) -> MicrobenchResult:
    """Raw dispatch throughput of posted (handle-free) no-op events."""
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine()
    for index in range(num_events):
        engine.post(float(index) * 1e-6, _noop)
    started = time.perf_counter()
    engine.run()
    wall_s = time.perf_counter() - started
    return MicrobenchResult("engine_dispatch", engine.events_processed, wall_s)


def bench_timer_churn(
    num_timers: int = 256, rounds: int = 200
) -> MicrobenchResult:
    """2CPM-style timer churn: re-arm, cancel, re-arm again, drain.

    Every round re-arms all timers to staggered future deadlines,
    cancels half, re-arms the cancelled half later still, and drains
    one round's worth of firings — the cancel/re-arm interleave the
    idle-timer path produces under bursty arrivals.
    """
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine()
    timers = [engine.timer(_noop) for _ in range(num_timers)]
    operations = 0
    started = time.perf_counter()
    for _ in range(rounds):
        base_s = engine.now + 1.0
        for offset, timer in enumerate(timers):
            timer.schedule_at(base_s + offset * 1e-3)
        operations += num_timers
        for offset, timer in enumerate(timers):
            if offset % 2:
                timer.cancel()
        operations += num_timers // 2
        for offset, timer in enumerate(timers):
            if offset % 2:
                timer.schedule_at(base_s + 1.0 + offset * 1e-3)
        operations += num_timers // 2
        engine.run(until=base_s + 2.0 + num_timers * 1e-3)
    wall_s = time.perf_counter() - started
    return MicrobenchResult("timer_churn", operations, wall_s)


def _build_fleet_fixture(num_disks: int, seed: int = 1) -> Any:
    """A :class:`FleetCostState` with a deterministic mixed-state fleet.

    Roughly the state mix a mid-run fig6 cell shows: a third standby
    (wake-up constant), the rest idle with a recorded ``Tlast`` and a
    small queue — so both Eq. 5 branches and the queue term are live in
    the measured arithmetic.
    """
    import random

    from repro.core.fleet import FleetCostState
    from repro.power.profile import PAPER_EVAL
    from repro.power.states import DiskPowerState

    fleet = FleetCostState(num_disks, PAPER_EVAL)
    rng = random.Random(seed)
    for disk_id in range(num_disks):
        if rng.random() < 2.0 / 3.0:
            # IDLE with a recorded last-request time and queued work.
            tlast = rng.uniform(0.0, 3600.0)
            fleet.encode(disk_id, DiskPowerState.IDLE, tlast)
            fleet.tlast[disk_id] = tlast
            fleet.queue[disk_id] = float(rng.randrange(0, 4))
        else:
            fleet.encode(disk_id, DiskPowerState.STANDBY, None)
    return fleet


def bench_fleet_choose(
    num_disks: int, *, iterations: int = 2_000, seed: int = 1
) -> MicrobenchResult:
    """Eq. 5/Eq. 6 arg-min over the whole fleet.

    Scores all ``num_disks`` disks per call — the worst-case candidate
    set — through :meth:`FleetCostState.choose`.
    """
    fleet = _build_fleet_fixture(num_disks, seed=seed)
    choose = fleet.choose
    candidates = list(range(num_disks))
    now = 3600.0
    started = time.perf_counter()
    for _ in range(iterations):
        choose(candidates, now, 0.2, 100.0, 0.8)
    wall_s = time.perf_counter() - started
    return MicrobenchResult(f"fleet_choose_{num_disks}", iterations, wall_s)


def bench_wsc_weight_pass(
    num_disks: int = 180,
    *,
    iterations: int = 2_000,
    seed: int = 1,
) -> MicrobenchResult:
    """The WSC per-tick weight pass: Eq. 6 over every covering disk."""
    fleet = _build_fleet_fixture(num_disks, seed=seed)
    weights = fleet.weights
    disk_ids = list(range(num_disks))
    now = 3600.0
    started = time.perf_counter()
    for _ in range(iterations):
        weights(disk_ids, now, 0.2, 100.0, 0.8)
    wall_s = time.perf_counter() - started
    return MicrobenchResult(f"wsc_weight_pass_{num_disks}", iterations, wall_s)


def _build_choose_fixture(
    scale: float, seed: int
) -> Tuple[Any, Any, Sequence[Any]]:
    """A live (scheduler, system view, requests) triple for choose()."""
    from repro.core import CostFunction, HeuristicScheduler
    from repro.experiments.harness.runner import (
        get_binding,
        make_config,
    )
    from repro.sim.storage import StorageSystem

    requests, catalog, disks = get_binding("cello", 3, 1.0, scale, seed)
    config = make_config(disks, "paper-evaluation", seed)
    scheduler = HeuristicScheduler(CostFunction(alpha=0.2, beta=100.0))
    system = StorageSystem(catalog, scheduler, config)
    return scheduler, system, requests


def bench_scheduler_choose(
    scale: float = 0.1, seed: int = 1, repeats: int = 3
) -> MicrobenchResult:
    """Eq. 5 evaluation throughput: choose() over a real request stream.

    The system view is frozen at t=0 (no events run), so this isolates
    the scheduler + cost-function arithmetic from the event loop.
    """
    scheduler, system, requests = _build_choose_fixture(scale, seed)
    choose = scheduler.choose
    started = time.perf_counter()
    for _ in range(repeats):
        for request in requests:
            choose(request, system)
    wall_s = time.perf_counter() - started
    return MicrobenchResult(
        "scheduler_choose", repeats * len(requests), wall_s
    )


def bench_storage_dispatch(
    scale: float = 0.05, seed: int = 1
) -> MicrobenchResult:
    """Small end-to-end replay: arrival → dispatch → service → complete."""
    _, system, requests = _build_choose_fixture(scale, seed)
    started = time.perf_counter()
    report = system.run(requests)
    wall_s = time.perf_counter() - started
    return MicrobenchResult(
        "storage_dispatch", report.events_processed, wall_s
    )


def bench_tape_plan(
    policy: str, queue_depth: int, iterations: int = 200, seed: int = 1
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

    rng = random.Random(seed)
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


def measure_perf_core(
    scale: float = 0.5, seed: int = 1, repeats: int = 3
) -> Tuple[MicrobenchResult, List[Dict[str, Any]]]:
    """Events/sec of the fig6 workload cell, best of ``repeats``.

    The first (unmeasured) warm-up run generates and memoises the
    workload binding so measured runs time the simulation alone —
    matching the protocol behind :data:`PRE_PR_BASELINE_EPS`.

    Returns the best-run result plus one schema-shaped point dict per
    measured run.
    """
    from repro.experiments.harness.runner import execute_spec, get_binding
    from repro.experiments.harness.spec import cell_spec

    spec = cell_spec("cello", 3, "heuristic", scale=scale, seed=seed)
    # Warm-up: populate the workload/binding memos (not measured).
    get_binding(
        spec.trace,
        spec.replication_factor,
        spec.zipf_exponent,
        spec.scale,
        spec.seed,
    )
    best: Optional[MicrobenchResult] = None
    points: List[Dict[str, Any]] = []
    for _ in range(repeats):
        started = time.perf_counter()
        payload = execute_spec(spec)
        wall_s = time.perf_counter() - started
        events = int(payload["report"]["events_processed"])
        points.append(
            {
                "spec": spec.key_payload(),
                "label": spec.label(),
                "cached": False,
                "wall_s": wall_s,
                "events_processed": events,
            }
        )
        result = MicrobenchResult("perf_core", events, wall_s)
        if best is None or result.rate_per_s > best.rate_per_s:
            best = result
    assert best is not None  # repeats >= 1 is enforced by the CLI
    return best, points


def _peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or ``None`` off-POSIX."""
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(rss)
    return int(rss) * 1024  # Linux reports kilobytes


def run_suite(
    *,
    scale: float = 0.5,
    seed: int = 1,
    repeats: int = 3,
    quick: bool = False,
) -> Dict[str, Any]:
    """Run every microbench and assemble the ``repro-bench/1`` document.

    ``quick`` shrinks every bench (CI smoke / test suite); the emitted
    document stays schema-valid either way.
    """
    from repro.experiments.harness.schema import (
        BENCH_SCHEMA,
        validate_bench_payload,
    )

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if quick:
        scale = min(scale, 0.05)
        repeats = 1
    started = time.perf_counter()
    micro = [
        bench_engine_dispatch(20_000 if quick else 200_000),
        bench_timer_churn(rounds=20 if quick else 200),
        bench_scheduler_choose(
            scale=min(scale, 0.1), seed=seed, repeats=1 if quick else 3
        ),
        bench_storage_dispatch(scale=min(scale, 0.05), seed=seed),
    ]
    fleet_iterations = 200 if quick else 2_000
    for num_disks in (10, 180, 1000):
        micro.append(
            bench_fleet_choose(
                num_disks, iterations=fleet_iterations, seed=seed
            )
        )
    micro.append(
        bench_wsc_weight_pass(iterations=fleet_iterations, seed=seed)
    )
    for policy in ("nearest", "ltsp"):
        for queue_depth in (10, 100, 1000):
            micro.append(
                bench_tape_plan(
                    policy,
                    queue_depth,
                    iterations=20 if quick else 200,
                    seed=seed,
                )
            )
    core, points = measure_perf_core(scale=scale, seed=seed, repeats=repeats)
    wall_clock_s = time.perf_counter() - started

    events = sum(int(point["events_processed"]) for point in points)
    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "bench": "perf_core",
        "created_unix": time.time(),
        "scale": scale,
        "mwis_scale": scale,
        "seed": seed,
        "jobs": 1,
        "wall_clock_s": wall_clock_s,
        "events_processed": events,
        "events_per_sec": core.rate_per_s,
        "peak_rss_bytes": _peak_rss_bytes(),
        "cache": {
            # Microbenchmarks must measure real work, never cache replay.
            "enabled": False,
            "hits": 0,
            "misses": len(points),
            "corrupt": 0,
            "hit_rate": 0.0,
        },
        "points": points,
        "result": {
            "baseline_events_per_sec": PRE_PR_BASELINE_EPS,
            "events_per_sec": core.rate_per_s,
            "speedup": core.rate_per_s / PRE_PR_BASELINE_EPS,
            "quick": quick,
            "microbench": {r.name: r.payload() for r in micro},
        },
    }
    violations = validate_bench_payload(payload)
    if violations:
        raise RuntimeError(
            "perf bench document violates the schema: " + "; ".join(violations)
        )
    return payload


def check_regression(
    payload: Dict[str, Any],
    baseline_path: Path,
    tolerance: float = DEFAULT_GATE_TOLERANCE,
) -> Optional[str]:
    """Compare measured events/sec against a committed bench document.

    Returns a human-readable failure message when the measured rate is
    more than ``tolerance`` (fractional) below the baseline document's,
    else None.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    baseline_eps = float(baseline["events_per_sec"])
    measured_eps = float(payload["events_per_sec"])
    floor_eps = baseline_eps * (1.0 - tolerance)
    if measured_eps < floor_eps:
        return (
            f"perf regression: {measured_eps:.0f} events/s is below "
            f"{floor_eps:.0f} (baseline {baseline_eps:.0f} - {tolerance:.0%} "
            f"tolerance, {baseline_path})"
        )
    return None


def _render(payload: Dict[str, Any]) -> str:
    result = payload["result"]
    lines = [
        f"{'bench':<28s} {'iterations':>12s} {'wall (s)':>10s} {'rate/s':>12s}"
    ]
    for name, micro in result["microbench"].items():
        lines.append(
            f"{name:<28s} {micro['iterations']:>12d} "
            f"{micro['wall_s']:>10.3f} {micro['rate_per_s']:>12.0f}"
        )
    lines.append("")
    lines.append(
        f"perf_core: {result['events_per_sec']:.0f} events/s "
        f"({result['speedup']:.2f}x vs pre-optimisation "
        f"{result['baseline_events_per_sec']:.0f})"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro.perf``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="simulation-core microbenchmarks + perf regression gate",
    )
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--repeats", type=int, default=3, help="perf_core runs (best-of)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrunken suite for CI smoke / tests",
    )
    parser.add_argument(
        "--output",
        default="BENCH_perf_core.json",
        help="where to write the bench document",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed BENCH_perf_core.json to gate against",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_GATE_TOLERANCE,
        help="fractional events/sec drop allowed before failing",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code (1 on regression)."""
    args = build_parser().parse_args(argv)
    payload = run_suite(
        scale=args.scale,
        seed=args.seed,
        repeats=args.repeats,
        quick=args.quick,
    )
    print(_render(payload))
    output = Path(args.output)
    output.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {output}")
    if args.baseline is not None:
        failure = check_regression(
            payload, Path(args.baseline), tolerance=args.tolerance
        )
        if failure is not None:
            print(failure, file=sys.stderr)
            return 1
        print(
            f"gate ok: {payload['events_per_sec']:.0f} events/s within "
            f"{args.tolerance:.0%} of baseline"
        )
    return 0
