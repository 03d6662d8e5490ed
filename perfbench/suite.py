"""The benchmark's workloads: seed -> inputs -> timed replays -> metrics.

Every workload uses the paper's placement (Zipf(1.0) originals, uniform
replicas, replication factor 3), the ``paper-evaluation`` power profile
and 2CPM. Inputs are built only from the seed, through the library's
public entry points; the persistent ``RunCache`` is never consulted, so
every timed replay really simulates.

Host timings are wall-clock seconds of this process. The end-to-end ones
are normalised to a reference host (see :func:`calibrate`) and printed raw
beside it; the per-layer ones are raw. Simulated quantities (energy, spin
operations, response times, disk state times) come from the simulator and
repeat exactly for a seed.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.scheduler import OnlineScheduler, SystemView
from repro.experiments.harness import runner
from repro.experiments.harness.cache import RunCache
from repro.experiments.harness.serialize import canonical_json, report_to_payload
from repro.experiments.harness.spec import RunSpec, cell_spec
from repro.faults.plan import FaultPlan, PermanentFaults, SpinUpFaults, TransientFaults
from repro.placement.catalog import PlacementCatalog
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.states import DiskPowerState
from repro.report import SimulationReport, percentile
from repro.sim import SimulationConfig, always_on_baseline, run_offline, simulate
from repro.types import Assignment, DiskId, Request

from spans import TracedServiceModel, Tracer

REPLICATION_FACTOR = 3
ZIPF_EXPONENT = 1.0
PROFILE = "paper-evaluation"
#: Seed of every workload's trace (see :func:`prepare`).
TRACE_SEED = 1
#: Set-ups per run, and host seconds they span at least (cheap set-ups
#: repeat more); ``setup_s`` is their median.
SETUPS_PER_RUN = 3
SETUP_MIN_S = 2.0
#: Seconds :func:`calibrate` takes on the reference host.
CALIBRATION_REFERENCE_S = 0.1
#: Fewest timed replays per measured phase, whatever ``--seconds`` says.
MIN_REPLAYS = 2

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "requests_per_s": ("1/ref_s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "energy_norm": ("ratio", "lower"),
    "spin_ops": ("count", "lower"),
    "resp_p50_ms": ("sim_ms", "lower"),
    "resp_p999_ms": ("sim_ms", "lower"),
    "completed_frac": ("ratio", "higher"),
}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "traces.generate_s": ("s", "lower"),
    "placement.bind_s": ("s", "lower"),
    "sim.engine.events": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.storage.batch_ticks": ("count", "lower"),
    "sim.storage.redispatched": ("count", "lower"),
    "sim.storage.failover_retries": ("count", "lower"),
    "core.heuristic.choose_calls": ("count", "lower"),
    "core.heuristic.choose_s": ("s", "lower"),
    "core.wsc.choose_batch_s": ("s", "lower"),
    "core.wsc.batch_requests_mean": ("count", "higher"),
    "core.wsc.cover_ratio": ("ratio", "lower"),
    "core.mwis.build_graph_s": ("s", "lower"),
    "core.mwis.graph_nodes": ("count", "lower"),
    "core.mwis.graph_edges": ("count", "lower"),
    "core.mwis.selected_ratio": ("ratio", "higher"),
    "core.offline.evaluate_s": ("s", "lower"),
    "algorithms.set_cover.solve_s": ("s", "lower"),
    "algorithms.independent_set.solve_s": ("s", "lower"),
    "disk.submit_calls": ("count", "lower"),
    "disk.submit_s": ("s", "lower"),
    "disk.service.draw_s": ("s", "lower"),
    "disk.spin_ups": ("count", "lower"),
    "disk.spin_downs": ("count", "lower"),
    "disk.active_s": ("sim_s", "lower"),
    "disk.idle_s": ("sim_s", "lower"),
    "disk.standby_s": ("sim_s", "higher"),
    "disk.transition_s": ("sim_s", "lower"),
    "faults.availability": ("ratio", "higher"),
    "faults.disk_failures": ("count", "lower"),
    "faults.spin_up_failures": ("count", "lower"),
    "report.payload_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass(frozen=True)
class Workload:
    """One named input family; see README.md for why each exists."""

    name: str
    trace: str
    scheduler_key: str
    scale: float
    faults: bool = False

    @property
    def offline(self) -> bool:
        return self.scheduler_key == "mwis"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("online-cello", "cello", "heuristic", 1.0),
        Workload("batch-wsc", "cello", "wsc", 1.0),
        Workload("offline-mwis", "cello", "mwis", 0.05),
        Workload("faulty-financial", "financial", "heuristic", 1.0, faults=True),
    )
}


def fault_plan(seed: int) -> FaultPlan:
    """Permanent, transient and spin-up faults, seeded from the workload seed.

    Outages are repaired in 10 s on average and spin-ups fail 5% of the
    time, so the p99.9 response lands on the spin-up-retry wait on every
    seed. With minute-long repairs it is set instead by the few requests
    whose every replica is down at once, and it moved by half from seed
    to seed.
    """
    return FaultPlan(
        seed=seed,
        permanent=PermanentFaults(mttf_s=1e4),
        transient=TransientFaults(mtbf_s=2000.0, mean_repair_s=10.0),
        spin_up=SpinUpFaults(probability=0.05),
    )


def calibrate() -> float:
    """Host seconds of a fixed loop that runs no library code.

    The loop does the kinds of work the library does: heap pushes and
    pops, dict updates, RNG draws, the growth of a graph of int sets and,
    every eighth step, a small dense numpy score-and-argmax like one pass
    of the set cover. The host this benchmark was tuned on changes speed
    by up to half for tens of seconds at a time, with no steal time
    reported. Every timed section runs between two of these loops and is
    reported in reference seconds, ``seconds / mean(loop before, loop
    after) * CALIBRATION_REFERENCE_S``. Garbage is collected first and
    callers drop each replay's report before calling, so the loop starts
    from the heap the set-up left.
    """
    iterations = 30_000
    rng = random.Random(0)
    heap: List[Tuple[float, int]] = []
    table: Dict[int, float] = {}
    adjacency: Dict[int, Set[int]] = {}
    membership = np.random.default_rng(0).random((180, 32)) < 0.1
    weights = np.linspace(1.0, 2.0, 180)
    gc.collect()
    started = time.perf_counter()
    for i in range(iterations):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 512:
            heapq.heappop(heap)
        key = i & 4095
        table[key] = table.get(key, 0.0) + i * 0.5
        j = rng.randrange(iterations)
        adjacency.setdefault(i, set()).add(j)
        adjacency.setdefault(j, set()).add(i)
        if i & 7 == 0:
            table[key] += int((weights @ membership).argmax())
    return time.perf_counter() - started


def to_reference(seconds: float, calibration_s: float) -> float:
    """Host seconds as seconds on the reference host."""
    return seconds / calibration_s * CALIBRATION_REFERENCE_S


@dataclass
class Prepared:
    """A ready-to-run system: inputs, scheduler spec and config."""

    workload: Workload
    spec: RunSpec
    requests: Sequence[Request]
    catalog: PlacementCatalog
    config: SimulationConfig

    def fingerprint(self) -> str:
        """Digest of the generated inputs (set-up must repeat exactly)."""
        text = repr((
            [(r.time, r.request_id, r.data_id) for r in self.requests],
            sorted(self.catalog.mapping().items()),
        ))
        return hashlib.sha256(text.encode()).hexdigest()


def prepare(workload: Workload, seed: int, scale: float) -> Tuple[Prepared, float]:
    """Seed to ready-to-run system, and the host seconds it took.

    The trace of a workload is fixed, as the paper replays one Cello and
    one Financial1 trace; ``seed`` picks the placement, the service-time
    draws and the faults. ``runner.get_binding`` would tie the trace to
    the seed too, and the trace alone then moved spin operations by a
    sixth from seed to seed. This runs the same steps with the two seeds
    apart.
    """
    runner.clear_memos()
    gc.collect()
    started = time.perf_counter()
    disks = runner.num_disks_for(scale)
    requests, catalog = runner.get_workload(workload.trace, scale, TRACE_SEED).bind(
        ZipfOriginalUniformReplicas(
            replication_factor=REPLICATION_FACTOR, zipf_exponent=ZIPF_EXPONENT
        ),
        num_disks=disks,
        seed=seed,
    )
    spec = cell_spec(
        workload.trace, REPLICATION_FACTOR, workload.scheduler_key,
        zipf_exponent=ZIPF_EXPONENT, scale=scale, seed=seed, profile=PROFILE,
    )
    config = runner.make_config(disks, PROFILE, seed)
    if workload.faults:
        config = replace(config, fault_plan=fault_plan(seed))
    runner.make_scheduler(spec)
    elapsed = time.perf_counter() - started
    runner.clear_memos()
    return Prepared(workload, spec, requests, catalog, config), elapsed


@dataclass
class Replay:
    """One timed scheduling + simulation + report-payload pass."""

    seconds: float
    report: SimulationReport
    payload: Dict[str, Any]
    #: Offline runs only: the evaluator's always-on joules and the schedule.
    always_on_energy: Optional[float] = None
    assignment: Optional[Assignment] = None


def replay(
    prepared: Prepared,
    config: SimulationConfig,
    to_payload: Callable[[SimulationReport], Dict[str, Any]] = report_to_payload,
) -> Replay:
    """Schedule, simulate (or evaluate offline) and build the report payload."""
    scheduler = runner.make_scheduler(prepared.spec)
    gc.collect()
    if not prepared.workload.offline:
        started = time.perf_counter()
        report = simulate(prepared.requests, prepared.catalog, scheduler, config)
        payload = to_payload(report)
        return Replay(time.perf_counter() - started, report, payload)
    # run_offline returns only the evaluation; keep the schedule it
    # evaluated, for the offline response times.
    schedules: List[Assignment] = []
    plan = scheduler.schedule

    def schedule(problem: Any) -> Assignment:
        schedules.append(plan(problem))
        return schedules[-1]

    scheduler.schedule = schedule  # type: ignore[method-assign]
    started = time.perf_counter()
    evaluation = run_offline(prepared.requests, prepared.catalog, scheduler, config)  # type: ignore[arg-type]
    payload = to_payload(evaluation.report)
    seconds = time.perf_counter() - started
    return Replay(
        seconds, evaluation.report, payload, evaluation.always_on_energy, schedules[0]
    )


class FollowSchedule(OnlineScheduler):
    """Sends each request to the disk an offline schedule gave it."""

    def __init__(self, assignment: Assignment) -> None:
        self._assignment = assignment

    def choose(self, request: Request, view: SystemView) -> DiskId:
        return self._assignment.disk_of(request.request_id)

    @property
    def name(self) -> str:
        return "follow-offline-schedule"


def offline_responses(prepared: Prepared, assignment: Assignment) -> Sequence[float]:
    """Response times of an offline schedule on pre-spun disks.

    The offline model spins disks up ahead of each request, so a request
    waits only behind earlier requests on its disk. The library's
    ``always_on_baseline`` (disks start idle and never spin down) replays
    the schedule with the simulator's own service model and draws.
    """
    report = always_on_baseline(
        prepared.requests, prepared.catalog, prepared.config, FollowSchedule(assignment)
    )
    assert report.requests_completed == report.requests_offered, "schedule left requests"
    return report.response_times


def simulated_metrics(
    prepared: Prepared, result: Replay, baseline_energy: Optional[float]
) -> Dict[str, float]:
    """End-to-end simulated metrics of one replay (exact for a seed)."""
    report = result.report
    if result.assignment is not None:
        responses = offline_responses(prepared, result.assignment)
        baseline_energy = result.always_on_energy
    else:
        responses = list(report.response_times)
    assert baseline_energy is not None
    ordered = sorted(responses)
    return {
        "energy_norm": report.total_energy / baseline_energy,
        "spin_ops": report.spin_operations,
        "resp_p50_ms": percentile(ordered, 0.5) * 1e3,
        "resp_p999_ms": percentile(ordered, 0.999) * 1e3,
        "completed_frac": report.requests_completed / report.requests_offered,
    }


def unresolved(report: SimulationReport) -> int:
    """Offered requests neither completed nor lost when the run ended."""
    lost = report.availability.requests_lost if report.availability else 0
    return report.requests_offered - report.requests_completed - lost


def check_report(report: SimulationReport) -> List[str]:
    """Invariants every report must meet; returns the violations.

    Without faults every offered request completes. With faults, requests
    still in retry backoff when the fixed horizon ends are neither
    completed nor lost (the simulator does not yet type them), so only
    completed + lost <= offered holds; the remainder is printed.
    """
    problems = []
    left = unresolved(report)
    if left < 0 or (left and report.availability is None):
        problems.append(
            f"completed {report.requests_completed} and lost requests do not "
            f"add up to offered {report.requests_offered}"
        )
    for disk_id, stats in report.disk_stats.items():
        total = sum(stats.state_time.values())
        if abs(total - report.duration) > 1e-9 * max(1.0, report.duration):
            problems.append(
                f"disk {disk_id}: state times sum to {total!r}, "
                f"run lasted {report.duration!r}"
            )
    return problems


def layer_metrics(tracer: Tracer, report: SimulationReport) -> Dict[str, float]:
    """Per-layer metrics of one traced replay (``*_s`` are self times)."""
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    ticks = calls("core.wsc.choose_batch")
    covers = calls("algorithms.set_cover")
    nodes = counters.get("core.mwis.graph_nodes", 0)
    states = report.state_time_totals()
    availability = report.availability
    return {
        "sim.engine.events": report.events_processed,
        "sim.engine.self_s": own("sim.engine"),
        "sim.storage.batch_ticks": ticks,
        "sim.storage.redispatched": availability.requests_redispatched if availability else 0,
        "sim.storage.failover_retries": availability.failover_retries if availability else 0,
        "core.heuristic.choose_calls": calls("core.heuristic.choose"),
        "core.heuristic.choose_s": own("core.heuristic.choose"),
        "core.wsc.choose_batch_s": own("core.wsc.choose_batch"),
        "core.wsc.batch_requests_mean":
            counters.get("core.wsc.batch_requests", 0) / ticks if ticks else 0.0,
        "core.wsc.cover_ratio":
            counters.get("core.wsc.cover_ratio_sum", 0) / covers if covers else 0.0,
        "core.mwis.build_graph_s": own("core.mwis.build_graph"),
        "core.mwis.graph_nodes": nodes,
        "core.mwis.graph_edges": counters.get("core.mwis.graph_edges", 0),
        "core.mwis.selected_ratio":
            counters.get("core.mwis.selected", 0) / nodes if nodes else 0.0,
        "core.offline.evaluate_s": own("core.offline.evaluate"),
        "algorithms.set_cover.solve_s": own("algorithms.set_cover"),
        "algorithms.independent_set.solve_s": own("algorithms.independent_set"),
        "disk.submit_calls": calls("disk.submit"),
        "disk.submit_s": own("disk.submit"),
        "disk.service.draw_s": own("disk.service.draw"),
        "disk.spin_ups": report.spin_ups,
        "disk.spin_downs": report.spin_downs,
        "disk.active_s": states[DiskPowerState.ACTIVE],
        "disk.idle_s": states[DiskPowerState.IDLE],
        "disk.standby_s": states[DiskPowerState.STANDBY],
        "disk.transition_s":
            states[DiskPowerState.SPIN_UP] + states[DiskPowerState.SPIN_DOWN],
        "faults.availability": availability.availability if availability else 1.0,
        "faults.disk_failures": availability.disk_failures if availability else 0,
        "faults.spin_up_failures": availability.spin_up_failures if availability else 0,
        "report.payload_s": own("report.payload"),
    }


@dataclass
class Outcome:
    """What one replay leaves behind once its report is dropped."""

    #: Host seconds of the timed replay.
    seconds: float
    digest: str
    simulated: Dict[str, float]
    problems: List[str]
    unresolved: int
    layers: Optional[Dict[str, float]] = None
    #: ``seconds`` on the reference host, set once the next loop has run.
    reference_s: float = 0.0


def measure(
    prepared: Prepared,
    config: SimulationConfig,
    seconds: float,
    baseline_energy: Optional[float],
    tracer: Optional[Tracer] = None,
) -> List[Outcome]:
    """Replay until ``seconds`` have passed (at least :data:`MIN_REPLAYS`)."""
    to_payload = report_to_payload
    if tracer is not None:
        to_payload = tracer.wrap("report.payload", report_to_payload)
    outcomes: List[Outcome] = []
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while len(outcomes) < MIN_REPLAYS or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        result = replay(prepared, config, to_payload)
        layers = None
        if tracer is not None:
            layers = layer_metrics(tracer, result.report)
            recorded = tracer.span_count()
        outcome = Outcome(
            seconds=result.seconds,
            digest=hashlib.sha256(canonical_json(result.payload).encode()).hexdigest(),
            simulated=simulated_metrics(prepared, result, baseline_energy),
            problems=check_report(result.report),
            unresolved=unresolved(result.report),
            layers=layers,
        )
        if tracer is not None:
            # Keep only the timed replay's spans, not the offline check's.
            tracer.truncate(recorded)
        del result
        after = calibrate()
        outcome.reference_s = to_reference(outcome.seconds, (before + after) / 2)
        before = after
        outcomes.append(outcome)
    return outcomes


@contextmanager
def run_cache_guard() -> Iterator[List[Any]]:
    """Record every ``RunCache`` lookup made while the block runs."""
    lookups: List[Any] = []
    original = RunCache.load_payload

    def load_payload(self: RunCache, spec: RunSpec) -> Optional[Dict[str, Any]]:
        lookups.append(spec)
        return original(self, spec)

    RunCache.load_payload = load_payload  # type: ignore[method-assign]
    try:
        yield lookups
    finally:
        RunCache.load_payload = original  # type: ignore[method-assign]


def median_of(rows: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: Optional[float] = None,
    out_dir: Optional[Path] = None,
    emit: Callable[[str], None] = print,
) -> Dict[str, Any]:
    """One benchmark run; returns the result object printed last.

    Untraced, the whole ``seconds`` budget goes to untraced replays. Traced,
    half goes to untraced replays (the reference for the tracing overhead)
    and half to traced ones, which give the per-layer metrics.
    """
    workload = WORKLOADS[name]
    scale = workload.scale if scale is None else scale
    problems: List[str] = []
    with run_cache_guard() as lookups:
        setup_seconds = []
        raw_setup_seconds = []
        fingerprints = set()
        # A traced run reports no set-up time; its traced set-ups follow.
        before = calibrate()
        setups = 1 if trace else SETUPS_PER_RUN
        deadline = time.perf_counter() + (0.0 if trace else SETUP_MIN_S)
        while len(setup_seconds) < setups or time.perf_counter() < deadline:
            prepared, elapsed = prepare(workload, seed, scale)
            after = calibrate()
            setup_seconds.append(to_reference(elapsed, (before + after) / 2))
            before = after
            raw_setup_seconds.append(elapsed)
            fingerprints.add(prepared.fingerprint())
        baseline_energy = None
        if not workload.offline:
            baseline_energy = always_on_baseline(
                prepared.requests, prepared.catalog,
                replace(prepared.config, fault_plan=None),
            ).total_energy
        budget = seconds / 2 if trace else seconds
        outcomes = measure(prepared, prepared.config, budget, baseline_energy)
        traced: List[Outcome] = []
        traced_setup: List[Dict[str, float]] = []
        if trace:
            tracer = Tracer()
            for target in tracer.install():
                problems.append(f"trace target {target} not found")
            try:
                for _ in range(SETUPS_PER_RUN):
                    tracer.reset()
                    again, _ = prepare(workload, seed, scale)
                    fingerprints.add(again.fingerprint())
                    totals = tracer.totals()
                    traced_setup.append({
                        "traces.generate_s": totals.get("traces.generate", (0, 0.0))[1],
                        "placement.bind_s": totals.get("placement.bind", (0, 0.0))[1],
                    })
                config = replace(
                    prepared.config,
                    service_model=TracedServiceModel(prepared.config.service_model, tracer),
                )
                traced = measure(prepared, config, budget, baseline_energy, tracer)
            finally:
                tracer.uninstall()
            if out_dir is not None:
                tracer.write(out_dir / f"spans-{name}-seed{seed}.json")

    if lookups:
        problems.append(f"{len(lookups)} lookups reached the RunCache")
    if len(fingerprints) != 1:
        problems.append("set-up produced different inputs for one seed")
    first = outcomes[0]
    for index, outcome in enumerate(outcomes + traced):
        problems.extend(outcome.problems)
        if outcome.digest != first.digest or outcome.simulated != first.simulated:
            kind = "traced" if index >= len(outcomes) else "untraced"
            problems.append(f"{kind} replay {index} simulated something else")
    problems = list(dict.fromkeys(problems))

    offered = len(prepared.requests)
    untraced_rps = statistics.median(offered / o.reference_s for o in outcomes)
    if trace:
        metrics = median_of(traced_setup)
        metrics.update(median_of([o.layers for o in traced if o.layers is not None]))
        traced_rps = statistics.median(offered / o.reference_s for o in traced)
        metrics["trace.overhead_frac"] = 1.0 - traced_rps / untraced_rps
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "requests_per_s": untraced_rps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **first.simulated,
        }
        units = END_TO_END

    emit(f"workload {name} seed {seed} scale {scale:g}: "
         f"{len(prepared.requests)} requests, {prepared.config.num_disks} disks, "
         f"{len(outcomes)} untraced + {len(traced)} traced replays")
    emit(f"digest {name} seed {seed} sha256:{first.digest}")
    emit(f"raw host figures: setup_s={statistics.median(raw_setup_seconds)!r} "
         f"requests_per_s={statistics.median(offered / o.seconds for o in outcomes)!r}")
    emit(f"response-time samples {round(first.simulated['completed_frac'] * len(prepared.requests))}, "
         f"requests unresolved at the horizon {first.unresolved}")
    for key, value in metrics.items():
        emit(f"  {key:<36} {value!r} {units[key][0]}")
    for problem in problems:
        emit(f"FAILED CHECK: {problem}")
    return {
        "correct": not problems,
        "attempted": len(outcomes) + len(traced),
        "failed": sum(1 for o in outcomes + traced if o.problems),
        "metrics": {
            key: {"value": value, "unit": units[key][0]} for key, value in metrics.items()
        },
    }
