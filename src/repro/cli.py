"""Command-line interface: ``repro-storage`` / ``python -m repro``.

Subcommands:

* ``profile [name]`` — print a power profile (default: the evaluation
  one), or — given a bench id like ``fig6`` — run that bench under
  cProfile and print the top-N cumulative table
  (see :mod:`repro.perf.benchprof`).
* ``simulate`` — one trace-driven run with a chosen scheduler.
* ``figure <figN>`` — reproduce one figure of the paper and print its
  series table.
* ``compare`` — quick cross-scheduler comparison at one replication factor.
* ``bench`` — run a figure/ablation through the parallel experiment
  harness and write a schema-versioned ``BENCH_<id>.json`` trajectory
  document (see :mod:`repro.experiments.harness.bench`).
* ``serve`` — run the async scheduling service under generated load and
  write a ``SERVE_<policy>.json`` session document
  (see :mod:`repro.serve`).
* ``lint`` — run reprolint, the domain-aware static-analysis pass
  (see :mod:`repro.checks`).

Every subcommand handler returns an explicit ``int`` exit status which
:func:`main` propagates unchanged — ``0`` success, ``1`` domain error,
``2`` usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.analysis.tables import format_table
from repro.checks.cli import add_lint_arguments, run_lint_args
from repro.errors import ReproError
from repro.experiments import common, run_figure
from repro.experiments.figures import FIGURES
from repro.experiments.headline import headline_claims
from repro.power.profile import PAPER_EVAL, PROFILES, get_profile

if TYPE_CHECKING:  # pragma: no cover - the serving stack is imported lazily
    from repro.serve import LoadgenConfig, ServiceConfig


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-storage`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-storage",
        description="Energy-aware scheduling in disk storage systems "
        "(ICDCS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser(
        "profile",
        help="print a disk power profile, or cProfile a bench "
        "(e.g. 'profile fig6')",
    )
    profile.add_argument(
        "name",
        nargs="?",
        default=PAPER_EVAL.name,
        help="a power-profile name, or a bench id to run under cProfile",
    )
    profile.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="trace/disk scale for bench profiling",
    )
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument(
        "--top", type=int, default=25, help="rows of the cProfile table"
    )
    profile.add_argument(
        "--sort",
        choices=("cumulative", "tottime", "calls"),
        default="cumulative",
    )

    figure = sub.add_parser("figure", help="reproduce one paper figure")
    figure.add_argument("figure_id", choices=sorted(FIGURES))

    simulate = sub.add_parser("simulate", help="run one scheduler once")
    simulate.add_argument(
        "--trace", choices=("cello", "financial"), default="cello"
    )
    simulate.add_argument(
        "--scheduler",
        choices=("static", "random", "heuristic", "wsc", "mwis"),
        default="heuristic",
    )
    simulate.add_argument("--replication", type=int, default=3)
    simulate.add_argument("--zipf", type=float, default=1.0)
    simulate.add_argument("--alpha", type=float, default=0.2)
    simulate.add_argument("--beta", type=float, default=100.0)
    simulate.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-disk permanent failures per simulated second "
        "(0 disables fault injection)",
    )
    simulate.add_argument(
        "--tier",
        type=float,
        default=None,
        metavar="HOT_FRACTION",
        help="run the tiered disk/tape system, keeping this fraction of "
        "data ids (by popularity) on disk and the cold rest on tape; "
        "tiered runs are uncached",
    )
    simulate.add_argument(
        "--sequencer",
        default="nearest",
        help="LTSP tape sequencer family for --tier runs "
        "(fifo, nearest, scan, ltsp)",
    )
    simulate.add_argument(
        "--tape-drives",
        type=int,
        default=1,
        help="tape drives in the cold tier for --tier runs",
    )
    simulate.add_argument(
        "--tape-profile",
        default="lto-gen8",
        help="tape power-profile name for --tier runs",
    )

    compare = sub.add_parser("compare", help="compare all schedulers")
    compare.add_argument(
        "--trace", choices=("cello", "financial"), default="cello"
    )
    compare.add_argument("--replication", type=int, default=3)

    headline = sub.add_parser(
        "headline", help="measure the paper's abstract claims"
    )
    headline.add_argument(
        "--trace", choices=("cello", "financial"), default="cello"
    )

    bench = sub.add_parser(
        "bench",
        help="run a figure/ablation sweep and write BENCH_<id>.json",
    )
    bench.add_argument(
        "bench_id",
        nargs="?",
        default=None,
        help="a figure id (fig5..fig17), 'headline', 'fault_sweep', an "
        "ablation_* id, 'serve_sweep', 'serve_scale', 'tape_tier', 'all', "
        "or 'list' — 'list' prints them grouped by family (omit with "
        "--validate)",
    )
    bench.add_argument(
        "--scale", type=float, help="every bench's scale (default: REPRO_SCALE or 1.0)"
    )
    bench.add_argument(
        "--seed", type=int, help="every bench's seed (default: REPRO_SEED or 1)"
    )
    bench.add_argument(
        "--jobs", type=int, default=1, help="process-pool workers"
    )
    bench.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent run cache for this invocation",
    )
    bench.add_argument("--output-dir", default=".")
    bench.add_argument(
        "--validate",
        metavar="FILE",
        default=None,
        help="validate an existing BENCH_*.json instead of running",
    )

    serve = sub.add_parser(
        "serve",
        help="run the async scheduling service under generated load",
    )
    serve.add_argument(
        "--policy",
        choices=("online", "micro-batch", "both"),
        default="both",
        help="dispatch policy ('both' runs one session per policy)",
    )
    serve.add_argument(
        "--requests", type=int, default=2_000, help="requests to generate"
    )
    serve.add_argument(
        "--rate", type=float, default=100.0, help="mean arrivals/second"
    )
    serve.add_argument("--clients", type=int, default=8)
    serve.add_argument(
        "--arrival", choices=("poisson", "bursty"), default="poisson"
    )
    serve.add_argument(
        "--loop",
        choices=("open", "closed"),
        default="open",
        help="open loop fires at fixed instants; closed loop waits for "
        "responses",
    )
    serve.add_argument(
        "--window", type=float, default=1.0, help="micro-batch window (s)"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="cap requests per window tick (default: whole queue)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=1_024,
        help="bounded ingress capacity (backpressure)",
    )
    serve.add_argument(
        "--client-rate",
        type=float,
        default=None,
        help="per-client token-bucket rate (requests/s; default unlimited)",
    )
    serve.add_argument("--disks", type=int, default=18)
    serve.add_argument("--replication", type=int, default=3)
    serve.add_argument("--seed", type=int, default=3)
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the fleet across N worker processes behind the "
        "consistent-hash router (1 = single-process service)",
    )
    serve.add_argument(
        "--replication-factor",
        type=int,
        default=1,
        help="cross-SHARD replication: place each data id on this many "
        "distinct shards so the router can fail a dead shard's keys "
        "over (needs --shards >= the factor; distinct from "
        "--replication, the in-shard disk replica count)",
    )
    serve.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="SHARD@TIME[@RECOVER_AT]",
        help="chaos drill: SIGKILL shard SHARD at schedule instant TIME; "
        "with @RECOVER_AT the supervisor restarts it (replaying its "
        "outbox) at that instant (repeatable; needs --shards > 1)",
    )
    serve.add_argument(
        "--hang",
        action="append",
        default=[],
        metavar="SHARD@TIME",
        help="chaos drill: SIGSTOP shard SHARD at schedule instant TIME "
        "— alive but silent until the barrier's response timeout "
        "escalates it (repeatable; needs --shards > 1)",
    )
    serve.add_argument(
        "--recover",
        action="store_true",
        help="supervise workers: restart a dead or hung shard at the "
        "collection barrier and replay its unanswered requests "
        "instead of shedding its keyspace",
    )
    serve.add_argument(
        "--response-timeout",
        type=float,
        default=None,
        help="wall seconds of worker silence before the barrier "
        "escalates it as hung (default: 30 when --hang is used)",
    )
    serve.add_argument(
        "--assert-availability",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit non-zero unless the completed fraction of every "
        "policy's run is at least FRACTION (the chaos-drill SLO gate)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=2.0,
        help="seconds before the final forced flush at shutdown",
    )
    serve.add_argument(
        "--wall",
        action="store_true",
        help="run on the wall clock instead of the deterministic "
        "virtual clock",
    )
    serve.add_argument("--output-dir", default=".")

    lint = sub.add_parser(
        "lint", help="run reprolint (domain-aware static analysis)"
    )
    add_lint_arguments(lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Every handler returns its own explicit status; this function only
    dispatches and maps :class:`ReproError` to exit code 1.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "profile": _run_profile,
        "figure": _run_figure,
        "simulate": _run_simulate,
        "compare": _run_compare,
        "headline": _run_headline,
        "bench": _run_bench,
        "serve": _run_serve,
        "lint": run_lint_args,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_figure(args: argparse.Namespace) -> int:
    result = run_figure(args.figure_id)
    if isinstance(result, str):
        print(result)
    elif isinstance(result, dict):
        for panel in result.values():
            print(panel.render())
            print()
    elif isinstance(result, tuple):
        for part in result:
            print(part.render())
            print()
    else:
        print(result.render())
    return 0


def _run_headline(args: argparse.Namespace) -> int:
    print(headline_claims(args.trace).render())
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """Power-profile names print the profile; bench ids run cProfile."""
    if args.name in PROFILES:
        print(get_profile(args.name).describe())
        return 0
    # Imported lazily: pulls in the full harness import graph.
    from repro.perf.benchprof import profile_bench

    print(
        profile_bench(
            args.name,
            scale=args.scale,
            seed=args.seed,
            top=args.top,
            sort=args.sort,
        )
    )
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the bench module sits above the figure modules in
    # the import graph and is only needed by this subcommand.
    from repro.experiments.harness import bench as bench_mod
    from repro.experiments.harness.cache import RunCache
    from repro.experiments.harness.schema import validate_bench_file

    if args.validate is not None:
        violations = validate_bench_file(args.validate)
        if violations:
            for violation in violations:
                print(f"schema violation: {violation}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid bench document")
        return 0

    if args.bench_id is None:
        print(
            "error: bench_id is required unless --validate is given",
            file=sys.stderr,
        )
        return 2
    if args.bench_id == "list":
        for family_index, family in enumerate(bench_mod.BENCH_FAMILIES):
            members = [
                definition
                for definition in bench_mod.BENCHES.values()
                if definition.family == family
            ]
            if not members:
                continue
            if family_index:
                print()
            print(f"{family}:")
            for definition in members:
                print(
                    f"  {definition.bench_id:24s} {definition.description}"
                )
        orphans = [
            definition
            for definition in bench_mod.BENCHES.values()
            if definition.family not in bench_mod.BENCH_FAMILIES
        ]
        if orphans:
            print()
            print("other:")
            for definition in orphans:
                print(
                    f"  {definition.bench_id:24s} {definition.description}"
                )
        return 0

    cache = RunCache(enabled=False) if args.no_cache else None
    kwargs = dict(
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache=cache,
        output_dir=args.output_dir,
    )
    if args.bench_id == "all":
        for path in bench_mod.run_all(**kwargs):
            print(f"wrote {path}")
        return 0
    payload, path = bench_mod.run_bench(args.bench_id, **kwargs)
    cache_stats = payload["cache"]
    print(f"wrote {path}")
    print(
        f"wall {payload['wall_clock_s']:.2f}s  "
        f"events {payload['events_processed']}  "
        f"({payload['events_per_sec']:.0f}/s)  "
        f"cache {cache_stats['hits']}/{cache_stats['hits'] + cache_stats['misses']}"
        f" hits ({cache_stats['hit_rate']:.0%})"
    )
    return 0


def _serve_configs(
    args: argparse.Namespace, policy: str
) -> Tuple["ServiceConfig", "LoadgenConfig"]:
    """The serving session and the load the ``serve`` flags describe —
    one session per shard when ``--shards > 1``."""
    from repro.serve import LoadgenConfig, ServiceConfig

    service = ServiceConfig(
        policy=policy,
        num_disks=args.disks,
        replication_factor=args.replication,
        seed=args.seed,
        queue_limit=args.queue_limit,
        client_rate_per_s=args.client_rate,
        window_s=args.window,
        max_batch=args.max_batch,
    )
    load = LoadgenConfig(
        num_requests=args.requests,
        rate_per_s=args.rate,
        num_clients=args.clients,
        arrival=args.arrival,
        loop=args.loop,
        seed=args.seed,
    )
    return service, load


def _run_serve(args: argparse.Namespace) -> int:
    """Run one serving session per requested policy, write the reports."""
    # Imported lazily: the serving stack is only needed here.
    import asyncio
    import time

    from repro.experiments.harness.schema import write_document
    from repro.perf.profiler import peak_rss_bytes
    from repro.serve import serve_session, virtual_run

    policies = (
        ("online", "micro-batch") if args.policy == "both" else (args.policy,)
    )
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    if args.shards > 1:
        return _run_serve_sharded(args, policies, output_dir)
    if (
        args.replication_factor > 1
        or args.kill
        or args.hang
        or args.recover
        or args.assert_availability is not None
    ):
        print(
            "error: --replication-factor/--kill/--hang/--recover/"
            "--assert-availability are sharded-deployment flags; "
            "add --shards > 1",
            file=sys.stderr,
        )
        return 2
    for policy in policies:
        config, load = _serve_configs(args, policy)
        session = serve_session(
            config, load, args.drain_grace, virtual_clock=not args.wall
        )
        if args.wall:
            result, document = asyncio.run(session)
            document["created_unix"] = time.time()
            document["peak_rss_bytes"] = peak_rss_bytes()
        else:
            result, document = virtual_run(session)
        name = policy.replace("-", "_")
        path = write_document(document, output_dir / f"SERVE_{name}.json")
        metrics = document["result"]["metrics"]
        response = metrics["histograms"]["response_s"]
        print(f"wrote {path}")
        print(
            f"  {policy}: {result.completed}/{result.offered} completed, "
            f"{result.rejected} rejected, "
            f"{metrics['gauges']['energy.joules']:.0f} J, "
            f"p95 {response['p95']:.3f}s, "
            f"{document['wall_clock_s']:.1f} virtual s"
        )
    return 0


def _run_serve_sharded(
    args: argparse.Namespace,
    policies: Tuple[str, ...],
    output_dir: Path,
) -> int:
    """Run one sharded deployment per policy, write the merged reports.

    Writes the same ``SERVE_<policy>.json`` filenames as the unsharded
    path, so CI's byte-compare determinism checks work unchanged.
    """
    from repro.errors import ConfigurationError
    from repro.experiments.harness.schema import write_document
    from repro.serve.shard import (
        ShardHang,
        ShardKill,
        ShardedServiceConfig,
        run_sharded,
        sharded_document,
    )

    def parse_kill(spec: str) -> ShardKill:
        parts = spec.split("@")
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"--kill wants SHARD@TIME[@RECOVER_AT], got {spec!r}"
            )
        return ShardKill(
            shard_id=int(parts[0]),
            time_s=float(parts[1]),
            recover_at_s=float(parts[2]) if len(parts) == 3 else None,
        )

    def parse_hang(spec: str) -> ShardHang:
        parts = spec.split("@")
        if len(parts) != 2:
            raise ConfigurationError(f"--hang wants SHARD@TIME, got {spec!r}")
        return ShardHang(shard_id=int(parts[0]), time_s=float(parts[1]))

    if args.wall:
        print(
            "error: --wall is single-process only; sharded runs are "
            "virtual-clock by construction",
            file=sys.stderr,
        )
        return 2
    if args.loop != "open":
        print(
            "error: --shards needs an open-loop schedule; closed-loop "
            "sessions are single-process only",
            file=sys.stderr,
        )
        return 2
    try:
        kills = tuple(parse_kill(spec) for spec in args.kill)
        hangs = tuple(parse_hang(spec) for spec in args.hang)
    except (ConfigurationError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    status = 0
    for policy in policies:
        service, load = _serve_configs(args, policy)
        config = ShardedServiceConfig(
            service=service,
            num_shards=args.shards,
            shard_replication_factor=args.replication_factor,
            drain_grace_s=args.drain_grace,
        )
        run = run_sharded(
            config,
            load,
            kills=kills,
            hangs=hangs,
            supervise=args.recover,
            response_timeout_s=args.response_timeout,
        )
        document = sharded_document(config, load, run)
        name = policy.replace("-", "_")
        path = write_document(document, output_dir / f"SERVE_{name}.json")
        outcome = document["result"]["outcome"]
        print(f"wrote {path}")
        print(
            f"  {policy} x{args.shards} shards: "
            f"{outcome['completed']}/{outcome['offered']} completed, "
            f"{outcome['rejected']} rejected, "
            f"{run.events_processed} events, "
            f"critical path {run.critical_path_s:.2f}s wall"
        )
        if kills or hangs or args.recover:
            print(
                f"  chaos: availability {run.availability:.4f}, "
                f"{len(run.shards_down)} shard(s) down at end, "
                f"{run.requests_lost} lost, "
                f"{run.requests_failed_over} failed over, "
                f"{run.requests_replayed} replayed, "
                f"{run.duplicates_suppressed} duplicate(s) suppressed"
            )
            for report in run.recoveries:
                print(
                    f"  recovery: shard {report.shard_id} ({report.reason}) "
                    f"rejoined after {report.downtime_wall_s:.2f}s wall, "
                    f"{report.spawn_attempts} spawn attempt(s), "
                    f"{report.requests_replayed} replayed, "
                    f"{report.requests_failed_over} failed over"
                )
        if (
            args.assert_availability is not None
            and run.availability < args.assert_availability
        ):
            print(
                f"error: availability {run.availability:.4f} is below the "
                f"--assert-availability bound {args.assert_availability}",
                file=sys.stderr,
            )
            status = 1
    return status


def _run_simulate(args: argparse.Namespace) -> int:
    if args.tier is not None:
        return _run_simulate_tiered(args)
    result = common.run_cell(
        args.trace,
        args.replication,
        args.scheduler,
        zipf_exponent=args.zipf,
        alpha=args.alpha,
        beta=args.beta,
        fault_rate=args.fault_rate,
    )
    print(result.report.summary())
    print(f"normalized energy    : {result.normalized_energy:.3f} (vs always-on)")
    return 0


def _run_simulate_tiered(args: argparse.Namespace) -> int:
    """One tiered (disk + tape) run: live, uncached, deterministic."""
    # Imported lazily: only --tier runs need the tape subsystem.
    from dataclasses import replace

    from repro.faults.plan import FaultPlan
    from repro.sim.runner import simulate as run_simulation
    from repro.tape.config import TierConfig
    from repro.tape.profile import get_tape_profile

    requests, catalog, num_disks = common.get_binding(
        args.trace, args.replication, zipf_exponent=args.zipf
    )
    scheduler = common.make_scheduler_for_key(
        args.scheduler, alpha=args.alpha, beta=args.beta
    )
    tier = TierConfig(
        hot_fraction=args.tier,
        num_tape_drives=args.tape_drives,
        sequencer=args.sequencer,
        tape_profile=get_tape_profile(args.tape_profile),
    )
    config = replace(
        common.make_config(num_disks),
        tier=tier,
        # The plan an untiered run of the same cell gets.
        fault_plan=FaultPlan.canonical(args.fault_rate, seed=common.BASE_SEED)
        if args.fault_rate
        else None,
    )
    report = run_simulation(requests, catalog, scheduler, config)
    print(report.summary())
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    rows = []
    for key in ("static", "random", "heuristic", "wsc", "mwis"):
        result = common.run_cell(args.trace, args.replication, key)
        rows.append(
            [
                common.SCHEDULER_LABELS[key],
                f"{result.normalized_energy:.3f}",
                result.spin_operations,
                f"{result.mean_response_time * 1000:.0f}"
                if result.report.response_times
                else "n/a",
            ]
        )
    print(
        format_table(
            ["scheduler", "energy (norm.)", "spin ops", "mean resp (ms)"],
            rows,
            title=f"{args.trace} trace, replication {args.replication}",
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
