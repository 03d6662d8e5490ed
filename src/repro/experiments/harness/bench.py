"""``repro-storage bench``: run any figure/ablation by id, record the cost.

Each bench pre-computes its evaluation cells through the
:class:`~repro.experiments.harness.runner.SweepRunner` (persistent cache
in front, process pool behind), hands the payloads to
:mod:`repro.experiments.common`, builds the figure/ablation result, and
writes one schema-versioned ``BENCH_<name>.json`` trajectory document:
wall-clock, simulator events per second, peak RSS, per-point cache
status, and the result series themselves.

This module sits *above* :mod:`repro.experiments.common` in the import
graph (the rest of the harness sits below it) — import it lazily from
user-facing entry points.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.analysis.export import figure_to_rows
from repro.errors import ConfigurationError
from repro.experiments import common
from repro.experiments.ablations import ABLATIONS, AblationResult, run_ablation
from repro.experiments.figures import (
    ALPHA_GRID,
    BETA_GRID,
    FIGURES,
    RF_GRID,
    Z_GRID,
    BreakdownResult,
)
from repro.experiments.fault_sweep import (
    FAULT_RATES_PER_S,
    SWEEP_REPLICATION,
    SWEEP_SCHEDULERS,
    SWEEP_TRACE,
    run_fault_sweep,
)
from repro.experiments.harness.cache import RunCache
from repro.experiments.harness.runner import SweepOutcome, SweepRunner
from repro.experiments.harness.schema import BENCH_SCHEMA, validate_bench_payload
from repro.experiments.harness.spec import RunSpec, baseline_of, cell_spec
from repro.experiments.headline import headline_claims
from repro.experiments.serve_scale import run_serve_scale
from repro.experiments.serve_sweep import run_serve_sweep

ALL_KEYS = ("random", "static", "heuristic", "wsc", "mwis")
ONLINE_KEYS = ("random", "static", "heuristic", "wsc")
BREAKDOWN_KEYS = ("random", "static", "wsc", "mwis")

#: specs builder signature: (scale, mwis_scale, seed) -> specs to pre-warm.
_SpecsFn = Callable[[float, float, int], List[RunSpec]]
#: result builder signature: (explicit scale or None) -> (payload, events).
_ResultFn = Callable[[Optional[float]], Tuple[Dict[str, Any], int]]


#: Bench families, in the display order of ``repro-storage bench list``.
BENCH_FAMILIES = ("figures", "ablations", "serve", "tape")


@dataclass(frozen=True)
class BenchDefinition:
    """One runnable bench: its sweep specs and its result builder."""

    bench_id: str
    description: str
    specs: _SpecsFn
    result: _ResultFn
    family: str = "figures"


def _cell(
    trace: str,
    replication_factor: int,
    key: str,
    scale: float,
    mwis_scale: float,
    seed: int,
    **kwargs: float,
) -> RunSpec:
    """One cell spec, respecting the MWIS scale split ``run_cell`` uses."""
    run_scale = mwis_scale if key == "mwis" else scale
    return cell_spec(
        trace, replication_factor, key, scale=run_scale, seed=seed, **kwargs
    )


def _with_baselines(specs: Sequence[RunSpec]) -> List[RunSpec]:
    """Cells plus every distinct always-on baseline they normalise against."""
    out: List[RunSpec] = list(specs)
    seen: Set[RunSpec] = set(out)
    for spec in specs:
        baseline = baseline_of(spec)
        if baseline not in seen:
            seen.add(baseline)
            out.append(baseline)
    return out


def _no_specs(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
    return []


def _energy_specs(trace: str) -> _SpecsFn:
    def build(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
        return _with_baselines(
            [
                _cell(trace, rf, key, scale, mwis_scale, seed)
                for key in ALL_KEYS
                for rf in common.REPLICATION_FACTORS
            ]
        )

    return build


def _spin_specs(trace: str) -> _SpecsFn:
    def build(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
        specs = [
            _cell(trace, rf, key, scale, mwis_scale, seed)
            for key in ALL_KEYS
            for rf in common.REPLICATION_FACTORS
        ]
        # fig7/fig15 normalise MWIS spin ops against Static at MWIS scale.
        specs.extend(
            cell_spec(trace, rf, "static", scale=mwis_scale, seed=seed)
            for rf in common.REPLICATION_FACTORS
        )
        return _with_baselines(specs)

    return build


def _response_specs(trace: str) -> _SpecsFn:
    def build(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
        return _with_baselines(
            [
                _cell(trace, rf, key, scale, mwis_scale, seed)
                for key in ONLINE_KEYS
                for rf in common.REPLICATION_FACTORS
            ]
        )

    return build


def _breakdown_specs(trace: str) -> _SpecsFn:
    def build(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
        return _with_baselines(
            [_cell(trace, 3, key, scale, mwis_scale, seed) for key in BREAKDOWN_KEYS]
        )

    return build


def _fig10_specs(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
    return _with_baselines(
        [
            cell_spec(
                "cello", rf, key, zipf_exponent=z, scale=scale, seed=seed
            )
            for key in ("random", "static", "heuristic")
            for rf in RF_GRID
            for z in Z_GRID
        ]
    )


def _fig11_specs(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
    return _with_baselines(
        [
            cell_spec(
                "cello", 3, "heuristic", alpha=alpha, beta=beta,
                scale=scale, seed=seed,
            )
            for beta in BETA_GRID
            for alpha in ALPHA_GRID
        ]
    )


def _fig12_specs(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
    return _with_baselines(
        [_cell("cello", 3, key, scale, mwis_scale, seed) for key in ONLINE_KEYS]
    )


def _headline_specs(trace: str) -> _SpecsFn:
    def build(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
        specs = [
            _cell(trace, rf, key, scale, mwis_scale, seed)
            for key in ("heuristic", "wsc", "mwis")
            for rf in common.REPLICATION_FACTORS
        ]
        specs.append(_cell(trace, 3, "static", scale, mwis_scale, seed))
        return _with_baselines(specs)

    return build


def _serialize_result(value: Any) -> Dict[str, Any]:
    """Normalise any figure/headline return shape into a JSON object."""
    if isinstance(value, str):
        return {"text": value}
    if isinstance(value, tuple):
        return {"parts": [_serialize_result(part) for part in value]}
    if isinstance(value, dict):
        return {name: _serialize_result(part) for name, part in value.items()}
    if isinstance(value, BreakdownResult):
        return {
            "figure_id": value.figure_id,
            "title": value.title,
            "panels": {
                name: {
                    "num_disks": len(fractions),
                    "standby_share": value.standby_share(name),
                }
                for name, fractions in value.panels.items()
            },
        }
    payload = figure_to_rows(value)
    notes = getattr(value, "notes", None)
    if notes:
        payload["notes"] = list(notes)
    return payload


def _figure_result(figure_id: str) -> _ResultFn:
    def build(scale: Optional[float]) -> Tuple[Dict[str, Any], int]:
        return _serialize_result(FIGURES[figure_id]()), 0

    return build


def _headline_result(trace: str) -> _ResultFn:
    def build(scale: Optional[float]) -> Tuple[Dict[str, Any], int]:
        claims = headline_claims(trace)
        return (
            {
                "trace": claims.trace,
                "best_energy_reduction": claims.best_energy_reduction,
                "best_energy_cell": list(claims.best_energy_cell),
                "spin_reduction_vs_static": claims.spin_reduction_vs_static,
                "response_reduction_vs_static": (
                    claims.response_reduction_vs_static
                ),
            },
            0,
        )

    return build


def ablation_result_payload(result: AblationResult) -> Dict[str, Any]:
    """An ablation result as its bench-document payload (JSON-able)."""
    return {
        "ablation_id": result.ablation_id,
        "title": result.title,
        "panels": [
            {
                "name": panel.name,
                "x_label": panel.x_label,
                "x_values": list(panel.x_values),
                "series": {
                    name: list(values) for name, values in panel.series.items()
                },
            }
            for panel in result.panels
        ],
    }


def _ablation_result(ablation_id: str) -> _ResultFn:
    def build(scale: Optional[float]) -> Tuple[Dict[str, Any], int]:
        result = run_ablation(ablation_id, scale)
        return ablation_result_payload(result), result.events_processed

    return build


def _fault_sweep_specs(scale: float, mwis_scale: float, seed: int) -> List[RunSpec]:
    return _with_baselines(
        [
            cell_spec(
                SWEEP_TRACE,
                SWEEP_REPLICATION,
                key,
                scale=scale,
                seed=seed,
                fault_rate=rate,
            )
            for key in SWEEP_SCHEDULERS
            for rate in FAULT_RATES_PER_S
        ]
    )


def _fault_sweep_result(scale: Optional[float]) -> Tuple[Dict[str, Any], int]:
    # Cell events are already counted by the sweep points; report 0 extra.
    return ablation_result_payload(run_fault_sweep(scale)), 0


def _serve_sweep_result(scale: Optional[float]) -> Tuple[Dict[str, Any], int]:
    # Serve cells run live (no run cache); their engine events are the
    # bench's event count.
    result = run_serve_sweep(scale)
    return ablation_result_payload(result), result.events_processed


def _serve_scale_result(scale: Optional[float]) -> Tuple[Dict[str, Any], int]:
    # Sharded cells run live in worker processes; no run cache either.
    result = run_serve_scale(scale)
    return ablation_result_payload(result), result.events_processed


def _tape_tier_result(scale: Optional[float]) -> Tuple[Dict[str, Any], int]:
    # Tiered cells run live (the tier axis is not part of the run-cache
    # key space); their engine events are the bench's event count.
    from repro.experiments.tape_tier import run_tape_tier

    result = run_tape_tier(scale)
    return ablation_result_payload(result), result.events_processed


def _build_registry() -> Dict[str, BenchDefinition]:
    registry: Dict[str, BenchDefinition] = {}

    def add(
        bench_id: str,
        description: str,
        specs: _SpecsFn,
        result: _ResultFn,
        family: str = "figures",
    ) -> None:
        registry[bench_id] = BenchDefinition(
            bench_id, description, specs, result, family
        )

    add("fig5", "power configuration table", _no_specs, _figure_result("fig5"))
    add(
        "fig6", "energy vs replication (cello)",
        _energy_specs("cello"), _figure_result("fig6"),
    )
    add(
        "fig7", "spin ops vs replication (cello)",
        _spin_specs("cello"), _figure_result("fig7"),
    )
    add(
        "fig8", "mean response vs replication (cello)",
        _response_specs("cello"), _figure_result("fig8"),
    )
    add(
        "fig9", "per-disk state breakdown (cello)",
        _breakdown_specs("cello"), _figure_result("fig9"),
    )
    add(
        "fig10", "energy surface over (rf, z)",
        _fig10_specs, _figure_result("fig10"),
    )
    add(
        "fig11", "cost-function trade-off",
        _fig11_specs, _figure_result("fig11"),
    )
    add(
        "fig12", "response-time inverse CDF (cello)",
        _fig12_specs, _figure_result("fig12"),
    )
    add(
        "fig13", "p90 response vs replication (cello)",
        _response_specs("cello"), _figure_result("fig13"),
    )
    add(
        "fig14", "energy vs replication (financial)",
        _energy_specs("financial"), _figure_result("fig14"),
    )
    add(
        "fig15", "spin ops vs replication (financial)",
        _spin_specs("financial"), _figure_result("fig15"),
    )
    add(
        "fig16", "mean response vs replication (financial)",
        _response_specs("financial"), _figure_result("fig16"),
    )
    add(
        "fig17", "per-disk state breakdown (financial)",
        _breakdown_specs("financial"), _figure_result("fig17"),
    )
    add(
        "headline", "the abstract's claims (cello)",
        _headline_specs("cello"), _headline_result("cello"),
    )
    add(
        "fault_sweep",
        "availability vs failure rate (cello, rf=3)",
        _fault_sweep_specs,
        _fault_sweep_result,
        family="ablations",
    )
    add(
        "serve_sweep",
        "live serving: online vs micro-batch across arrival rates",
        _no_specs,
        _serve_sweep_result,
        family="serve",
    )
    add(
        "serve_scale",
        "sharded serving: aggregate events/sec across 1/2/4/8 shards",
        _no_specs,
        _serve_scale_result,
        family="serve",
    )
    add(
        "tape_tier",
        "tiered disk/tape: energy vs latency across tier splits",
        _no_specs,
        _tape_tier_result,
        family="tape",
    )
    for ablation_id in ABLATIONS:
        add(
            ablation_id,
            "ablation sweep (uncached)",
            _no_specs,
            _ablation_result(ablation_id),
            family="ablations",
        )
    return registry


#: Every runnable bench id, in campaign order.
BENCHES: Dict[str, BenchDefinition] = _build_registry()


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


def _point_payload(outcome: SweepOutcome) -> List[Dict[str, Any]]:
    return [
        {
            "spec": point.spec.key_payload(),
            "label": point.spec.label(),
            "cached": point.cached,
            "wall_s": point.wall_s,
            "events_processed": point.events_processed,
        }
        for point in outcome.points
    ]


def run_bench(
    bench_id: str,
    *,
    scale: Optional[float] = None,
    mwis_scale: Optional[float] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    output_dir: Union[str, Path] = ".",
) -> Tuple[Dict[str, Any], Path]:
    """Run one bench end-to-end and write its ``BENCH_<id>.json``.

    Returns the (validated) document and the path it was written to.
    Raises :class:`~repro.errors.ConfigurationError` on an unknown bench
    id or if the assembled document violates the bench schema.
    """
    try:
        bench = BENCHES[bench_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench {bench_id!r}; known: {sorted(BENCHES)}"
        )
    common.configure(scale=scale, mwis_scale=mwis_scale, seed=seed)
    if cache is None:
        cache = common.persistent_cache()
    else:
        common.set_persistent_cache(cache)
    common.clear_caches()

    started = time.perf_counter()
    specs = bench.specs(common.SCALE, common.MWIS_SCALE, common.BASE_SEED)
    outcome = SweepRunner(cache=cache, jobs=jobs).run(specs)
    common.prime_payloads(outcome.payloads)
    result, extra_events = bench.result(scale)
    wall_clock_s = time.perf_counter() - started

    events = outcome.events_processed + extra_events
    payload: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "bench": bench_id,
        "created_unix": time.time(),
        "scale": common.SCALE,
        "mwis_scale": common.MWIS_SCALE,
        "seed": common.BASE_SEED,
        "jobs": jobs,
        "wall_clock_s": wall_clock_s,
        "events_processed": events,
        "events_per_sec": events / wall_clock_s if wall_clock_s > 0 else 0.0,
        "peak_rss_bytes": _peak_rss_bytes(),
        "cache": {
            "enabled": cache.enabled,
            "hits": outcome.cache_hits,
            "misses": outcome.cache_misses,
            "corrupt": outcome.cache_corrupt,
            "hit_rate": outcome.hit_rate,
        },
        "points": _point_payload(outcome),
        "result": result,
    }
    violations = validate_bench_payload(payload)
    if violations:
        raise ConfigurationError(
            "assembled bench document violates the schema: "
            + "; ".join(violations)
        )
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{bench_id}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload, path


def run_all(
    *,
    scale: Optional[float] = None,
    mwis_scale: Optional[float] = None,
    seed: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    output_dir: Union[str, Path] = ".",
) -> List[Path]:
    """Run every bench in registry order; returns the written paths."""
    paths: List[Path] = []
    for bench_id in BENCHES:
        _payload, path = run_bench(
            bench_id,
            scale=scale,
            mwis_scale=mwis_scale,
            seed=seed,
            jobs=jobs,
            cache=cache,
            output_dir=output_dir,
        )
        paths.append(path)
    return paths
