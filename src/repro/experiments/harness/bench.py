"""``repro-storage bench``: run any figure/ablation by id, record the cost.

Each bench builds its figure/ablation result with one
:class:`~repro.experiments.harness.runner.SweepRunner` (persistent cache
in front, ``--jobs`` process pool behind) lent to every cell fetch the
figure makes through :func:`repro.experiments.common.recording`, and
writes one schema-versioned ``BENCH_<name>.json`` trajectory document:
wall-clock, simulator events per second, peak RSS, the cache status of
every point those fetches resolved, and the result series themselves.
A figure bench declares the cell list of the module that draws it
(``specs``); the figure fetches exactly that list.

This module sits *above* :mod:`repro.experiments.common` in the import
graph (the rest of the harness sits below it) — import it lazily from
user-facing entry points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.export import figure_to_rows
from repro.errors import ConfigurationError
from repro.experiments import common
from repro.experiments.ablations import ABLATIONS, AblationResult
from repro.experiments.common import CellList
from repro.experiments.fault_sweep import fault_sweep_cells, run_fault_sweep
from repro.experiments.figures import (
    FIGURES,
    BreakdownResult,
    breakdown_cells,
    energy_cells,
    fig10_cells,
    fig11_cells,
    fig12_cells,
    response_cells,
)
from repro.experiments.harness.cache import RunCache
from repro.experiments.harness.runner import SweepOutcome, SweepRunner
from repro.experiments.harness.schema import bench_document, validate_bench_payload, write_document
from repro.experiments.headline import headline_cells, headline_claims
from repro.experiments.serve_scale import run_serve_scale
from repro.experiments.serve_sweep import run_serve_sweep
from repro.experiments.tape_tier import run_tape_tier
from repro.perf.profiler import peak_rss_bytes

#: result builder signature: () -> (payload, events). It runs at the
#: campaign's (scale, seed), which ``run_bench`` configures first.
_ResultFn = Callable[[], Tuple[Dict[str, Any], int]]


#: Bench families, in the display order of ``repro-storage bench list``.
BENCH_FAMILIES = ("figures", "ablations", "serve", "tape")


@dataclass(frozen=True)
class BenchDefinition:
    """One runnable bench: its result builder and, for a bench that
    reads campaign cells, the cell list its result fetches."""

    bench_id: str
    description: str
    result: _ResultFn
    specs: Optional[CellList] = None
    family: str = "figures"


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
    def build() -> Tuple[Dict[str, Any], int]:
        return _serialize_result(FIGURES[figure_id]()), 0

    return build


def _headline_result(trace: str) -> _ResultFn:
    def build() -> Tuple[Dict[str, Any], int]:
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


def _sweep_result(sweep: Callable[[], AblationResult]) -> _ResultFn:
    # Ablation, serve and tape sweeps run live (no run cache); their
    # engine events are the bench's event count.
    def build() -> Tuple[Dict[str, Any], int]:
        result = sweep()
        return ablation_result_payload(result), result.events_processed

    return build


def _fault_sweep_result() -> Tuple[Dict[str, Any], int]:
    # Cell events are already counted by the sweep points; report 0 extra.
    return ablation_result_payload(run_fault_sweep()), 0


#: The figure benches: id, description and the figure's cell list (fig5
#: draws a table and runs no cells).
_FIGURE_BENCHES: Tuple[Tuple[str, str, Optional[CellList]], ...] = (
    ("fig5", "power configuration table", None),
    ("fig6", "energy vs replication (cello)", partial(energy_cells, "cello")),
    ("fig7", "spin ops vs replication (cello)", partial(energy_cells, "cello")),
    ("fig8", "mean response vs replication (cello)", partial(response_cells, "cello")),
    ("fig9", "per-disk state breakdown (cello)", partial(breakdown_cells, "cello")),
    ("fig10", "energy surface over (rf, z)", fig10_cells),
    ("fig11", "cost-function trade-off", fig11_cells),
    ("fig12", "response-time inverse CDF (cello)", partial(fig12_cells, "cello")),
    ("fig13", "p90 response vs replication (cello)", partial(response_cells, "cello")),
    ("fig14", "energy vs replication (financial)", partial(energy_cells, "financial")),
    ("fig15", "spin ops vs replication (financial)", partial(energy_cells, "financial")),
    (
        "fig16",
        "mean response vs replication (financial)",
        partial(response_cells, "financial"),
    ),
    (
        "fig17",
        "per-disk state breakdown (financial)",
        partial(breakdown_cells, "financial"),
    ),
)


def _build_registry() -> Dict[str, BenchDefinition]:
    registry: Dict[str, BenchDefinition] = {}

    def add(
        bench_id: str,
        description: str,
        result: _ResultFn,
        specs: Optional[CellList] = None,
        family: str = "figures",
    ) -> None:
        registry[bench_id] = BenchDefinition(
            bench_id, description, result, specs, family
        )

    for figure_id, description, cells in _FIGURE_BENCHES:
        add(figure_id, description, _figure_result(figure_id), cells)
    add(
        "headline", "the abstract's claims (cello)",
        _headline_result("cello"), partial(headline_cells, "cello"),
    )
    add(
        "fault_sweep",
        "availability vs failure rate (cello, rf=3)",
        _fault_sweep_result,
        fault_sweep_cells,
        family="ablations",
    )
    add(
        "serve_sweep",
        "live serving: online vs micro-batch across arrival rates",
        _sweep_result(run_serve_sweep),
        family="serve",
    )
    add(
        "serve_scale",
        "sharded serving: aggregate events/sec across 1/2/4/8 shards",
        _sweep_result(run_serve_scale),
        family="serve",
    )
    add(
        "tape_tier",
        "tiered disk/tape: energy vs latency across tier splits",
        _sweep_result(run_tape_tier),
        family="tape",
    )
    for ablation_id in ABLATIONS:
        add(
            ablation_id,
            "ablation sweep (uncached)",
            _sweep_result(ABLATIONS[ablation_id]),
            family="ablations",
        )
    return registry


#: Every runnable bench id, in campaign order.
BENCHES: Dict[str, BenchDefinition] = _build_registry()


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
    common.configure(scale=scale, seed=seed)
    if cache is None:
        cache = common.persistent_cache()
    else:
        common.set_persistent_cache(cache)
    common.clear_caches()

    started = time.perf_counter()
    with common.recording(SweepRunner(cache=cache, jobs=jobs)) as outcome:
        result, extra_events = bench.result()
    wall_clock_s = time.perf_counter() - started

    events = outcome.events_processed + extra_events
    payload = bench_document(
        bench_id,
        scale=common.SCALE,
        mwis_scale=common.SCALE,
        seed=common.BASE_SEED,
        jobs=jobs,
        wall_clock_s=wall_clock_s,
        events_processed=events,
        created_unix=time.time(),
        peak_rss_bytes=peak_rss_bytes(),
        cache={
            "enabled": cache.enabled,
            "hits": outcome.cache_hits,
            "misses": outcome.cache_misses,
            "corrupt": outcome.cache_corrupt,
            "hit_rate": outcome.hit_rate,
        },
        points=_point_payload(outcome),
        result=result,
    )
    violations = validate_bench_payload(payload)
    if violations:
        raise ConfigurationError(
            "assembled bench document violates the schema: "
            + "; ".join(violations)
        )
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = write_document(payload, directory / f"BENCH_{bench_id}.json")
    return payload, path


def run_all(
    *,
    scale: Optional[float] = None,
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
            seed=seed,
            jobs=jobs,
            cache=cache,
            output_dir=output_dir,
        )
        paths.append(path)
    return paths
