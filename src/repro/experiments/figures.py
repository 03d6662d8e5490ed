"""One entry point per figure of the paper's evaluation.

Each ``figN`` function fetches its family's cell list (a ``*_cells``
function: every run it reads), reads those (cached) simulations and
returns a :class:`FigureResult` whose ``render()`` prints the same
series the paper plots. The benchmarks in ``benchmarks/`` wrap these
functions; they are equally usable from a REPL or the CLI
(``python -m repro figure fig6``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.tables import format_breakdown, format_series_table
from repro.errors import ConfigurationError
from repro.experiments import common
from repro.experiments.common import (
    REPLICATION_FACTORS,
    SCHEDULER_LABELS,
    run_cell,
    with_baselines,
)
from repro.experiments.harness.spec import RunSpec, cell_spec
from repro.power.profile import PAPER_EVAL
from repro.power.states import STATE_ORDER, DiskPowerState


@dataclass
class FigureResult:
    """Series data for one reproduced figure."""

    figure_id: str
    title: str
    x_label: str
    x_values: Sequence[object]
    series: Mapping[str, Sequence[float]]
    notes: List[str] = field(default_factory=list)
    precision: int = 3

    def render(self) -> str:
        """The figure's series as a paper-plot-style ASCII table."""
        body = format_series_table(
            self.x_label,
            self.x_values,
            self.series,
            title=f"{self.figure_id}: {self.title}",
            precision=self.precision,
        )
        if self.notes:
            body += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return body


#: Scheduler panels per figure family, in legend order. MWIS has no
#: response times (offline model) and Fig. 10 sweeps only the
#: placement-driven schedulers.
ENERGY_KEYS = ("random", "static", "heuristic", "wsc", "mwis")
RESPONSE_KEYS = ("random", "static", "heuristic", "wsc")
BREAKDOWN_KEYS = ("random", "static", "wsc", "mwis")
LOCALITY_KEYS = ("random", "static", "heuristic")


def _grid(
    trace: str,
    keys: Sequence[str],
    rfs: Sequence[int],
    scale: float,
    seed: int,
) -> List[RunSpec]:
    """Every scheduler in ``keys`` at every rf in ``rfs``, with baselines."""
    return with_baselines(
        [
            cell_spec(trace, rf, key, scale=scale, seed=seed)
            for key in keys
            for rf in rfs
        ]
    )


def energy_cells(trace: str, scale: float, seed: int) -> List[RunSpec]:
    """Fig. 6/7/14/15 cells: every scheduler at every replication factor."""
    return _grid(trace, ENERGY_KEYS, REPLICATION_FACTORS, scale, seed)


def response_cells(trace: str, scale: float, seed: int) -> List[RunSpec]:
    """Fig. 8/13/16 cells: the online schedulers at every rf."""
    return _grid(trace, RESPONSE_KEYS, REPLICATION_FACTORS, scale, seed)


def breakdown_cells(trace: str, scale: float, seed: int) -> List[RunSpec]:
    """Fig. 9/17 cells: the breakdown panels at rf=3."""
    return _grid(trace, BREAKDOWN_KEYS, (3,), scale, seed)


def fig5() -> str:
    """Fig. 5 — the 2CPM power configuration used by every experiment."""
    return PAPER_EVAL.describe()


def _energy_vs_replication(trace: str, figure_id: str) -> FigureResult:
    common.fetch(energy_cells(trace, *common.knobs()))
    series: Dict[str, List[float]] = {}
    for key in ENERGY_KEYS:
        label = SCHEDULER_LABELS[key]
        series[label] = [
            run_cell(trace, rf, key).normalized_energy for rf in REPLICATION_FACTORS
        ]
    return FigureResult(
        figure_id=figure_id,
        title=f"Energy consumption normalised to always-on ({trace})",
        x_label="replication",
        x_values=REPLICATION_FACTORS,
        series=series,
        notes=[
            "paper shape: Static flat, Random rises toward 1.0, "
            "energy-aware falls monotonically, MWIS <= WSC <= Heuristic",
        ],
    )


def fig6() -> FigureResult:
    """Fig. 6 — energy vs replication factor, Cello."""
    return _energy_vs_replication("cello", "fig6")


def _spin_vs_replication(trace: str, figure_id: str) -> FigureResult:
    common.fetch(energy_cells(trace, *common.knobs()))
    static_ops = {
        rf: run_cell(trace, rf, "static").spin_operations
        for rf in REPLICATION_FACTORS
    }
    series: Dict[str, List[float]] = {}
    for key in ENERGY_KEYS:
        series[SCHEDULER_LABELS[key]] = [
            run_cell(trace, rf, key).spin_operations / max(1, static_ops[rf])
            for rf in REPLICATION_FACTORS
        ]
    return FigureResult(
        figure_id=figure_id,
        title=f"Disk spin-up/down operations normalised to Static ({trace})",
        x_label="replication",
        x_values=REPLICATION_FACTORS,
        series=series,
        notes=[
            "paper shape: energy-aware and Random fall below 1.0 as "
            "replication grows; MWIS lowest",
        ],
    )


def fig7() -> FigureResult:
    """Fig. 7 — spin-up/down operations vs replication factor, Cello."""
    return _spin_vs_replication("cello", "fig7")


def _response_vs_replication(trace: str, figure_id: str) -> FigureResult:
    common.fetch(response_cells(trace, *common.knobs()))
    series: Dict[str, List[float]] = {}
    for key in RESPONSE_KEYS:
        label = SCHEDULER_LABELS[key]
        series[label] = [
            run_cell(trace, rf, key).mean_response_time
            for rf in REPLICATION_FACTORS
        ]
    return FigureResult(
        figure_id=figure_id,
        title=f"Mean request response time in seconds ({trace})",
        x_label="replication",
        x_values=REPLICATION_FACTORS,
        series=series,
        notes=[
            "MWIS omitted (offline model suffers no spin-up delay), "
            "matching the paper",
            "paper shape: Heuristic < Static; WSC slightly above Heuristic "
            "(batch queueing); Random worst at high replication",
        ],
    )


def fig8() -> FigureResult:
    """Fig. 8 — mean response time vs replication factor, Cello."""
    return _response_vs_replication("cello", "fig8")


def _breakdown(trace: str, figure_id: str) -> "BreakdownResult":
    common.fetch(breakdown_cells(trace, *common.knobs()))
    panels = {}
    for key in BREAKDOWN_KEYS:
        result = run_cell(trace, 3, key)
        panels[SCHEDULER_LABELS[key]] = result.report.per_disk_fractions()
    return BreakdownResult(
        figure_id=figure_id,
        title=f"Per-disk state-time breakdown at replication 3 ({trace})",
        panels=panels,
    )


@dataclass
class BreakdownResult:
    """Fig. 9/17 — per-disk state-time fractions, disks sorted by standby."""

    figure_id: str
    title: str
    panels: Mapping[str, List[Dict[DiskPowerState, float]]]

    def render(self) -> str:
        """All panels as sampled per-disk breakdown tables."""
        blocks = [f"{self.figure_id}: {self.title}"]
        for name, fractions in self.panels.items():
            blocks.append(f"\n[{name}] ({len(fractions)} disks, sampled)")
            blocks.append(format_breakdown(fractions, STATE_ORDER))
        return "\n".join(blocks)

    def standby_share(self, panel: str) -> float:
        """Aggregate standby fraction of one panel (test hook)."""
        fractions = self.panels[panel]
        if not fractions:
            return 0.0
        return sum(f[DiskPowerState.STANDBY] for f in fractions) / len(fractions)


def fig9() -> BreakdownResult:
    """Fig. 9 — per-disk state-time breakdown, Cello, rf=3."""
    return _breakdown("cello", "fig9")


Z_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
RF_GRID = (1, 3, 5)


def fig10_cells(
    scale: float,
    seed: int,
    z_grid: Sequence[float] = Z_GRID,
    rf_grid: Sequence[int] = RF_GRID,
) -> List[RunSpec]:
    """Fig. 10 cells: the locality schedulers over the (rf, z) grid."""
    return with_baselines(
        [
            cell_spec("cello", rf, key, zipf_exponent=z, scale=scale, seed=seed)
            for key in LOCALITY_KEYS
            for rf in rf_grid
            for z in z_grid
        ]
    )


def fig10(
    z_grid: Sequence[float] = Z_GRID, rf_grid: Sequence[int] = RF_GRID
) -> Dict[str, FigureResult]:
    """Fig. 10 — energy surface over (replication, data locality z).

    Returns one FigureResult per scheduler panel (Random/Static/Heuristic),
    each with one series per replication factor over the z grid. The
    paper sweeps z in steps of 0.1; the default grid here uses 0.2 steps
    (halves the run count without changing the surface shape).
    """
    common.fetch(fig10_cells(*common.knobs(), z_grid=z_grid, rf_grid=rf_grid))
    panels: Dict[str, FigureResult] = {}
    for key in LOCALITY_KEYS:
        series: Dict[str, List[float]] = {}
        for rf in rf_grid:
            series[f"rf={rf}"] = [
                run_cell("cello", rf, key, zipf_exponent=z).normalized_energy
                for z in z_grid
            ]
        panels[key] = FigureResult(
            figure_id="fig10",
            title=f"Energy vs data locality — {SCHEDULER_LABELS[key]} (cello)",
            x_label="z",
            x_values=list(z_grid),
            series=series,
            notes=[
                "paper shape: Random/Static need skew (z->1) to save "
                "anything; Heuristic still saves heavily at z=0 when "
                "replication is high",
            ],
        )
    return panels


ALPHA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
BETA_GRID = (1.0, 10.0, 100.0, 500.0, 1000.0)


def fig11_cells(
    scale: float,
    seed: int,
    alpha_grid: Sequence[float] = ALPHA_GRID,
    beta_grid: Sequence[float] = BETA_GRID,
) -> List[RunSpec]:
    """Fig. 11 cells: the Heuristic over the (alpha, beta) grid at rf=3."""
    return with_baselines(
        [
            cell_spec(
                "cello", 3, "heuristic", alpha=alpha, beta=beta, scale=scale, seed=seed
            )
            for beta in beta_grid
            for alpha in alpha_grid
        ]
    )


def fig11(
    alpha_grid: Sequence[float] = ALPHA_GRID,
    beta_grid: Sequence[float] = BETA_GRID,
) -> Tuple[FigureResult, FigureResult]:
    """Fig. 11 — the Heuristic cost-function trade-off at rf=3 (Cello).

    Returns (energy, response-time) results; each series is one beta value
    over the alpha grid, normalised to that beta's alpha=0 run, exactly as
    in the paper's Appendix A.2 plot.
    """
    common.fetch(fig11_cells(*common.knobs(), alpha_grid=alpha_grid, beta_grid=beta_grid))
    energy_series: Dict[str, List[float]] = {}
    response_series: Dict[str, List[float]] = {}
    for beta in beta_grid:
        energies = []
        responses = []
        for alpha in alpha_grid:
            result = run_cell("cello", 3, "heuristic", alpha=alpha, beta=beta)
            energies.append(result.report.total_energy)
            responses.append(result.mean_response_time)
        base_energy = energies[0]
        base_response = responses[0] or 1.0
        energy_series[f"beta={beta:g}"] = [e / base_energy for e in energies]
        response_series[f"beta={beta:g}"] = [r / base_response for r in responses]
    energy = FigureResult(
        figure_id="fig11a",
        title="Energy vs alpha, normalised to alpha=0 (cello, rf=3)",
        x_label="alpha",
        x_values=list(alpha_grid),
        series=energy_series,
        notes=["paper shape: energy falls as alpha rises; smaller beta falls faster"],
    )
    response = FigureResult(
        figure_id="fig11b",
        title="Mean response time vs alpha, normalised to alpha=0 (cello, rf=3)",
        x_label="alpha",
        x_values=list(alpha_grid),
        series=response_series,
        notes=["paper shape: response rises as alpha rises; larger beta rises slower"],
    )
    return energy, response


RESPONSE_THRESHOLDS = (
    0.001,
    0.003,
    0.01,
    0.03,
    0.1,
    0.3,
    1.0,
    3.0,
    10.0,
    30.0,
)


def fig12_cells(trace: str, scale: float, seed: int) -> List[RunSpec]:
    """Fig. 12 cells: the online schedulers at rf=3, with their baseline."""
    return _grid(trace, RESPONSE_KEYS, (3,), scale, seed)


def fig12(trace: str = "cello") -> FigureResult:
    """Fig. 12 — inverse CDF of response time at rf=3.

    ``P[response > x]`` per scheduler; the always-on run stands in for the
    no-spin-up-delay baseline (the paper also plots MWIS there, which by
    construction matches it).
    """
    common.fetch(fig12_cells(trace, *common.knobs()))
    series: Dict[str, List[float]] = {}
    thresholds = list(RESPONSE_THRESHOLDS)
    baseline = common.get_baseline(trace)
    series["Always-on"] = [p for _x, p in baseline.inverse_cdf(thresholds)]
    for key in RESPONSE_KEYS:
        report = run_cell(trace, 3, key).report
        series[SCHEDULER_LABELS[key]] = [
            p for _x, p in report.inverse_cdf(thresholds)
        ]
    return FigureResult(
        figure_id="fig12",
        title=f"P[response time > x] at replication 3 ({trace})",
        x_label="x (s)",
        x_values=thresholds,
        series=series,
        precision=4,
        notes=[
            "paper shape: majority of requests < 100 ms in every schedule; "
            "a small tail suffers the full spin-up delay under 2CPM",
        ],
    )


def fig13(trace: str = "cello") -> FigureResult:
    """Fig. 13 — 90th-percentile response time (ms) vs replication."""
    common.fetch(response_cells(trace, *common.knobs()))
    series: Dict[str, List[float]] = {}
    baseline = common.get_baseline(trace)
    base_p90 = baseline.response_percentile(0.9) * 1000.0
    series["Always-on"] = [base_p90 for _ in REPLICATION_FACTORS]
    for key in RESPONSE_KEYS:
        series[SCHEDULER_LABELS[key]] = [
            run_cell(trace, rf, key).report.response_percentile(0.9) * 1000.0
            for rf in REPLICATION_FACTORS
        ]
    return FigureResult(
        figure_id="fig13",
        title=f"90th-percentile response time in ms ({trace})",
        x_label="replication",
        x_values=REPLICATION_FACTORS,
        series=series,
        precision=1,
        notes=[
            "paper shape: p90 stays near pure service time for always-on; "
            "WSC highest (batch queueing delay), improving with replication",
        ],
    )


def fig14() -> FigureResult:
    """Fig. 14 — energy vs replication factor, Financial1."""
    return _energy_vs_replication("financial", "fig14")


def fig15() -> FigureResult:
    """Fig. 15 — spin-up/down operations vs replication factor, Financial1."""
    return _spin_vs_replication("financial", "fig15")


def fig16() -> FigureResult:
    """Fig. 16 — mean response time vs replication factor, Financial1."""
    return _response_vs_replication("financial", "fig16")


def fig17() -> BreakdownResult:
    """Fig. 17 — per-disk state-time breakdown, Financial1, rf=3."""
    return _breakdown("financial", "fig17")


FIGURES = {
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
}


def run_figure(figure_id: str) -> FigureResult:
    """Dispatch by figure id (used by the CLI)."""
    try:
        factory = FIGURES[figure_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; known: {sorted(FIGURES)}"
        )
    return factory()
