"""The paper's abstract, verified.

The abstract claims the approach "significantly reduces energy
consumption up to 55% and achieves fewer disk spin-up/down operations and
shorter request response time as compared to other approaches". This
module computes those three headline numbers from the same cached
campaign the figures use, so ``repro-storage headline`` (or the
``bench_headline_claims`` benchmark) prints the abstract's scorecard.
:func:`headline_cells` lists the cells it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.tables import format_table
from repro.experiments.common import (
    REPLICATION_FACTORS,
    SCHEDULER_LABELS,
    cell,
    fetch,
    knobs,
    run_cell,
    with_baselines,
)
from repro.experiments.harness.spec import RunSpec

#: The energy-aware schedulers competing for the best energy cut.
ENERGY_AWARE_KEYS = ("heuristic", "wsc", "mwis")


@dataclass(frozen=True)
class HeadlineClaims:
    """The abstract's three claims, quantified on one trace.

    Attributes:
        trace: Which workload was measured.
        best_energy_reduction: Largest energy cut vs always-on achieved by
            any energy-aware scheduler at any replication factor, as a
            fraction (paper: "up to 55%" => 0.55).
        best_energy_cell: (scheduler key, replication factor) achieving
            that best energy ratio.
        spin_reduction_vs_static: 1 - (energy-aware spin ops / Static spin
            ops) at replication 3 (Heuristic).
        response_reduction_vs_static: 1 - (Heuristic mean response / Static
            mean response) at replication 3.
    """

    trace: str
    best_energy_reduction: float
    best_energy_cell: Tuple[str, int]
    spin_reduction_vs_static: float
    response_reduction_vs_static: float

    def render(self) -> str:
        """Scorecard table mirroring the abstract's three claims."""
        rows = [
            [
                "energy reduction vs always-on (best case)",
                "up to 55%",
                f"{self.best_energy_reduction * 100:.0f}% "
                f"({SCHEDULER_LABELS[self.best_energy_cell[0]]}, "
                f"rf={self.best_energy_cell[1]})",
            ],
            [
                "spin-up/down reduction vs Static (rf=3, Heuristic)",
                "fewer",
                f"{self.spin_reduction_vs_static * 100:.0f}% fewer",
            ],
            [
                "mean response reduction vs Static (rf=3, Heuristic)",
                "shorter",
                f"{self.response_reduction_vs_static * 100:.0f}% shorter",
            ],
        ]
        return format_table(
            ["claim", "paper", "measured"],
            rows,
            title=f"headline claims ({self.trace})",
        )


def headline_cells(
    trace: str, scale: float, mwis_scale: float, seed: int
) -> List[RunSpec]:
    """Every cell the claims read: the energy-aware schedulers at every
    rf, and Static at rf=3."""
    specs = [
        cell(trace, rf, key, scale, mwis_scale, seed)
        for key in ENERGY_AWARE_KEYS
        for rf in REPLICATION_FACTORS
    ]
    specs.append(cell(trace, 3, "static", scale, mwis_scale, seed))
    return with_baselines(specs)


def headline_claims(trace: str = "cello") -> HeadlineClaims:
    """Measure the abstract's claims on one trace (cached campaign)."""
    fetch(headline_cells(trace, *knobs()))
    best_reduction = 0.0
    best_cell: Tuple[str, int] = ("heuristic", 1)
    for key in ENERGY_AWARE_KEYS:
        for rf in REPLICATION_FACTORS:
            result = run_cell(trace, rf, key)
            reduction = 1.0 - result.normalized_energy
            if reduction > best_reduction:
                best_reduction = reduction
                best_cell = (key, rf)

    static = run_cell(trace, 3, "static")
    heuristic = run_cell(trace, 3, "heuristic")
    spin_reduction = 1.0 - heuristic.spin_operations / max(
        1, static.spin_operations
    )
    response_reduction = 1.0 - (
        heuristic.mean_response_time / static.mean_response_time
        if static.mean_response_time
        else 1.0
    )
    return HeadlineClaims(
        trace=trace,
        best_energy_reduction=best_reduction,
        best_energy_cell=best_cell,
        spin_reduction_vs_static=spin_reduction,
        response_reduction_vs_static=response_reduction,
    )
