"""Fault sweep: scheduler robustness under increasing disk failure rates.

The paper's evaluation assumes a perfectly reliable fleet; this sweep
asks what each scheduler's energy/response trade-off costs in
*availability* when disks die.  Every (scheduler, rate) cell runs the
canonical permanent-failure plan (``FaultPlan.canonical``: exponential
MTTF = 1/rate) against the usual Cello-like workload at replication
factor 3; the rate-0 column runs the exact no-fault code path, so its
numbers are byte-identical to the ordinary evaluation cells.

Because every cell at one seed shares the per-disk failure uniforms
(inverse-CDF transformed by the rate), a higher rate strictly advances
every disk death — availability is monotone non-increasing along the
rate axis, which is asserted by the bench tier.  :func:`fault_sweep_cells`
lists the sweep's cells.

Expected curve shapes:

* availability starts at 1.0 and decays roughly linearly in the rate
  (for rate x horizon << 1 the expected downtime of a disk is about
  ``rate * horizon^2 / 2``);
* lost-request fraction stays near zero until failures outpace the
  replication factor, then grows superlinearly (a request is lost only
  when all three replicas are dead);
* normalised energy *falls* with the failure rate — dead disks draw no
  power — which is exactly why energy alone is the wrong robustness
  metric;
* mean response time creeps up as failovers re-queue requests onto
  fewer, busier surviving disks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import common
from repro.experiments.ablations import AblationResult, Panel
from repro.experiments.harness.spec import RunSpec

#: Per-disk permanent failures per simulated second.  The derived horizon
#: of the default benches is a few thousand seconds, so this grid spans
#: "nothing fails" to "most of the fleet dies mid-run".
FAULT_RATES_PER_S: Tuple[float, ...] = (0.0, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3)

#: The four fault-aware schedulers (offline MWIS cannot re-plan around
#: failures and is excluded by construction).
SWEEP_SCHEDULERS: Tuple[str, ...] = ("static", "random", "heuristic", "wsc")

#: Replication factor of every sweep cell: the paper's mid-range choice,
#: and enough redundancy that losses stay interesting rather than total.
SWEEP_REPLICATION = 3

SWEEP_TRACE = "cello"


def fault_sweep_cells(
    scale: float,
    mwis_scale: float,
    seed: int,
    rates: Sequence[float] = FAULT_RATES_PER_S,
) -> List[RunSpec]:
    """Every (scheduler, rate) cell of the sweep, with the baseline."""
    return common.with_baselines(
        [
            common.cell(
                SWEEP_TRACE, SWEEP_REPLICATION, key, scale, mwis_scale, seed,
                fault_rate=rate,
            )
            for key in SWEEP_SCHEDULERS
            for rate in rates
        ]
    )


def run_fault_sweep(
    scale: Optional[float] = None,
    rates: Sequence[float] = FAULT_RATES_PER_S,
    seed: Optional[int] = None,
) -> AblationResult:
    """Sweep failure rates across the four online/batch schedulers.

    Args:
        scale: Trace/disk scale factor (defaults to the campaign scale).
        rates: Failure rates in per-disk failures per simulated second;
            must include 0.0 first for the no-fault reference column.
        seed: Base RNG seed (defaults to the campaign seed).
    """
    common.fetch(fault_sweep_cells(*common.knobs(scale, seed), rates=rates))
    availability: Dict[str, List[float]] = {}
    energy: Dict[str, List[float]] = {}
    response: Dict[str, List[float]] = {}
    lost: Dict[str, List[float]] = {}
    events = 0
    for key in SWEEP_SCHEDULERS:
        label = common.SCHEDULER_LABELS[key]
        availability[label] = []
        energy[label] = []
        response[label] = []
        lost[label] = []
        for rate in rates:
            result = common.run_cell(
                SWEEP_TRACE,
                SWEEP_REPLICATION,
                key,
                scale=scale,
                seed=seed,
                fault_rate=rate,
            )
            report = result.report
            events += report.events_processed
            avail = report.availability
            availability[label].append(
                1.0 if avail is None else avail.availability
            )
            lost[label].append(
                0.0
                if avail is None
                else avail.loss_fraction(report.requests_offered)
            )
            energy[label].append(result.normalized_energy)
            response[label].append(result.mean_response_time)
    return AblationResult(
        ablation_id="fault_sweep",
        title=(
            f"fault sweep ({SWEEP_TRACE}, rf={SWEEP_REPLICATION}, "
            f"permanent failures)"
        ),
        panels=[
            Panel(
                name="fault sweep: availability (fraction of disk-seconds)",
                x_label="failures/disk/s",
                x_values=list(rates),
                series=availability,
                precision=4,
            ),
            Panel(
                name="fault sweep: lost requests (fraction of offered)",
                x_label="failures/disk/s",
                x_values=list(rates),
                series=lost,
                precision=4,
            ),
            Panel(
                name="fault sweep: energy vs always-on",
                x_label="failures/disk/s",
                x_values=list(rates),
                series=energy,
            ),
            Panel(
                name="fault sweep: mean response (s)",
                x_label="failures/disk/s",
                x_values=list(rates),
                series=response,
            ),
        ],
        events_processed=events,
    )
