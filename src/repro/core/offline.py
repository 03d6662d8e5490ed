"""Offline-model analytic evaluator (Section 2.2 / Lemma 1 semantics).

Under the offline model a scheduler knows arrival times a-priori, so disks
spin up *in advance* and no request waits. What remains is pure energy
bookkeeping over each disk's request chain:

* consecutive requests with gap ``g < TB + Tup + Tdown`` keep the disk
  idle for ``g`` seconds (Lemma 1 cases II/III, energy ``g * PI``);
* larger gaps cost the full ``EPmax = Eup + Edown + TB*PI`` (case I — the
  disk idles out the threshold, spins down and later up again);
* a chain's last request pays ``EPmax`` (no successor — the paper's
  formal convention, which makes schedule energy = N*EPmax − total saving).

The evaluator reproduces the paper's worked examples exactly (Fig. 2:
schedule B = 10; Fig. 3: schedule B = 23, schedule C = 19, always-on 76)
and also synthesises physical per-disk state breakdowns — the pre-spun
walk of :mod:`repro.power.timeline` — so offline (MWIS) runs can sit on
the same figures as simulated runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Sequence, Tuple

from repro.core.problem import SchedulingProblem
from repro.core.saving import gap_energy, max_request_energy
from repro.disk.stats import DiskStats
from repro.power.profile import DiskPowerProfile
from repro.power.timeline import GapRule, fill_timeline
from repro.report import SimulationReport
from repro.types import Assignment, DiskId, Request, RequestId


@dataclass(frozen=True)
class OfflineEvaluation:
    """Result of evaluating one schedule under the offline model.

    Attributes:
        objective_energy: Paper-convention energy (sum of per-request
            energies; last request of each chain pays ``EPmax``).
        request_energy: Per-request energies in joules.
        total_saving: ``N * EPmax - objective_energy`` (joules).
        report: A :class:`SimulationReport` with synthesised per-disk state
            breakdowns, physical energy and spin counts over the common
            horizon — directly comparable with simulated reports.
        always_on_energy: Energy in joules of the always-on configuration
            over the same horizon (``num_disks * horizon * PI``).

    ``objective_energy`` is the Eq. 4 objective, also in joules.
    """

    objective_energy: float
    request_energy: Mapping[RequestId, float]
    total_saving: float
    report: SimulationReport
    always_on_energy: float

    @property
    def horizon(self) -> float:
        return self.report.duration

    @property
    def normalized_energy(self) -> float:
        """Physical energy relative to always-on, a unitless joules ratio
        (the Fig. 6 metric)."""
        return self.report.total_energy / self.always_on_energy


class OfflineEvaluator:
    """Evaluates complete assignments under the offline model."""

    def __init__(self, problem: SchedulingProblem):
        self._problem = problem

    def horizon(self) -> float:
        """Common evaluation horizon: last arrival + TB + Tdown.

        Matches the paper's always-on accounting in the Fig. 3 example
        (duration 18 = last arrival 13 + breakeven 5 with free
        transitions).
        """
        profile = self._problem.profile
        requests = self._problem.requests
        last_arrival = requests[-1].time if requests else 0.0
        return last_arrival + profile.breakeven_time + profile.spin_down_time

    def always_on_energy(self) -> float:
        """Joules burned with all disks idle for the whole horizon."""
        return (
            self._problem.num_disks
            * self.horizon()
            * self._problem.profile.idle_power
        )

    def evaluate(
        self, assignment: Assignment, scheduler_name: str = "offline"
    ) -> OfflineEvaluation:
        """Evaluate a feasible, complete schedule."""
        self._problem.validate_schedule(assignment)
        profile = self._problem.profile
        epmax = max_request_energy(profile)
        horizon = self.horizon()

        request_energy: Dict[RequestId, float] = {}
        disk_stats: Dict[DiskId, DiskStats] = {}
        chains = assignment.chains()
        for disk_id in self._problem.disks:
            chain = chains.get(disk_id, [])
            request_energy.update(_request_energies(chain, profile, epmax))
            stats = DiskStats(profile)
            fill_timeline(
                stats, profile, [r.time for r in chain], horizon, GapRule.PRE_SPUN
            )
            disk_stats[disk_id] = stats

        objective = sum(request_energy.values())
        total_requests = len(self._problem.requests)
        report = SimulationReport(
            scheduler_name=scheduler_name,
            duration=horizon,
            total_energy=sum(stats.energy for stats in disk_stats.values()),
            disk_stats=disk_stats,
            response_times=(),
            requests_offered=total_requests,
            requests_completed=total_requests,
        )
        return OfflineEvaluation(
            objective_energy=objective,
            request_energy=request_energy,
            total_saving=total_requests * epmax - objective,
            report=report,
            always_on_energy=self.always_on_energy(),
        )


def _request_energies(
    chain: Sequence[Request], profile: DiskPowerProfile, epmax: float
) -> Iterator[Tuple[RequestId, float]]:
    """Eq. 3 energy in joules of each request of one disk's chain, in
    chain order: the gap to its successor, or ``EPmax`` for the last."""
    for current, successor in zip(chain, chain[1:]):
        yield current.request_id, gap_energy(successor.time - current.time, profile)
    if chain:
        yield chain[-1].request_id, epmax


def chain_energies(
    assignment: Assignment, problem: SchedulingProblem
) -> Dict[DiskId, float]:
    """Per-disk objective energy (diagnostics / tests)."""
    profile = problem.profile
    epmax = max_request_energy(profile)
    return {
        disk_id: sum(
            energy for _, energy in _request_energies(chain, profile, epmax)
        )
        for disk_id, chain in assignment.chains().items()
    }
