"""State-period analysis from per-disk transition logs.

The paper's motivation lists *problem (b)*: under typical workloads disks
"do not experience long enough periods of inactivity" to cross the
breakeven threshold. Energy-aware scheduling re-shapes the workload so
that fewer disks see traffic and the rest accumulate *long* standby
periods. These helpers quantify exactly that from the transition logs
recorded with ``SimulationConfig(record_transitions=True)``:

* :func:`state_periods` — durations of every maximal interval a disk
  spent in one state;
* :func:`period_summary` — count / total / mean / max of a duration list;
* :func:`standby_periods_of_report` — all standby periods across a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.power.states import DiskPowerState
from repro.report import SimulationReport

Transition = Tuple[float, DiskPowerState]


def state_periods(
    transitions: Sequence[Transition],
    state: DiskPowerState,
    end_time: float,
) -> List[float]:
    """Durations (seconds) of maximal ``state`` intervals in a transition log.

    The log is ``(time, new_state)`` pairs, first entry = initial state;
    the final interval is closed at ``end_time`` (simulated seconds).
    """
    if not transitions:
        return []
    periods: List[float] = []
    previous_time, previous_state = transitions[0]
    for time, new_state in transitions[1:]:
        if time < previous_time:
            raise ConfigurationError("transition log not sorted")
        if previous_state is state:
            periods.append(time - previous_time)
        previous_time, previous_state = time, new_state
    if previous_state is state and end_time > previous_time:
        periods.append(end_time - previous_time)
    return periods


@dataclass(frozen=True)
class PeriodSummary:
    """Aggregate view of one duration population."""

    count: int
    total: float
    mean: float
    longest: float

    @staticmethod
    def of(durations: Sequence[float]) -> "PeriodSummary":
        """Summarise a population of period durations (seconds)."""
        if not durations:
            return PeriodSummary(count=0, total=0.0, mean=0.0, longest=0.0)
        total = sum(durations)
        return PeriodSummary(
            count=len(durations),
            total=total,
            mean=total / len(durations),
            longest=max(durations),
        )


def period_summary(durations: Sequence[float]) -> PeriodSummary:
    """Shorthand for :meth:`PeriodSummary.of` (durations in seconds)."""
    return PeriodSummary.of(durations)


def standby_periods_of_report(report: SimulationReport) -> List[float]:
    """Every standby period across all disks of a run.

    Requires the run to have been made with ``record_transitions=True``;
    disks without logs are skipped (the offline evaluator's synthetic
    ledgers, for instance).
    """
    periods: List[float] = []
    for stats in report.disk_stats.values():
        if stats.transitions is None:
            continue
        periods.extend(
            state_periods(
                stats.transitions, DiskPowerState.STANDBY, report.duration
            )
        )
    return periods
