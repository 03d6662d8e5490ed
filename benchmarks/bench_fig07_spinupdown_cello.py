"""Fig. 7 — disk spin-up/down operations vs replication factor (Cello).

Paper shape: normalised to Static; Random falls below 1 as replication
grows (scattered requests keep disks up); the energy-aware schedulers also
fall (requests concentrate on already-spinning disks); MWIS is lowest.
"""

import pytest

from repro.experiments import figures
from repro.experiments.common import SCHEDULER_LABELS


def test_fig07_spin_operations_cello(benchmark, show):
    result = benchmark.pedantic(figures.fig7, rounds=1, iterations=1)
    show(result.render())
    series = result.series
    static = series[SCHEDULER_LABELS["static"]]
    random_ = series[SCHEDULER_LABELS["random"]]
    heuristic = series[SCHEDULER_LABELS["heuristic"]]
    wsc = series[SCHEDULER_LABELS["wsc"]]
    mwis = series[SCHEDULER_LABELS["mwis"]]

    # Static is the normalisation baseline.
    assert all(v == pytest.approx(1.0) for v in static)

    # Everything coincides at replication 1 (no scheduling choice).
    assert random_[0] == pytest.approx(1.0, abs=0.02)
    assert heuristic[0] == pytest.approx(1.0, abs=0.02)

    # Energy-aware schedulers spin less than Static at high replication.
    assert heuristic[-1] < 0.85
    assert wsc[-1] < 0.85

    # Random's spin count also falls with replication (paper's point:
    # disks stay up, for the wrong reason).
    assert random_[-1] < random_[0]

    # MWIS (offline: never spins down into a waiting request) spins far
    # less than Static everywhere — already at rf=1, where no simulated
    # scheduler has any choice.
    assert mwis[0] < 0.9
    assert all(v < 0.8 for v in mwis[1:])
