"""Fig. 6 — energy consumption vs replication factor (Cello).

Paper shape: all schedulers coincide at replication 1 (~0.88 of
always-on); Static stays flat; Random climbs toward 1.0; the energy-aware
schedulers fall monotonically (paper WSC: 0.88, 0.73, 0.63, 0.57, 0.52);
MWIS <= WSC <= Heuristic at a common scale.
"""

import pytest

from repro.experiments import common, figures
from repro.experiments.common import SCHEDULER_LABELS


def test_fig06_energy_vs_replication_cello(benchmark, show):
    result = benchmark.pedantic(figures.fig6, rounds=1, iterations=1)
    show(result.render())
    series = result.series
    static = series[SCHEDULER_LABELS["static"]]
    random_ = series[SCHEDULER_LABELS["random"]]
    heuristic = series[SCHEDULER_LABELS["heuristic"]]
    wsc = series[SCHEDULER_LABELS["wsc"]]

    # Replication 1: no choice, every simulated scheduler identical.
    assert static[0] == pytest.approx(random_[0], rel=0.02)
    assert static[0] == pytest.approx(heuristic[0], rel=0.02)
    # 2CPM alone already saves against always-on at replication 1.
    assert static[0] < 0.97

    # Static is flat in replication.
    assert max(static) - min(static) < 0.05

    # Random approaches (or exceeds, via transition overhead) always-on.
    assert random_[-1] > 0.9

    # Energy-aware schedulers decline monotonically (small tolerance for
    # seed noise between adjacent points).
    for values in (heuristic, wsc):
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 0.02
        assert values[-1] < values[0] - 0.15

    # Headline: replication 5 cuts energy vs Static by a large factor.
    assert wsc[-1] < static[-1] * 0.8


def test_fig06_offline_ordering_at_common_scale(benchmark, show):
    """MWIS <= WSC <= Heuristic on the campaign's cells (one scale)."""

    def collect():
        return [
            (rf, *(
                common.run_cell("cello", rf, key).normalized_energy
                for key in ("mwis", "wsc", "heuristic")
            ))
            for rf in (3, 5)
        ]

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    for _rf, mwis, wsc, heuristic in rows:
        assert mwis <= wsc + 0.02
        assert wsc <= heuristic + 0.03
    show(
        f"fig6 (ordering check at scale {common.SCALE}):\n"
        + "\n".join(
            f"  rf={rf}: MWIS={m:.3f} <= WSC={w:.3f} <= Heuristic={h:.3f}"
            for rf, m, w, h in rows
        )
    )
