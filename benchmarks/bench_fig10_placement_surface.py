"""Fig. 10 — energy vs (replication factor x data-locality z), Cello.

Paper shape: Random and Static only save energy when data locality is
skewed (z -> 1) and barely react to replication; the Heuristic still
saves heavily under uniform placement (z = 0) once replication is high
(paper: >40% saving at rf=5, z=0), and its locality sensitivity shrinks
as replication grows.
"""

from repro.experiments import figures


def test_fig10_energy_surface(benchmark, show):
    panels = benchmark.pedantic(figures.fig10, rounds=1, iterations=1)
    for panel in panels.values():
        show(panel.render())

    z_grid = panels["static"].x_values
    z0 = 0
    z1 = len(z_grid) - 1

    static_rf1 = panels["static"].series["rf=1"]
    random_rf5 = panels["random"].series["rf=5"]
    heuristic_rf5 = panels["heuristic"].series["rf=5"]
    heuristic_rf1 = panels["heuristic"].series["rf=1"]

    # Static/Random need skew: z=0 saves (almost) nothing vs z=1.
    assert static_rf1[z0] > 0.95
    assert static_rf1[z1] < static_rf1[z0]
    assert random_rf5[z0] > 0.95

    # Heuristic at rf=5 still saves heavily under uniform placement
    # (paper: over 40%).
    assert heuristic_rf5[z0] < 0.75

    # Replication shrinks the Heuristic's locality sensitivity.
    spread_rf1 = heuristic_rf1[z0] - heuristic_rf1[z1]
    spread_rf5 = heuristic_rf5[z0] - heuristic_rf5[z1]
    assert spread_rf5 <= spread_rf1 + 0.02
