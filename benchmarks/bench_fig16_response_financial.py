"""Fig. 16 — mean response time vs replication factor (Financial1).

Paper: same ordering as Cello, but the absolute response times are
roughly 3x lower because Financial1's arrivals are far less bursty
(Appendix A.4 attributes Cello's ~1 s means entirely to burstiness).
"""

from repro.experiments import figures
from repro.experiments.common import SCHEDULER_LABELS


def test_fig16_mean_response_financial(benchmark, show):
    result = benchmark.pedantic(figures.fig16, rounds=1, iterations=1)
    show(result.render())
    series = result.series
    static = series[SCHEDULER_LABELS["static"]]
    heuristic = series[SCHEDULER_LABELS["heuristic"]]
    wsc = series[SCHEDULER_LABELS["wsc"]]

    # Energy-aware schedulers beat Static once replication gives choices.
    for index in (2, 3, 4):
        assert heuristic[index] < static[index]
        assert wsc[index] < static[index]


def test_fig16_financial_faster_than_cello(benchmark, show):
    """The cross-trace claim: steadier arrivals, lower response times."""
    cello, financial = benchmark.pedantic(
        lambda: (figures.fig8(), figures.fig16()), rounds=1, iterations=1
    )
    label = SCHEDULER_LABELS["static"]
    cello_mean = sum(cello.series[label]) / len(cello.series[label])
    financial_mean = sum(financial.series[label]) / len(financial.series[label])
    show(
        "fig16 cross-trace check: Static mean response "
        f"cello={cello_mean:.3f}s vs financial={financial_mean:.3f}s"
    )
    assert financial_mean < cello_mean
