"""Ablation: the library's paper-suggested extensions.

Thin wrapper over :func:`repro.experiments.ablations.run_extensions`; the
assertions live here.
"""

from repro.experiments.ablations import run_extensions

READ_PANEL = "ablation: extensions, read workload (cello, rf=3)"
WRITE_PANEL = "ablation: extensions, 70% writes (cello, rf=3)"


def test_ablation_extensions(benchmark, show):
    result = benchmark.pedantic(run_extensions, rounds=1, iterations=1)
    show(result.render())

    read_labels = list(result.panel(READ_PANEL).x_values)
    read_energy = dict(
        zip(read_labels, result.series(READ_PANEL, "energy vs always-on"))
    )
    plain = read_energy["Heuristic(a=0.2,b=100)"]
    predictive = read_energy["PredictiveHeuristic(a=0.2,b=100)"]
    covering = [v for k, v in read_energy.items() if k.startswith("CoveringSet")][0]
    # Prediction should not hurt energy materially on a skewed trace.
    assert predictive <= plain * 1.1
    # Concentrating on the covering subset also saves vs always-on.
    assert covering < 1.0

    write_labels = list(result.panel(WRITE_PANEL).x_values)
    write_energy = dict(
        zip(write_labels, result.series(WRITE_PANEL, "energy vs always-on"))
    )
    plain_writes = write_energy["Heuristic(a=0.2,b=100)"]
    offload_key = [k for k in write_labels if k != "Heuristic(a=0.2,b=100)"][0]
    # Write off-loading beats the write-oblivious Heuristic on a
    # write-heavy workload, and actually diverted writes.
    assert write_energy[offload_key] <= plain_writes + 0.01
    offloaded = dict(
        zip(write_labels, result.series(WRITE_PANEL, "writes off-loaded"))
    )
    assert offloaded[offload_key] > 0
