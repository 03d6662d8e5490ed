"""Each figure fetches exactly the cell list its bench declares.

A bench's ``specs`` is the cell list of the module that draws the
figure. These tests pin the contract that keeps that list the single
statement of a figure's runs: the figure fetches the whole list in one
sweep, reads every spec on it and nothing else, so no stray
``run_cell`` reaches past it.
"""

from typing import Any, List, Sequence

import pytest

from repro.experiments import common, figures
from repro.experiments.harness import runner as harness_runner
from repro.experiments.harness.bench import BENCHES, run_bench
from repro.experiments.harness.cache import RunCache
from repro.experiments.harness.runner import SweepOutcome, SweepRunner
from repro.experiments.harness.spec import RunSpec

SCALE = 0.05
MWIS_SCALE = 0.03
SEED = 1

CELL_BENCHES = sorted(
    bench_id
    for bench_id, bench in BENCHES.items()
    if bench.specs and bench.specs(SCALE, MWIS_SCALE, SEED)
)


class _ReadLog(dict):
    """The memo, recording every spec read out of it."""

    def __init__(self) -> None:
        super().__init__()
        self.reads: List[RunSpec] = []

    def __getitem__(self, spec: RunSpec) -> Any:
        self.reads.append(spec)
        return super().__getitem__(spec)


@pytest.fixture
def campaign(monkeypatch):
    """Restore the campaign knobs ``run_bench`` reconfigures."""
    for name in ("SCALE", "MWIS_SCALE", "BASE_SEED"):
        monkeypatch.setattr(common, name, getattr(common, name))


def test_every_figure_family_declares_cells():
    assert "fig5" not in CELL_BENCHES
    for bench_id in ("fig6", "fig10", "fig11", "fig12", "headline", "fault_sweep"):
        assert bench_id in CELL_BENCHES


@pytest.mark.parametrize("bench_id", CELL_BENCHES)
def test_bench_reads_exactly_its_declared_cells(
    bench_id, campaign, monkeypatch, tmp_path
):
    declared = set(BENCHES[bench_id].specs(SCALE, MWIS_SCALE, SEED))
    memo = _ReadLog()
    monkeypatch.setattr(common, "_results", memo)
    sweeps: List[Sequence[RunSpec]] = []
    run_sweep = SweepRunner.run

    def logged_run(self: SweepRunner, specs: Sequence[RunSpec]) -> SweepOutcome:
        sweeps.append(list(specs))
        return run_sweep(self, specs)

    monkeypatch.setattr(SweepRunner, "run", logged_run)
    document, _path = run_bench(
        bench_id,
        scale=SCALE,
        mwis_scale=MWIS_SCALE,
        seed=SEED,
        cache=RunCache(enabled=False),
        output_dir=tmp_path,
    )
    # One sweep, the figure's own fetch of its declared list: nothing is
    # computed after it.
    assert len(sweeps) == 1
    assert set(sweeps[0]) == declared
    # Reading a cell's normalised energy reads its baseline too.
    assert set(common.with_baselines(memo.reads)) == declared
    labels = sorted(point["label"] for point in document["points"])
    assert labels == sorted(spec.label() for spec in declared)


def test_fig12_draws_from_a_warm_cache_alone(campaign, monkeypatch, tmp_path):
    """fig12 reads its cells and generates no workload of its own."""
    monkeypatch.setattr(common, "SCALE", SCALE)
    monkeypatch.setattr(common, "MWIS_SCALE", MWIS_SCALE)
    monkeypatch.setattr(common, "BASE_SEED", SEED)
    common.set_persistent_cache(RunCache(root=tmp_path))
    expected = figures.fig12().series
    common.clear_caches()

    def no_workload(*args: object) -> None:
        raise AssertionError("fig12 generated a workload despite a warm cache")

    monkeypatch.setattr(harness_runner, "get_workload", no_workload)
    assert figures.fig12().series == expected
