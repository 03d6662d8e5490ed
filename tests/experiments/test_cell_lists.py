"""Each figure fetches exactly the cell list its bench declares.

A bench's ``specs`` is the cell list of the module that draws the
figure. These tests pin the contract that keeps that list the single
statement of a figure's runs: the figure fetches the whole list in one
sweep, reads every spec on it and nothing else, so no stray
``run_cell`` reaches past it.
"""

from typing import Any, List, Sequence, Tuple

import pytest

from repro.experiments import common, figures
from repro.experiments.ablations import ABLATIONS
from repro.experiments.harness import runner as harness_runner
from repro.experiments.harness.bench import BENCHES, run_bench
from repro.experiments.harness.cache import RunCache
from repro.experiments.harness.runner import SweepOutcome, SweepRunner
from repro.experiments.harness.spec import RunSpec, baseline_of
from repro.traces.workload import Workload

SCALE = 0.05
SEED = 1

CELL_BENCHES = sorted(
    bench_id
    for bench_id, bench in BENCHES.items()
    if bench.specs and bench.specs(SCALE, SEED)
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
    for name in ("SCALE", "BASE_SEED"):
        monkeypatch.setattr(common, name, getattr(common, name))


def test_every_figure_family_declares_cells():
    assert "fig5" not in CELL_BENCHES
    for bench_id in ("fig6", "fig10", "fig11", "fig12", "headline", "fault_sweep"):
        assert bench_id in CELL_BENCHES


@pytest.mark.parametrize("bench_id", CELL_BENCHES)
def test_every_cell_runs_at_the_campaign_scale(bench_id):
    """Offline MWIS included, every cell of a bench runs on the online
    cells' own binding and normalises against their always-on run."""
    specs = BENCHES[bench_id].specs(*common.knobs())
    assert {spec.scale for spec in specs} == {common.SCALE}
    wsc = {
        (spec.trace, spec.replication_factor): spec
        for spec in specs
        if spec.scheduler_key == "wsc"
    }
    for spec in specs:
        if spec.scheduler_key == "mwis":
            twin = wsc[spec.trace, spec.replication_factor]
            assert baseline_of(spec) == baseline_of(twin)


ABLATION_SCALE = 0.02
ABLATION_SEED = 2


@pytest.fixture
def bindings(monkeypatch):
    """Every ``Workload.bind`` call's (num_disks, placement seed)."""
    log: List[Tuple[int, int]] = []
    bind = Workload.bind

    def logged_bind(
        self: Workload, scheme: Any, num_disks: int, seed: int = 0
    ) -> Any:
        log.append((num_disks, seed))
        return bind(self, scheme, num_disks=num_disks, seed=seed)

    monkeypatch.setattr(Workload, "bind", logged_bind)
    return log


@pytest.mark.parametrize("bench_id", sorted(ABLATIONS))
def test_every_ablation_runs_at_the_campaign_scale(
    bench_id, campaign, bindings, tmp_path
):
    """An ablation binds on the configured campaign's disks and placement
    seed, so its document's scale and seed are the ones its result ran
    at. (``run_bench``'s own ``scale``/``seed`` configure the same.)"""
    common.configure(ABLATION_SCALE, ABLATION_SEED)
    document, _path = run_bench(
        bench_id, cache=RunCache(enabled=False), output_dir=tmp_path
    )
    assert bindings
    assert set(bindings) == {
        (common.num_disks_for(ABLATION_SCALE), ABLATION_SEED + 7)
    }
    assert (document["scale"], document["seed"]) == (ABLATION_SCALE, ABLATION_SEED)


@pytest.mark.parametrize("bench_id", CELL_BENCHES)
def test_bench_reads_exactly_its_declared_cells(
    bench_id, campaign, monkeypatch, tmp_path
):
    declared = set(BENCHES[bench_id].specs(SCALE, SEED))
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
    monkeypatch.setattr(common, "BASE_SEED", SEED)
    common.set_persistent_cache(RunCache(root=tmp_path))
    expected = figures.fig12().series
    common.clear_caches()

    def no_workload(*args: object) -> None:
        raise AssertionError("fig12 generated a workload despite a warm cache")

    monkeypatch.setattr(harness_runner, "get_workload", no_workload)
    assert figures.fig12().series == expected
