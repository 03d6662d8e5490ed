"""Shared benchmark plumbing.

Each ``bench_figNN_*.py`` file reproduces one figure of the paper: it runs
the experiment once (results are memoised across benchmark files, so the
Cello campaign is simulated a single time for Figs. 6-9 and 12-13), prints
the figure's series as a table, asserts the paper's qualitative shape, and
reports wall-clock through pytest-benchmark.

Scale notes: every cell, offline MWIS included, runs at ``REPRO_SCALE``
(default 1.0: the paper's 180 disks and 70 000 requests). A simulated
cell takes seconds; a paper-scale MWIS cell takes 4-41 s and up to about
0.9 GB, once, after which the run cache keeps it.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def show(capsys):
    """Print a figure table through pytest's captured stdout."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)
            print()

    return _show
