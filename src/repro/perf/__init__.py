"""Performance observability for the simulation core.

Four parts, all opt-in so the hot path pays nothing by default:

* :mod:`repro.perf.profiler` — a :class:`~repro.perf.profiler.Profiler`
  that merges the cProfile of many calls into one table, plus the
  process-wide peak-RSS reading.
* :mod:`repro.perf.benchprof` — runs any registered bench under cProfile
  and prints the top-N cumulative table (``repro-storage profile fig6``).
* :mod:`repro.perf.gate` — the paired same-host perf gate over the repo
  benchmark (``python -m repro.perf --base <checkout>``).
* :mod:`repro.perf.microbench` — the ``tape_plan_*`` microbenches of
  the one layer no benchmark workload runs, the tape sequencer.
"""

from __future__ import annotations

from repro.perf.profiler import Profiler

__all__ = ["Profiler"]
