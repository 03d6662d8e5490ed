"""Performance observability for the simulation core.

Four parts, all opt-in so the hot path pays nothing by default:

* :mod:`repro.perf.profiler` — a :class:`~repro.perf.profiler.Profiler`
  combining cProfile accumulation with cheap per-phase wall-clock
  counters. When no profiler is active, the instrumentation hook
  returns one shared ``nullcontext`` — a single ``is None`` test per
  phase, no allocation.
* :mod:`repro.perf.benchprof` — runs any registered bench under cProfile
  and prints the top-N cumulative table (``repro-storage profile fig6``).
* :mod:`repro.perf.gate` — the paired same-host perf gate over the repo
  benchmark (``python -m repro.perf --base <checkout>``).
* :mod:`repro.perf.microbench` — the ``tape_plan_*`` microbenches of
  the one layer no benchmark workload runs, the tape sequencer.
"""

from __future__ import annotations

from repro.perf.profiler import (
    PhaseStats,
    Profiler,
    activate,
    deactivate,
    hook_phase,
)

__all__ = [
    "PhaseStats",
    "Profiler",
    "activate",
    "deactivate",
    "hook_phase",
]
