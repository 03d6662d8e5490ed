"""Profiling hooks: per-phase counters and cProfile accumulation.

The design constraint is the acceptance criterion "profiling off adds
<2% overhead": instrumented call sites (e.g. the harness runner) call
:func:`hook_phase`, which returns one *shared* ``nullcontext`` instance
when no profiler is active — no object allocation, no clock read, just a
module-global ``is None`` test. All measurement cost is confined to runs
that explicitly :func:`activate` a :class:`Profiler`.

Two kinds of measurement:

* **Phases** — named coarse regions (``binding``, ``simulate``, one per
  :meth:`Profiler.phase` context). Each accumulates call count, wall
  time and (optionally, via tracemalloc) net allocated bytes into a
  :class:`PhaseStats`.
* **cProfile** — :meth:`Profiler.profile_call` runs a callable under a
  single accumulating ``cProfile.Profile`` so several runs merge into
  one statistics table (:meth:`Profiler.top_table`).

:func:`peak_rss_bytes` is the one process-wide peak-RSS reading every
bench, serve and microbench document records.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
import tracemalloc
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, Optional, Tuple, TypeVar

T = TypeVar("T")

#: The one context manager every disabled phase shares (allocation-free).
_NULL_CONTEXT: AbstractContextManager[None] = nullcontext()

#: Sort keys accepted by :meth:`Profiler.top_table` (pstats names).
TOP_TABLE_SORTS = ("cumulative", "tottime", "calls")


@dataclass
class PhaseStats:
    """Accumulated cost of one named phase.

    Attributes:
        name: Phase label (e.g. ``"simulate"``).
        calls: Times the phase context was entered.
        wall_s: Total wall-clock seconds spent inside the phase.
        alloc_bytes: Net bytes allocated inside the phase (0 unless the
            owning profiler tracks allocations via tracemalloc).
    """

    name: str
    calls: int = 0
    wall_s: float = 0.0
    alloc_bytes: int = 0


class _Phase:
    """Context manager measuring one entry of one phase."""

    __slots__ = ("_profiler", "_name", "_started_s", "_alloc_before")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._started_s = 0.0
        self._alloc_before = 0

    def __enter__(self) -> None:
        if self._profiler.track_allocations:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            self._alloc_before = tracemalloc.get_traced_memory()[0]
        self._started_s = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        wall_s = time.perf_counter() - self._started_s
        stats = self._profiler._stats_for(self._name)
        stats.calls += 1
        stats.wall_s += wall_s
        if self._profiler.track_allocations:
            grown = tracemalloc.get_traced_memory()[0] - self._alloc_before
            if grown > 0:
                stats.alloc_bytes += grown


class Profiler:
    """Opt-in cost measurement: phase counters + merged cProfile.

    Attributes:
        enabled: When False every method is a no-op passthrough —
            :meth:`phase` returns the shared null context and
            :meth:`profile_call` calls the function directly. A disabled
            profiler behaves exactly like no profiler at all.
        track_allocations: Measure net allocated bytes per phase via
            tracemalloc. Markedly slows execution; off by default.
    """

    def __init__(
        self, *, enabled: bool = True, track_allocations: bool = False
    ) -> None:
        self.enabled = enabled
        self.track_allocations = track_allocations
        self._phases: Dict[str, PhaseStats] = {}
        self._cprofile: Optional[cProfile.Profile] = None

    # -- phases ---------------------------------------------------------

    def phase(self, name: str) -> ContextManager[None]:
        """Context manager accumulating into the phase ``name``.

        Returns the shared allocation-free null context when disabled.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _Phase(self, name)

    def _stats_for(self, name: str) -> PhaseStats:
        stats = self._phases.get(name)
        if stats is None:
            stats = PhaseStats(name)
            self._phases[name] = stats
        return stats

    @property
    def phases(self) -> Tuple[PhaseStats, ...]:
        """Recorded phases, sorted by descending wall time."""
        return tuple(
            sorted(self._phases.values(), key=lambda s: (-s.wall_s, s.name))
        )

    def phase_table(self) -> str:
        """Render the phase counters as an aligned text table."""
        rows = self.phases
        if not rows:
            return "no phases recorded"
        lines = [f"{'phase':<20s} {'calls':>8s} {'wall (s)':>10s} {'alloc':>12s}"]
        for stats in rows:
            alloc = f"{stats.alloc_bytes}B" if self.track_allocations else "-"
            lines.append(
                f"{stats.name:<20s} {stats.calls:>8d} "
                f"{stats.wall_s:>10.4f} {alloc:>12s}"
            )
        return "\n".join(lines)

    # -- cProfile -------------------------------------------------------

    def profile_call(self, fn: Callable[..., T], *args: Any, **kwargs: Any) -> T:
        """Run ``fn(*args, **kwargs)`` under the accumulating cProfile.

        Successive calls merge into one statistics table. When the
        profiler is disabled the function runs undisturbed.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        if self._cprofile is None:
            self._cprofile = cProfile.Profile()
        self._cprofile.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self._cprofile.disable()

    def top_table(self, limit: int = 25, sort: str = "cumulative") -> str:
        """The top-``limit`` functions by ``sort`` as a pstats table."""
        if sort not in TOP_TABLE_SORTS:
            raise ValueError(
                f"unknown sort {sort!r}; choose one of {TOP_TABLE_SORTS}"
            )
        if self._cprofile is None:
            return "no profiled calls recorded"
        stream = io.StringIO()
        stats = pstats.Stats(self._cprofile, stream=stream)
        stats.sort_stats(sort).print_stats(limit)
        return stream.getvalue().rstrip()


# -- module-level hook ---------------------------------------------------

_ACTIVE: Optional[Profiler] = None


def activate(profiler: Profiler) -> Optional[Profiler]:
    """Install ``profiler`` as the process-wide hook target.

    Returns the previously active profiler (or None) so callers can
    restore it — see :func:`deactivate`.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = profiler
    return previous


def deactivate(previous: Optional[Profiler] = None) -> None:
    """Remove the active profiler (or restore ``previous``)."""
    global _ACTIVE
    _ACTIVE = previous


def active_profiler() -> Optional[Profiler]:
    """The currently installed profiler, if any."""
    return _ACTIVE


def hook_phase(name: str) -> ContextManager[None]:
    """Phase context for instrumented library code.

    The zero-cost-off path: with no active profiler this is a dict-free,
    allocation-free return of one shared ``nullcontext`` instance.
    """
    profiler = _ACTIVE
    if profiler is None:
        return _NULL_CONTEXT
    return profiler.phase(name)


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process, or ``None`` off-POSIX."""
    try:
        import resource
    except ImportError:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(rss)
    return int(rss) * 1024  # Linux reports kilobytes
