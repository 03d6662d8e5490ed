"""Profiling hooks: per-phase counters and cProfile accumulation.

The design constraint is the acceptance criterion "profiling off adds
<2% overhead": instrumented call sites (e.g. the harness runner) call
:func:`hook_phase`, which returns one *shared* ``nullcontext`` instance
when no profiler is active — no object allocation, no clock read, just a
module-global ``is None`` test. All measurement cost is confined to runs
that explicitly :func:`activate` a :class:`Profiler`.

Two kinds of measurement:

* **Phases** — named coarse regions (``binding``, ``simulate``, one per
  :meth:`Profiler.phase` context). Each accumulates call count and wall
  time into a :class:`PhaseStats`.
* **cProfile** — :meth:`Profiler.profile_call` runs a callable under a
  single accumulating ``cProfile.Profile`` so several runs merge into
  one statistics table (:meth:`Profiler.top_table`).

:func:`peak_rss_bytes` is the one process-wide peak-RSS reading every
bench and serve document records.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import time
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
    """

    name: str
    calls: int = 0
    wall_s: float = 0.0


class _Phase:
    """Context manager measuring one entry of one phase."""

    __slots__ = ("_profiler", "_name", "_started_s")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._started_s = 0.0

    def __enter__(self) -> None:
        self._started_s = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        wall_s = time.perf_counter() - self._started_s
        stats = self._profiler._stats_for(self._name)
        stats.calls += 1
        stats.wall_s += wall_s


class Profiler:
    """Opt-in cost measurement: phase counters + merged cProfile.

    Measuring is opt-in by :func:`activate`-ing one; with none active,
    :func:`hook_phase` costs nothing.
    """

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseStats] = {}
        self._cprofile: Optional[cProfile.Profile] = None

    # -- phases ---------------------------------------------------------

    def phase(self, name: str) -> ContextManager[None]:
        """Context manager accumulating into the phase ``name``."""
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
        lines = [f"{'phase':<20s} {'calls':>8s} {'wall (s)':>10s}"]
        for stats in rows:
            lines.append(
                f"{stats.name:<20s} {stats.calls:>8d} {stats.wall_s:>10.4f}"
            )
        return "\n".join(lines)

    # -- cProfile -------------------------------------------------------

    def profile_call(self, fn: Callable[..., T], *args: Any, **kwargs: Any) -> T:
        """Run ``fn(*args, **kwargs)`` under the accumulating cProfile.

        Successive calls merge into one statistics table.
        """
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
