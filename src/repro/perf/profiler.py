"""Profiling: cProfile accumulation and the process-wide peak RSS.

:meth:`Profiler.profile_call` runs a callable under a single accumulating
``cProfile.Profile`` so several runs merge into one statistics table
(:meth:`Profiler.top_table`).

:func:`peak_rss_bytes` is the one process-wide peak-RSS reading every
bench and serve document records.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
from typing import Any, Callable, Optional, TypeVar

T = TypeVar("T")

#: Sort keys accepted by :meth:`Profiler.top_table` (pstats names).
TOP_TABLE_SORTS = ("cumulative", "tottime", "calls")


class Profiler:
    """Opt-in cost measurement: one merged cProfile over many calls."""

    def __init__(self) -> None:
        self._cprofile: Optional[cProfile.Profile] = None

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
