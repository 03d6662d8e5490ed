"""Profile a registered bench: ``repro-storage profile <bench-id>``.

Runs every spec of a bench's cell list (defined next to the figure that
reads it and registered in :data:`~repro.experiments.harness.bench.BENCHES`)
under one accumulating cProfile (cache bypassed — profiling a cache hit
would measure JSON decoding) and renders the merged top-N table.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.perf.profiler import Profiler


def profile_bench(
    bench_id: str,
    *,
    scale: float = 0.1,
    seed: int = 1,
    top: int = 25,
    sort: str = "cumulative",
) -> str:
    """cProfile one bench's specs and return the report text.

    Raises :class:`~repro.errors.ConfigurationError` on an unknown bench
    id (callers present the known ids).
    """
    # Imported lazily: the harness sits above the figure modules in the
    # import graph and this module is reachable from the CLI's cold path.
    from repro.experiments.harness.bench import BENCHES
    from repro.experiments.harness.runner import clear_memos, execute_spec

    try:
        bench = BENCHES[bench_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown bench {bench_id!r}; known: {sorted(BENCHES)}"
        )
    specs = bench.specs(scale, seed) if bench.specs else []
    if not specs:
        raise ConfigurationError(
            f"bench {bench_id!r} has no runnable specs to profile "
            "(figure-level recomputation only)"
        )
    profiler = Profiler()
    try:
        for spec in specs:
            profiler.profile_call(execute_spec, spec)
    finally:
        clear_memos()
    lines: List[str] = [
        f"profiled {len(specs)} spec(s) of bench {bench_id!r} "
        f"at scale {scale:g}, seed {seed}",
        "",
        profiler.top_table(limit=top, sort=sort),
    ]
    return "\n".join(lines)
