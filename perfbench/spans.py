"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public entry point of each layer (see
:data:`TARGETS`) in a function that records one span per call: name,
start, end and the span that was open when it started (its parent).
Spans live in flat arrays during the run and are written out once, at the
end. A layer's self time is its spans' durations minus the part covered
by their child spans.

Nothing here is installed in an untraced run, so its timings carry no
tracing cost.
"""

from __future__ import annotations

import importlib
import json
import random
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.disk.service import ServiceTimeModel
from repro.types import Request

#: Called after a traced call returns: ``observe(tracer, args, result)``.
Observer = Callable[["Tracer", Tuple[Any, ...], Any], None]

_ABSENT = object()


def _observe_choose_batch(tracer: "Tracer", args: Tuple[Any, ...], result: Any) -> None:
    # args = (scheduler, requests, view)
    tracer.count("core.wsc.batch_requests", len(args[1]))


def _observe_set_cover(tracer: "Tracer", args: Tuple[Any, ...], result: Any) -> None:
    # args = (membership, weights, tie_rank): rows are the candidate disks.
    tracer.count("core.wsc.cover_ratio_sum", len(result) / args[0].shape[0])


def _observe_build_graph(tracer: "Tracer", args: Tuple[Any, ...], result: Any) -> None:
    graph = result[0]
    tracer.count("core.mwis.graph_nodes", len(graph))
    tracer.count("core.mwis.graph_edges", graph.num_edges)


def _observe_solve_mwis(tracer: "Tracer", args: Tuple[Any, ...], result: Any) -> None:
    tracer.count("core.mwis.selected", len(result))


#: (span name, module, class name or None for a module function,
#: attribute, observer). A module function is patched in the module that
#: calls it, so the wrapper sits on the real call path. Methods are
#: patched on the class (``SimulatedDisk`` is slotted, so its instances
#: cannot carry a wrapper).
TARGETS: Tuple[Tuple[str, str, Optional[str], str, Optional[Observer]], ...] = (
    ("traces.generate", "repro.experiments.harness.runner", None,
     "generate_cello_like", None),
    ("traces.generate", "repro.experiments.harness.runner", None,
     "generate_financial_like", None),
    ("placement.bind", "repro.traces.workload", "Workload", "bind", None),
    ("sim.engine", "repro.sim.engine", "SimulationEngine", "run", None),
    ("disk.submit", "repro.disk.drive", "SimulatedDisk", "submit", None),
    ("core.heuristic.choose", "repro.core.heuristic", "HeuristicScheduler",
     "choose", None),
    ("core.wsc.choose_batch", "repro.core.wsc", "WSCBatchScheduler",
     "choose_batch", _observe_choose_batch),
    ("algorithms.set_cover", "repro.core.wsc", None,
     "greedy_weighted_set_cover_dense", _observe_set_cover),
    ("core.mwis.build_graph", "repro.core.mwis", "MWISOfflineScheduler",
     "build_graph", _observe_build_graph),
    ("algorithms.independent_set", "repro.core.mwis", None, "solve_mwis",
     _observe_solve_mwis),
    ("core.offline.evaluate", "repro.core.offline", "OfflineEvaluator",
     "evaluate", None),
)


class Tracer:
    """Flat-array span store plus named counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._index: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        """Drop recorded spans and counters; wrappers stay installed."""
        self.truncate(0)
        self._stack.clear()
        self.counters.clear()

    def span_count(self) -> int:
        return len(self.span_name)

    def truncate(self, count: int) -> None:
        """Drop every span recorded after the first ``count``."""
        for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del column[count:]

    def wrap(
        self, name: str, fn: Callable[..., Any], observe: Optional[Observer] = None
    ) -> Callable[..., Any]:
        """``fn``, recording one span named ``name`` per call."""
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        index = self._index[name]
        stack = self._stack
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        clock = time.perf_counter
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(names)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = started
                stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    def install(self) -> List[str]:
        """Wrap every target in :data:`TARGETS`; return those not found.

        A missing target would read 0 in its metrics, so callers must
        treat it as a failed check.
        """
        missing: List[str] = []
        for name, module_name, class_name, attr, observe in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}:{class_name or ''}.{attr}")
                continue
            self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, self.wrap(name, original, observe))
        return missing

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        for owner, attr, saved in reversed(self._patches):
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        starts = self.span_start
        ends = self.span_end
        covered = [0.0] * len(starts)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += ends[span] - starts[span]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for span, index in enumerate(self.span_name):
            calls[index] += 1
            own[index] += ends[span] - starts[span] - covered[span]
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """Write the recorded spans and counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start_s": list(self.span_start),
            "end_s": list(self.span_end),
            "counters": self.counters,
        }
        path.write_text(json.dumps(document), encoding="utf-8")


class TracedServiceModel(ServiceTimeModel):
    """Delegating service-time model whose draws are traced spans.

    Passed as ``SimulationConfig.service_model``. Every draw goes to the
    wrapped model with the caller's RNG, so the draws are unchanged.
    """

    def __init__(self, inner: ServiceTimeModel, tracer: Tracer) -> None:
        self._draw = tracer.wrap("disk.service.draw", inner.service_time)
        # Disks cache ``model.service_time`` once; the instance attribute
        # hands them the traced draw without a second call level.
        self.service_time = self._draw  # type: ignore[method-assign]

    def service_time(self, request: Request, rng: random.Random) -> float:
        return float(self._draw(request, rng))
