"""Shared metrics primitives: counters, gauges, histograms, registry.

The *live-service* metrics primitives — :class:`Counter`,
:class:`Gauge`, :class:`Histogram` and :class:`MetricsRegistry` — are
shared by the discrete-event engine (via :func:`observe_engine`) and the
serving layer (:mod:`repro.serve`), so there is exactly one
implementation of "count / point-in-time value / latency distribution"
in the repo. The *trace-replay* result types (``MetricsCollector``,
``SimulationReport``) live in :mod:`repro.report`; only its
:func:`~repro.report.percentile` is re-exported here.

Everything is deterministic: a registry snapshot is a plain sorted dict
of exact values (no wall-clock reads, no rounding), so two identical
runs under the virtual clock serialise byte-identically.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError
from repro.report import percentile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports nothing from here)
    from repro.sim.engine import SimulationEngine

Number = Union[int, float]

#: Histogram quantiles reported by :meth:`Histogram.snapshot`, as
#: ``(label, fraction)`` pairs — the p50/p95/p99 the serving layer plots.
QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p95", 0.95),
    ("p99", 0.99),
)


class Counter:
    """A monotonically non-decreasing event count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) events."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (queue depth, joules so far, ...)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value: Number = 0

    def set(self, value: Number) -> None:
        """Overwrite the gauge with the latest observed value."""
        self._value = value

    @property
    def value(self) -> Number:
        return self._value


class Histogram:
    """An exact value distribution (response times, batch sizes).

    Samples are kept verbatim — the evaluation sizes (tens of thousands
    of requests) make exact quantiles affordable, and exactness is what
    keeps snapshots byte-reproducible across identical runs.
    """

    __slots__ = ("name", "_samples", "_total", "_sorted")

    def __init__(self, name: str):
        self.name = name
        self._samples: List[float] = []
        self._total = 0.0
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one sample."""
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)
        self._total += value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples (the router's merge-time folds)."""
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples (same unit as the samples)."""
        return self._total

    @property
    def mean(self) -> float:
        """Mean sample (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return self._total / len(self._samples)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return percentile(self._ascending(), fraction)

    def _ascending(self) -> List[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    @property
    def samples(self) -> Tuple[float, ...]:
        """All recorded samples, ascending — the full-fidelity export.

        Ascending (not insertion) order so the export is a deterministic
        function of the recorded multiset; cross-shard merges replay
        these in a fixed shard order, which keeps merged totals and
        quantiles byte-reproducible.
        """
        return tuple(self._ascending())

    def snapshot(self) -> Dict[str, Number]:
        """Count, total, mean, min/max and the standard quantiles."""
        out: Dict[str, Number] = {
            "count": self.count,
            "total": self._total,
            "mean": self.mean,
        }
        if self._samples:
            ascending = self._ascending()
            out["min"] = ascending[0]
            out["max"] = ascending[-1]
            for label, fraction in QUANTILES:
                out[label] = percentile(ascending, fraction)
        else:
            out["min"] = 0.0
            out["max"] = 0.0
            for label, _fraction in QUANTILES:
                out[label] = 0.0
        return out


class MetricsRegistry:
    """Named counters/gauges/histograms with a deterministic snapshot.

    Names are namespaced by convention (``requests.completed``,
    ``engine.events_processed``); registering one name under two
    different metric kinds is an error.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter called ``name``."""
        existing = self._counters.get(name)
        if existing is None:
            self._check_unique(name, "counter")
            existing = self._counters[name] = Counter(name)
        return existing

    def gauge(self, name: str) -> Gauge:
        """Get-or-create the gauge called ``name``."""
        existing = self._gauges.get(name)
        if existing is None:
            self._check_unique(name, "gauge")
            existing = self._gauges[name] = Gauge(name)
        return existing

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the histogram called ``name``."""
        existing = self._histograms.get(name)
        if existing is None:
            self._check_unique(name, "histogram")
            existing = self._histograms[name] = Histogram(name)
        return existing

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All metrics as a JSON-ready dict, names sorted.

        The shape is stable: ``{"counters": {...}, "gauges": {...},
        "histograms": {name: {count, total, mean, min, max, p50, ...}}}``.
        """
        return self._export(lambda histogram: dict(histogram.snapshot()))

    def dump(self) -> Dict[str, Dict[str, object]]:
        """Full-fidelity export: like :meth:`snapshot`, but histograms
        carry their raw sample lists instead of condensed quantiles.

        This is the cross-process wire format of the sharded serving
        layer: a shard worker dumps its registry, the router merges the
        dumps with :func:`merge_dumps`, and the merged registry
        re-derives exact quantiles from the union of samples — something
        condensed snapshots cannot do.
        """
        return self._export(lambda histogram: list(histogram.samples))

    def _export(
        self, histogram_view: Callable[[Histogram], object]
    ) -> Dict[str, Dict[str, object]]:
        """Counters and gauges by value, histograms through
        ``histogram_view``; every block sorted by name."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: histogram_view(self._histograms[name])
                for name in sorted(self._histograms)
            },
        }


#: Gauges merged by ``max`` instead of sum: point-in-time clocks, where
#: "the deployment's time" is the furthest shard, not the total.
GAUGE_MERGE_MAX: Tuple[str, ...] = ("time.now_s",)


def merge_dumps(
    dumps: Sequence[Mapping[str, Mapping[str, object]]],
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Fold full-fidelity :meth:`MetricsRegistry.dump` exports into one.

    The cross-shard aggregation rule set:

    * **counters** sum — events happened on some shard, the deployment
      saw all of them;
    * **gauges** sum, except :data:`GAUGE_MERGE_MAX` names which take
      the max (clock-like values);
    * **histograms** re-observe every raw sample, dump order then
      ascending within a dump — so merged totals and quantiles are
      exact and byte-reproducible for a fixed dump order (pass dumps in
      shard-id order).

    Args:
        dumps: Registry dumps, already in the desired deterministic
            order.
        registry: Merge target (created fresh when ``None``).

    Returns:
        The merged registry; ``snapshot()`` on it condenses the merged
        histograms back to quantiles.
    """
    merged = registry if registry is not None else MetricsRegistry()
    max_seen: Dict[str, Number] = {}
    for dump in dumps:
        counters = dump.get("counters", {})
        for name in sorted(counters):
            value = counters[name]
            if not isinstance(value, int):
                raise ConfigurationError(
                    f"counter {name!r} dump value must be an int, "
                    f"got {type(value).__name__}"
                )
            merged.counter(name).inc(value)
        gauges = dump.get("gauges", {})
        for name in sorted(gauges):
            gauge_value = gauges[name]
            if not isinstance(gauge_value, (int, float)):
                raise ConfigurationError(
                    f"gauge {name!r} dump value must be a number, "
                    f"got {type(gauge_value).__name__}"
                )
            gauge = merged.gauge(name)
            if name in GAUGE_MERGE_MAX:
                best = max_seen.get(name)
                if best is None or gauge_value > best:
                    max_seen[name] = gauge_value
                    gauge.set(gauge_value)
            else:
                gauge.set(gauge.value + gauge_value)
        histograms = dump.get("histograms", {})
        for name in sorted(histograms):
            samples = histograms[name]
            if not isinstance(samples, (list, tuple)):
                raise ConfigurationError(
                    f"histogram {name!r} dump value must be a sample "
                    f"list, got {type(samples).__name__}"
                )
            histogram = merged.histogram(name)
            for sample in samples:
                histogram.observe(float(sample))
    return merged


def observe_engine(registry: MetricsRegistry, engine: "SimulationEngine") -> None:
    """Mirror the engine's own counters into ``registry`` gauges.

    Gauges (not counters) because the engine already owns the running
    totals; the registry records their point-in-time values at snapshot.
    """
    registry.gauge("engine.events_processed").set(engine.events_processed)
    registry.gauge("engine.pending_events").set(engine.pending_events)
    registry.gauge("engine.queue_depth").set(engine.queue_depth)


__all__ = [
    "Counter",
    "GAUGE_MERGE_MAX",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Number",
    "QUANTILES",
    "merge_dumps",
    "observe_engine",
    "percentile",
]
