"""Cluster-wide metrics registry: named counters, gauges and histograms.

The registry is the aggregation point of the telemetry layer
(:mod:`repro.obs`).  Instrumented components create named instruments
lazily (``registry.counter("cluster.duplicates_suppressed")``) and the
registry renders everything into one nested :meth:`MetricsRegistry.snapshot`
dictionary.

Existing per-component stats objects are folded in through the common
snapshot protocol: anything exposing ``as_dict() -> dict`` —
:class:`~repro.core.engine.EngineStats`,
:class:`~repro.chaos.controller.ChaosStats`,
:class:`~repro.sync.refresh.RefreshStats`, the
:class:`~repro.simulation.event_loop.EventLoop` — can be attached as a
*source* (:meth:`MetricsRegistry.attach`) and is re-read at snapshot time,
so one ``snapshot()`` call replaces the bespoke per-experiment merging of
those dataclasses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Union, runtime_checkable


@runtime_checkable
class StatsSnapshot(Protocol):
    """The common snapshot protocol: a flat-dictionary view of counters."""

    def as_dict(self) -> Dict[str, object]: ...


#: A snapshot source: a stats object, or a zero-arg callable returning either
#: a plain dictionary or a stats object (re-evaluated at snapshot time).
SnapshotSource = Union[StatsSnapshot, Callable[[], object]]


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A named instantaneous value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """A named distribution of observations with a bounded sample buffer.

    Exact ``count`` / ``total`` / ``min`` / ``max`` are maintained for every
    observation; the raw samples backing the percentile summary are capped at
    ``capacity`` (further observations update the exact aggregates and bump
    ``dropped_samples``), so a histogram on a hot path cannot grow without
    bound.
    """

    __slots__ = (
        "name",
        "capacity",
        "count",
        "total",
        "minimum",
        "maximum",
        "dropped_samples",
        "_samples",
    )

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"histogram capacity must be positive, got {capacity!r}")
        self.name = name
        self.capacity = int(capacity)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.dropped_samples = 0
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
        else:
            self.dropped_samples += 1

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the retained samples (0 when empty)."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[rank]

    def summary(self) -> Dict[str, object]:
        """Flat summary: exact aggregates plus sample-based percentiles."""
        if self.count == 0:
            return {
                "count": 0,
                "total": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "dropped_samples": 0,
            }
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "dropped_samples": self.dropped_samples,
        }


class MetricsRegistry:
    """Named counters/gauges/histograms plus attached snapshot sources."""

    def __init__(self, histogram_capacity: int = 4096) -> None:
        self._histogram_capacity = int(histogram_capacity)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sources: Dict[str, SnapshotSource] = {}

    # ------------------------------------------------------------ instruments
    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, capacity: Optional[int] = None) -> Histogram:
        """Get or create the histogram ``name``."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, capacity if capacity is not None else self._histogram_capacity
            )
        return instrument

    # --------------------------------------------------------------- sources
    def attach(self, name: str, source: SnapshotSource) -> None:
        """Attach a named snapshot source, re-read on every :meth:`snapshot`.

        ``source`` is anything with ``as_dict()`` (the common stats protocol)
        or a zero-arg callable returning a dictionary / stats object —
        e.g. ``attach("loop", event_loop)`` or
        ``attach("engine", cluster.engine_stats)``.
        """
        self._sources[name] = source

    def detach(self, name: str) -> None:
        """Remove a previously attached source (missing names are ignored)."""
        self._sources.pop(name, None)

    @property
    def source_names(self) -> List[str]:
        """Names of the attached snapshot sources."""
        return list(self._sources)

    @staticmethod
    def _resolve_source(source: SnapshotSource) -> Dict[str, object]:
        view: object = source
        if callable(view) and not hasattr(view, "as_dict"):
            view = view()
        if hasattr(view, "as_dict"):
            view = view.as_dict()
        if not isinstance(view, dict):
            raise TypeError(
                f"snapshot source produced {type(view).__name__}, expected a dict "
                "(or an object with as_dict())"
            )
        return dict(view)

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, object]:
        """One nested, JSON-serialisable view of every instrument and source."""
        # sources first: reading one may settle lazily maintained state (the
        # streaming merger prices its pending block) and bump instruments
        sources = {
            name: self._resolve_source(source) for name, source in sorted(self._sources.items())
        }
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.summary() for name, h in sorted(self._histograms.items())},
            "sources": sources,
        }
