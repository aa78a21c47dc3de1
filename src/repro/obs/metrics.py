"""Process-local metrics registry: counters, gauges, histograms.

Deliberately dependency-free and deterministic: histograms bucket by
power of two (``bit_length``), so two runs over the same inputs export
identical snapshots (:meth:`MetricsRegistry.to_dict`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int) -> None:
        self.value = value


class Histogram:
    """Power-of-two bucketed distribution of non-negative integers.

    Bucket ``b`` counts observations with ``bit_length() == b`` (zero
    lands in bucket 0), i.e. bucket 3 holds values 4..7.  Exact count,
    sum, min and max ride along so means survive the bucketing.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = value.bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }


class MetricsRegistry:
    """Named counters/gauges/histograms for one process."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    def to_dict(self) -> Dict[str, Any]:
        """A deterministic, JSON-ready snapshot (names sorted)."""
        return {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict() for k in sorted(self._histograms)},
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry most instrumentation writes to.
_GLOBAL = MetricsRegistry()


def metrics() -> MetricsRegistry:
    return _GLOBAL


def reset_metrics() -> None:
    _GLOBAL.reset()
