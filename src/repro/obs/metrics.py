"""Metrics registry: counters, gauges and histograms.

Metrics are *aggregates*, not events: incrementing a counter touches a
Python int, never the event sink, so per-occurrence cost stays O(1)
with no I/O.  The registry renders to a flat JSON-serializable snapshot
(the CLI's ``--metrics-out`` and the per-run manifest) and backs the
behavioural assertions of the telemetry test harness — e.g. that
``opcache.hits`` agrees with what :class:`repro.perf.OperatorCache`
itself reports.

Instrumented metric names in this codebase (see docs/observability.md
for the full schema):

=========================  ==========  =======================================
name                       type        meaning
=========================  ==========  =======================================
``opcache.hits``           counter     operator-cache hits
``opcache.misses``         counter     operator-cache misses (bundle builds)
``opcache.evictions``      counter     LRU evictions
``engine.batched_solves``  counter     ``solve_many`` calls
``engine.columns``         counter     stacked columns solved
``retry.attempts``         counter     transient-I/O retries
``mc.walks``               counter     Monte-Carlo walks sampled
``detect.candidates``      gauge       size of the last candidate set
``span.duration.<name>``   histogram   per-stage wall seconds
=========================  ==========  =======================================
"""

from __future__ import annotations

from typing import Dict, Iterable, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Number = Union[int, float]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins numeric level."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming aggregate of observed values (count/sum/min/max/last).

    No per-value storage: a residual curve of ten thousand points costs
    four floats and an int, so feeding whole trajectories in after an
    attempt finishes is safe at any scale.
    """

    __slots__ = ("name", "count", "total", "min", "max", "last")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.last = 0.0

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.last = value

    def observe_many(self, values: Iterable[Number]) -> None:
        for value in values:
            self.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        if not self.count:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "last": self.last,
        }


class MetricsRegistry:
    """Named metrics, created on first touch.

    A name is permanently bound to the type of its first use; asking
    for ``counter("x")`` after ``gauge("x")`` raises, which catches
    instrumentation typos at test time instead of silently forking a
    metric.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def value(self, name: str, default: Number = 0) -> Number:
        """The scalar value of a counter/gauge (``default`` if absent)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        return metric.value  # type: ignore[union-attr]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, dict]:
        """Flat ``{name: {type, ...}}`` dict, sorted by name."""
        return {
            name: self._metrics[name].to_dict()  # type: ignore[attr-defined]
            for name in sorted(self._metrics)
        }
