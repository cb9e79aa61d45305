"""Observability layer: tracing, metrics and telemetry capture.

The mass-estimation pipeline (Algorithm 2: two PageRank solves over
one operator, then thresholding) runs on a batched perf engine whose
*behaviour* — cache hits, per-column convergence, write retries,
incremental pushes — matters as much as its output.  This package
makes that behaviour a first-class, assertable signal:

* :mod:`repro.obs.events` — the :class:`Event` record and the sinks
  (:class:`NullSink`, :class:`MemorySink`, :class:`JsonlSink`,
  :class:`TeeSink`);
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges and streaming histograms;
* :mod:`repro.obs.tracer` — nested stage spans
  (``graph-gen → operator-build → solve → mass-estimate → detect``);
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade the
  instrumented modules call, with :func:`get_telemetry` /
  :func:`set_telemetry` / :func:`capture`;
* :mod:`repro.obs.manifest` — the per-run JSON manifest written next
  to a ``--trace-out`` trace.

The process default is a **disabled** telemetry that emits zero events
and allocates nothing; the CLI flags ``--trace-out`` /
``--metrics-out`` enable it, and the pytest ``telemetry`` fixture
captures in-process for the telemetry-assertion test harness
(``tests/obs/``).  See ``docs/observability.md``.

This package imports nothing from the rest of :mod:`repro`, so any
layer — including :mod:`repro.graph.io` and :mod:`repro.runtime.retry`
at the bottom of the stack — can emit telemetry without import cycles.
"""

from .events import (
    Event,
    EventSink,
    JsonlSink,
    MemorySink,
    NullSink,
    TeeSink,
)
from .manifest import build_manifest, manifest_path_for, write_manifest
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .telemetry import Telemetry, capture, get_telemetry, set_telemetry
from .tracer import NOOP_SPAN, NoopSpan, Span, Tracer

__all__ = [
    "Event",
    "EventSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "NoopSpan",
    "NOOP_SPAN",
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "capture",
    "build_manifest",
    "write_manifest",
    "manifest_path_for",
]
