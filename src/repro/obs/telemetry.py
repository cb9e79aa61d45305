"""The telemetry facade: the one object instrumented code talks to.

Instrumentation sites never import sinks or registries directly; they
call :func:`get_telemetry` and use the narrow :class:`Telemetry`
surface — ``span``/``event``/``inc``/``observe``/``set_gauge``.  The
contract that makes this safe to leave in production code paths:

* **Disabled is free.**  The process-wide default is a shared disabled
  instance whose methods return immediately: ``span()`` hands back the
  module-level :data:`~repro.obs.tracer.NOOP_SPAN` singleton and no
  :class:`~repro.obs.events.Event` is ever constructed — zero events,
  zero retained allocations (asserted by
  ``tests/obs/test_obs_noop.py``).
* **Enabled is cheap.**  Emission happens at stage boundaries and
  per-occurrence (a solution-snapshot write, an I/O retry), never inside a
  solver iteration loop; the benchmark gates the enabled overhead at
  <5% on the medium preset.
* **Scoped capture.**  Tests install a fresh telemetry via
  :func:`set_telemetry` (the pytest ``telemetry`` fixture) or
  :func:`capture`; the previous one is restored afterwards, so capture
  never leaks across tests.

``Telemetry`` is deliberately not thread-*shared* state beyond the
tracer's per-thread span stack: counters use plain int adds (GIL-atomic
enough for diagnostics), and worker *processes* (the Monte-Carlo pool)
start with the disabled default, so child processes never double-emit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from .events import Event, EventSink, MemorySink, NullSink
from .metrics import MetricsRegistry
from .tracer import NOOP_SPAN, Span, Tracer

__all__ = [
    "Telemetry",
    "get_telemetry",
    "set_telemetry",
    "capture",
]


class Telemetry:
    """Sink + metrics + tracer behind one guarded entry point.

    Parameters
    ----------
    sink:
        Where events go; default :class:`NullSink`.
    metrics:
        The metrics registry; default a fresh one.
    enabled:
        When false every method is a no-op regardless of the sink —
        this is the only flag hot call sites ever need to check.
    """

    __slots__ = ("sink", "metrics", "tracer", "enabled")

    def __init__(
        self,
        sink: Optional[EventSink] = None,
        metrics: Optional[MetricsRegistry] = None,
        enabled: bool = True,
    ) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer(self.sink.emit, on_close=self._record_span)
        self.enabled = enabled

    # -- spans ----------------------------------------------------------

    def span(self, name: str, **attrs) -> Union[Span, "object"]:
        """A context manager bracketing one pipeline stage."""
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name, attrs)

    def _record_span(self, span: Span) -> None:
        self.metrics.histogram(f"span.duration.{span.name}").observe(
            span.duration
        )

    # -- events ---------------------------------------------------------

    def event(self, name: str, **attrs) -> None:
        """Emit a point-in-time occurrence."""
        if not self.enabled:
            return
        self.sink.emit(Event("event", name, attrs))

    # -- metrics --------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        if not self.enabled:
            return
        self.metrics.counter(name).inc(amount)

    def set_gauge(self, name: str, value) -> None:
        if not self.enabled:
            return
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value) -> None:
        if not self.enabled:
            return
        self.metrics.histogram(name).observe(value)

    def observe_many(self, name: str, values) -> None:
        if not self.enabled:
            return
        self.metrics.histogram(name).observe_many(values)

    # -- lifecycle ------------------------------------------------------

    def snapshot(self) -> dict:
        """The metrics snapshot (see :meth:`MetricsRegistry.snapshot`)."""
        return self.metrics.snapshot()

    def close(self) -> None:
        """Close the sink (flush trace files)."""
        self.sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state}, sink={type(self.sink).__name__})"


#: The shared disabled instance: the process-wide default.  Never
#: mutated, so every process (including Monte-Carlo pool workers)
#: starts silent.
_DISABLED = Telemetry(enabled=False)

_current: Telemetry = _DISABLED


def get_telemetry() -> Telemetry:
    """The active telemetry (a shared disabled no-op by default)."""
    return _current


def set_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """Install ``telemetry`` as the active instance; returns the previous.

    Pass ``None`` to restore the disabled default.  Callers are expected
    to restore the returned previous instance when their scope ends —
    the ``telemetry`` pytest fixture and :func:`capture` do this
    automatically.
    """
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else _DISABLED
    return previous


@contextmanager
def capture(
    sink: Optional[EventSink] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[Telemetry]:
    """Scoped in-process capture: install, yield, restore.

    ::

        with capture() as tele:
            estimate_spam_mass(graph, core)
        assert tele.sink.span_count("mass-estimate") == 1
    """
    telemetry = Telemetry(
        sink=sink if sink is not None else MemorySink(), metrics=metrics
    )
    previous = set_telemetry(telemetry)
    try:
        yield telemetry
    finally:
        set_telemetry(previous)
