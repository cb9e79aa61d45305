"""Telemetry events and sinks: the wire format of the observability layer.

Everything the instrumented pipeline emits is an :class:`Event` — a
``(timestamp, kind, name, attrs)`` record.  Three kinds exist:

``span_start`` / ``span_end``
    Stage boundaries from the :mod:`~repro.obs.tracer` (nested: the
    ``span_start`` carries the nesting ``depth`` and ``parent``; the
    ``span_end`` additionally carries ``duration`` and ``status``).
``event``
    A point-in-time occurrence: a solution-snapshot write, an I/O
    retry, an epoch swap.

Events flow into an :class:`EventSink`.  Sinks are deliberately dumb —
``emit(event)`` and ``close()`` — so the instrumentation cost is one
method call per *stage boundary* (never per solver iteration):

* :class:`NullSink` — drops everything; the disabled-telemetry path
  never even constructs an event, so this sink exists only as a safe
  default target.
* :class:`MemorySink` — appends to a list; the in-process capture the
  pytest ``telemetry`` fixture builds assertions on.
* :class:`JsonlSink` — one JSON object per line (the CLI's
  ``--trace-out``); crash-tolerant in the sense that every line written
  so far is already valid JSON.
* :class:`TeeSink` — fan-out to several sinks.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, IO, List, Optional, Union

__all__ = [
    "Event",
    "EventSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
]


class Event:
    """One telemetry record.

    Attributes
    ----------
    ts:
        Unix timestamp (``time.time()``) at emission.
    kind:
        ``"span_start"``, ``"span_end"`` or ``"event"``.
    name:
        The stage or occurrence name (e.g. ``"mass-estimate"``,
        ``"checkpoint.solution_write"``).
    attrs:
        Flat JSON-serializable payload.
    """

    __slots__ = ("ts", "kind", "name", "attrs")

    def __init__(self, kind: str, name: str, attrs: Optional[dict] = None,
                 ts: Optional[float] = None) -> None:
        self.ts = time.time() if ts is None else ts
        self.kind = kind
        self.name = name
        self.attrs = attrs if attrs is not None else {}

    def to_dict(self) -> dict:
        return {
            "ts": self.ts,
            "kind": self.kind,
            "name": self.name,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.kind!r}, {self.name!r}, {self.attrs!r})"


class EventSink:
    """Abstract sink; subclasses override :meth:`emit`."""

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (flush files); idempotent."""


class NullSink(EventSink):
    """Swallows everything (the safe default target)."""

    def emit(self, event: Event) -> None:
        pass


class MemorySink(EventSink):
    """In-process capture used by the test harness.

    Beyond plain storage it offers the queries the telemetry-assertion
    tests are written in terms of: completed span names, events of a
    kind/name, and the normalized ``(kind, name)`` stream the golden
    regression fixture pins.
    """

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()

    # -- queries --------------------------------------------------------

    def of_kind(self, kind: str) -> List[Event]:
        """Events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def named(self, name: str, kind: Optional[str] = None) -> List[Event]:
        """Events with a given name (optionally restricted by kind)."""
        return [
            e
            for e in self.events
            if e.name == name and (kind is None or e.kind == kind)
        ]

    def span_names(self) -> List[str]:
        """Names of *completed* spans, in completion order."""
        return [e.name for e in self.events if e.kind == "span_end"]

    def span_count(self, name: str) -> int:
        """How many times the named span completed."""
        return sum(
            1
            for e in self.events
            if e.kind == "span_end" and e.name == name
        )

    def normalized(self, keep_attrs: tuple = ("label", "status")) -> List[dict]:
        """The timing-stripped stream the golden fixture stores.

        Each entry keeps only ``kind``, ``name`` and the whitelisted
        stable attributes — timestamps, durations and iteration counts
        (all host- or library-version-dependent) are dropped, so the
        fixture asserts event *kinds and ordering*, nothing volatile.
        """
        out = []
        for e in self.events:
            entry: Dict[str, object] = {"kind": e.kind, "name": e.name}
            for key in keep_attrs:
                if key in e.attrs:
                    entry[key] = e.attrs[key]
            out.append(entry)
        return out


class JsonlSink(EventSink):
    """Append events as JSON lines to a file (the ``--trace-out`` sink)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[IO[str]] = open(self.path, "w", encoding="utf-8")
        self.emitted = 0
        self.emitted_by_kind: Dict[str, int] = {}

    def emit(self, event: Event) -> None:
        if self._fh is None:  # pragma: no cover - emit after close
            return
        json.dump(event.to_dict(), self._fh, separators=(",", ":"))
        self._fh.write("\n")
        self.emitted += 1
        self.emitted_by_kind[event.kind] = (
            self.emitted_by_kind.get(event.kind, 0) + 1
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


class TeeSink(EventSink):
    """Fan one event stream out to several sinks."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = [s for s in sinks if s is not None]

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
