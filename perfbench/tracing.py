"""Span recording around the program's public functions.

The traced run wraps the functions each layer exposes; the wrappers
live here, not in the program.  A span records its name, start, end
(``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux and so
comparable across the client and server processes) and the index of
its parent, taken from a per-thread stack.  Spans stay in memory until
the run ends.  Ops are assigned afterwards by time: a span belongs to
the op whose interval contains its start, so the op index is the
request id.

Counts come from what the wrapped calls return (``BatchResult``,
``PushStats``) or from state the caller already exposes (cache
counters); the program's own telemetry stays off.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["Tracer", "Span", "fold", "load_spans", "self_times"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls(row[0], row[1], row[3])
        span.end = row[2]
        span.attrs = row[4]
        return span


class _Target:
    __slots__ = ("name", "owner", "attr", "pre", "post")

    def __init__(self, name, owner, attr, pre, post) -> None:
        self.name = name
        self.owner = owner
        self.attr = attr
        self.pre = pre
        self.post = post


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores
    the original functions, so untraced ops run the unmodified
    program."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._targets: List[_Target] = []
        self._patches: List[tuple] = []

    # -- registration ---------------------------------------------------

    def add(
        self,
        name: str,
        owner,
        attr: str,
        *,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> None:
        """Trace ``owner.attr`` (a class or a module) as span ``name``.

        ``pre(args, kwargs)`` runs before the call and its value is
        handed to ``post(span, args, kwargs, result, pre_value)``, which
        may set ``span.attrs``.
        """
        self._targets.append(_Target(name, owner, attr, pre, post))

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for target in self._targets:
            if isinstance(target.owner, type):
                self._patch_class(target)
            else:
                self._patch_function(target)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch_class(self, target: _Target) -> None:
        raw = target.owner.__dict__[target.attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(target, raw.__func__))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(target, raw.__func__))
        else:
            wrapped = self._wrap(target, raw)
        setattr(target.owner, target.attr, wrapped)
        self._patches.append((target.owner, target.attr, raw))

    def _patch_function(self, target: _Target) -> None:
        original = getattr(target.owner, target.attr)
        wrapped = self._wrap(target, original)
        # a function imported by name lives in every importer's
        # namespace; patch each loaded module that holds this object
        owners = [target.owner] + [
            module
            for key, module in list(sys.modules.items())
            if key.startswith("repro")
            and module is not target.owner
            and getattr(module, "__dict__", {}).get(target.attr)
            is original
        ]
        for owner in owners:
            setattr(owner, target.attr, wrapped)
            self._patches.append((owner, target.attr, original))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: _Target, fn: Callable) -> Callable:
        spans = self.spans
        stack_of = self._stack
        name, pre, post = target.name, target.pre, target.post
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            before = pre(args, kwargs) if pre is not None else None
            span = Span(name, 0.0, stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if post is not None:
                post(span, args, kwargs, result, before)
            return result

        return wrapper

    def record(self, name: str, start: float, end: float,
               attrs: Optional[dict] = None) -> None:
        """Append a leaf span measured elsewhere (a gc pause, the
        benchmark's own work between ops) as a child of the span open
        on this thread, so that span's self time excludes it."""
        stack = self._stack()
        span = Span(name, start, stack[-1] if stack else -1)
        span.end = end
        span.attrs = attrs
        self.spans.append(span)

    # -- persistence ------------------------------------------------------

    def dump(self, path: Path) -> None:
        tmp = Path(str(path) + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump([span.as_list() for span in self.spans], fh)
        os.replace(tmp, path)


def load_spans(path: Path) -> List[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span.from_list(row) for row in json.load(fh)]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def fold(
    spans: Sequence[Span], ops: Sequence[tuple]
) -> List[Dict[str, List[int]]]:
    """Assign span indexes to ops by start time.

    ``ops`` holds ``(start, end)`` intervals, sorted and disjoint;
    returns, per op, ``{span name: [span indexes]}``.
    """
    import bisect

    starts = [op[0] for op in ops]
    out: List[Dict[str, List[int]]] = [dict() for _ in ops]
    for index, span in enumerate(spans):
        k = bisect.bisect_right(starts, span.start) - 1
        if k < 0 or span.start >= ops[k][1]:
            continue
        out[k].setdefault(span.name, []).append(index)
    return out

