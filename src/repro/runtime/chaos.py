"""Deterministic fault injection for resilience testing.

"The recovery path works" is an empirical claim; this module makes it
testable.  Every injector is deterministic and seedable — a chaos test
that fails must fail identically on re-run — and every planted failure
raises (or plants data that leads to) a distinguishable condition, so
tests can tell the planted fault from a genuine bug.

Injectors
---------
* :func:`fault_at` / :func:`nan_poison_at` — solver iteration callbacks
  that kill or poison a run at an exact iteration.
* :func:`corrupt_edge_file` — byte- and line-level corruption of edge
  files (truncation, garbage tokens, out-of-range ids, ...).
* :class:`FlakyCalls` — wraps any callable to fail on a scripted
  subset of its invocations (``OSError``, ``MemoryError``, ...); used
  to exercise retry and fallback paths.
* :func:`flaky_open` — an ``open``-compatible wrapper for
  monkeypatching file-level failures into io code.

None of this is imported by production code paths.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Callable, Dict, Optional, Type, Union

import numpy as np

from ..errors import InjectedFault

__all__ = [
    "fault_at",
    "nan_poison_at",
    "corrupt_edge_file",
    "CORRUPTION_KINDS",
    "FlakyCalls",
    "flaky_open",
    "ChaosWorker",
    "ServeChaos",
    "truncate_wal_tail",
    "contaminate_core",
    "torn_resend_stream",
    "duplicate_stream_events",
    "reorder_stream_events",
    "late_straggler_events",
    "poison_stream_window",
]


# ----------------------------------------------------------------------
# solver-level injectors (iteration callbacks)
# ----------------------------------------------------------------------


def fault_at(
    iteration: int,
    exc_factory: Callable[[], BaseException] = None,
) -> Callable[[int, np.ndarray, float], None]:
    """Callback raising a fault when the solver reaches ``iteration``.

    The default fault is :class:`~repro.errors.InjectedFault` — a stand-in
    for "the process was killed here" in kill-and-resume tests.
    """

    def _inject(it: int, p: np.ndarray, residual: float) -> None:
        if it == iteration:
            exc = (
                exc_factory()
                if exc_factory is not None
                else InjectedFault(f"injected crash at iteration {it}")
            )
            raise exc

    return _inject


def nan_poison_at(
    iteration: int,
    *,
    fraction: float = 0.01,
    seed: int = 0,
    methods: Optional[tuple] = None,
) -> Callable[[int, np.ndarray, float], None]:
    """Callback that overwrites a deterministic subset of the iterate
    with NaN at ``iteration`` — simulating in-memory corruption.

    ``methods`` optionally restricts poisoning to attempts whose bound
    ``method`` matches (see :class:`~repro.runtime.resilient.FallbackSolver`,
    which exposes the active method on the callback's behalf via the
    ``_chaos_method`` attribute it sets before each attempt).
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")

    def _poison(it: int, p: np.ndarray, residual: float) -> None:
        if it != iteration:
            return
        active = getattr(_poison, "_chaos_method", None)
        if methods is not None and active is not None and active not in methods:
            return
        rng = np.random.default_rng(seed)
        count = max(1, int(len(p) * fraction))
        idx = rng.choice(len(p), size=count, replace=False)
        p[idx] = np.nan

    return _poison


# ----------------------------------------------------------------------
# file-level injectors
# ----------------------------------------------------------------------

CORRUPTION_KINDS = (
    "truncate-bytes",
    "garbage-line",
    "bad-token",
    "out-of-range",
    "negative-id",
    "duplicate-edge",
    "drop-header",
)


def corrupt_edge_file(
    path: Union[str, Path],
    kind: str,
    *,
    seed: int = 0,
) -> Path:
    """Corrupt an edge file (plain or gzipped) in place, deterministically.

    Kinds
    -----
    ``truncate-bytes``
        Cut the file mid-stream.  For ``.gz`` files this yields a
        truncated gzip member — the classic interrupted-transfer
        artifact.
    ``garbage-line`` / ``bad-token``
        Insert a non-parsable line / replace one id with a non-integer
        token.
    ``out-of-range`` / ``negative-id``
        Append an edge whose endpoint is ≥ ``num_nodes`` / negative.
    ``duplicate-edge``
        Duplicate an existing edge line.
    ``drop-header``
        Remove the node-count header line.
    """
    path = Path(path)
    if kind not in CORRUPTION_KINDS:
        raise ValueError(
            f"unknown corruption {kind!r}; choose from {CORRUPTION_KINDS}"
        )
    rng = np.random.default_rng(seed)
    gz = path.suffix == ".gz"

    if kind == "truncate-bytes":
        raw = path.read_bytes()
        if len(raw) < 8:
            raise ValueError(f"{path} too small to truncate meaningfully")
        # keep at least the first few bytes (gzip magic survives, the
        # stream does not), cut somewhere in the middle-to-late body
        cut = int(len(raw) * (0.55 + 0.4 * rng.random()))
        cut = max(6, min(cut, len(raw) - 2))
        path.write_bytes(raw[:cut])
        return path

    opener = (lambda p, m: gzip.open(p, m + "t", encoding="utf-8")) if gz else (
        lambda p, m: open(p, m, encoding="utf-8")
    )
    with opener(path, "r") as fh:
        lines = fh.read().splitlines()
    header_idx = next(
        (
            i
            for i, line in enumerate(lines)
            if line.strip() and not line.lstrip().startswith("#")
        ),
        None,
    )
    if header_idx is None:
        raise ValueError(f"{path} has no content lines to corrupt")
    num_nodes = int(lines[header_idx])
    edge_indices = [
        i
        for i, line in enumerate(lines)
        if i > header_idx and line.strip() and not line.lstrip().startswith("#")
    ]

    if kind == "garbage-line":
        pos = (
            int(rng.integers(header_idx + 1, len(lines) + 1))
            if lines
            else header_idx + 1
        )
        lines.insert(pos, "!!corrupt@@ line not an edge")
    elif kind == "bad-token":
        if not edge_indices:
            raise ValueError(f"{path} has no edges to corrupt")
        i = int(rng.choice(edge_indices))
        src, dst = lines[i].split()
        lines[i] = f"{src} x{dst}"
    elif kind == "out-of-range":
        lines.append(f"0 {num_nodes + int(rng.integers(1, 10))}")
    elif kind == "negative-id":
        lines.append(f"-{int(rng.integers(1, 10))} 0")
    elif kind == "duplicate-edge":
        if not edge_indices:
            raise ValueError(f"{path} has no edges to duplicate")
        lines.append(lines[int(rng.choice(edge_indices))])
    elif kind == "drop-header":
        del lines[header_idx]

    with opener(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


# ----------------------------------------------------------------------
# call-level injectors
# ----------------------------------------------------------------------


class FlakyCalls:
    """Wrap a callable to fail on a scripted subset of invocations.

    ``plan`` maps 1-based call numbers to exception *types* (or
    instances); unlisted calls pass through.  ``fail_first`` is the
    shorthand for "the first N calls raise ``exc``" — the common
    transient-failure script for retry tests.

    >>> flaky = FlakyCalls(write_fn, fail_first=2, exc=OSError)
    >>> flaky()   # raises OSError     (call 1)
    >>> flaky()   # raises OSError     (call 2)
    >>> flaky()   # delegates          (call 3)
    """

    def __init__(
        self,
        fn: Callable,
        *,
        plan: Optional[Dict[int, Union[Type[BaseException], BaseException]]] = None,
        fail_first: int = 0,
        exc: Type[BaseException] = OSError,
    ) -> None:
        self.fn = fn
        self.plan = dict(plan or {})
        for call in range(1, fail_first + 1):
            self.plan.setdefault(call, exc)
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        fault = self.plan.get(self.calls)
        if fault is not None:
            raise fault if isinstance(fault, BaseException) else fault(
                f"injected fault on call {self.calls}"
            )
        return self.fn(*args, **kwargs)


def flaky_open(
    *,
    fail_first: int = 0,
    exc: Type[BaseException] = OSError,
    plan: Optional[Dict[int, Union[Type[BaseException], BaseException]]] = None,
) -> FlakyCalls:
    """An ``open``-compatible callable that fails on scripted calls.

    Monkeypatch it over :func:`builtins.open` (or an io module's opener)
    to simulate transient filesystem failures:

    >>> monkeypatch.setattr("builtins.open", flaky_open(fail_first=1))
    """
    import builtins

    return FlakyCalls(builtins.open, plan=plan, fail_first=fail_first, exc=exc)


# ----------------------------------------------------------------------
# worker-level injectors (process-pool fan-out)
# ----------------------------------------------------------------------


class ChaosWorker:
    """Wrap a picklable task function with scripted worker faults.

    Faults are keyed on one of the task's positional arguments
    (``key_arg``, default the first) — the supervised fan-out paths all
    lead their task tuples with the plan index, so ``kill_on=(2,)``
    means "chunk 2 misbehaves".  Kinds:

    ``kill_on``
        The worker *process* dies (``os._exit``) — the classic
        segfault/OOM-kill, surfacing as ``BrokenProcessPool`` for every
        in-flight future.  Fires only inside a child process; executed
        in the supervising process the injector is a no-op, so serial
        degradation completes the plan.
    ``hang_on``
        The worker sleeps ``hang_seconds`` before doing the work —
        past any sane deadline, so the watchdog abandons it.  Also
        worker-only by default.
    ``slow_on``
        The worker sleeps ``slow_seconds`` first, then works normally:
        a straggler *within* its deadline, which supervision must
        tolerate without retrying.
    ``fail_on``
        Raise ``exc`` instead of working — fires everywhere (worker or
        in-process), the script for plain task-retry paths.

    ``once_dir`` makes kill/hang/fail faults fire **once per key**
    across all processes (an atomically-created marker file arbitrates)
    so a retried task succeeds — the salvage/retry happy path.  Without
    it a fault fires on every pool execution, which is how the circuit
    breaker is driven to trip.

    Instances are picklable as long as ``fn`` is a module-level
    callable and ``exc`` a module-level exception type.
    """

    def __init__(
        self,
        fn: Callable,
        *,
        kill_on: tuple = (),
        hang_on: tuple = (),
        slow_on: tuple = (),
        fail_on: tuple = (),
        hang_seconds: float = 30.0,
        slow_seconds: float = 0.02,
        exc: Type[BaseException] = InjectedFault,
        once_dir: Optional[Union[str, Path]] = None,
        key_arg: int = 0,
    ) -> None:
        self.fn = fn
        self.kill_on = tuple(kill_on)
        self.hang_on = tuple(hang_on)
        self.slow_on = tuple(slow_on)
        self.fail_on = tuple(fail_on)
        self.hang_seconds = hang_seconds
        self.slow_seconds = slow_seconds
        self.exc = exc
        self.once_dir = None if once_dir is None else str(once_dir)
        self.key_arg = key_arg

    def _fires_once(self, kind: str, key) -> bool:
        """True if this (kind, key) fault should fire now.

        With ``once_dir`` set, the first process to atomically create
        the marker file wins; everyone later sees the fault as spent.
        """
        if self.once_dir is None:
            return True
        marker = Path(self.once_dir) / f"chaos-{kind}-{key}"
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            return False
        return True

    @staticmethod
    def _in_worker() -> bool:
        import multiprocessing

        return multiprocessing.parent_process() is not None

    def __call__(self, *args, **kwargs):
        import os
        import time as _time

        key = args[self.key_arg] if len(args) > self.key_arg else None
        if key in self.kill_on and self._in_worker() and self._fires_once(
            "kill", key
        ):
            os._exit(17)
        if key in self.hang_on and self._in_worker() and self._fires_once(
            "hang", key
        ):
            _time.sleep(self.hang_seconds)
        if key in self.slow_on:
            _time.sleep(self.slow_seconds)
        if key in self.fail_on and self._fires_once("fail", key):
            raise self.exc(f"injected task fault on key {key!r}")
        return self.fn(*args, **kwargs)


# ----------------------------------------------------------------------
# serving-level injectors (ingest worker + WAL)
# ----------------------------------------------------------------------


class ServeChaos:
    """Scripted faults for the scoring daemon's ingest path.

    The daemon exposes two hook points, keyed by the WAL sequence of
    the batch being applied:

    ``before_apply(seq)``
        Runs before the re-estimate starts.  ``fail_apply_on`` raises
        ``exc`` here (the warm path fails before doing any work —
        drives retry/degrade/circuit paths); ``slow_apply_on`` sleeps
        ``slow_seconds`` first (a straggling ingest, for deadline and
        staleness-bound tests).
    ``before_publish(seq)``
        Runs after the candidate epoch passed validation but *before*
        the pointer swap — the kill-mid-swap window.  ``kill_swap_on``
        raises ``exc`` here: scores were computed and are about to be
        visible, and the fault proves readers keep the previous epoch
        and the WAL record stays pending.

    Faults fire **once per (kind, seq)** by default (``once=True``) so
    the retry after a planted fault succeeds; with ``once=False`` the
    fault repeats on every attempt, which is how the ingest circuit
    breaker is driven open.
    """

    def __init__(
        self,
        *,
        fail_apply_on: tuple = (),
        slow_apply_on: tuple = (),
        kill_swap_on: tuple = (),
        slow_seconds: float = 0.05,
        exc: Type[BaseException] = InjectedFault,
        once: bool = True,
    ) -> None:
        self.fail_apply_on = tuple(fail_apply_on)
        self.slow_apply_on = tuple(slow_apply_on)
        self.kill_swap_on = tuple(kill_swap_on)
        self.slow_seconds = slow_seconds
        self.exc = exc
        self.once = once
        self._spent: set = set()
        self.fired = []

    def _fires(self, kind: str, seq: int) -> bool:
        key = (kind, seq)
        if self.once and key in self._spent:
            return False
        self._spent.add(key)
        self.fired.append(key)
        return True

    def before_apply(self, seq: int) -> None:
        import time as _time

        if seq in self.slow_apply_on and self._fires("slow", seq):
            _time.sleep(self.slow_seconds)
        if seq in self.fail_apply_on and self._fires("fail", seq):
            raise self.exc(f"injected ingest failure on wal seq {seq}")

    def before_publish(self, seq: int) -> None:
        if seq in self.kill_swap_on and self._fires("kill", seq):
            raise self.exc(f"injected kill mid-swap on wal seq {seq}")


def truncate_wal_tail(path: Union[str, Path], nbytes: int = 7) -> Path:
    """Chop ``nbytes`` off the end of a WAL segment, in place.

    Simulates a crash mid-append: the final record's line loses its
    tail (including the newline for small ``nbytes``), exactly what an
    interrupted ``write`` leaves behind.  Recovery must drop the torn
    record and keep everything before it.
    """
    path = Path(path)
    raw = path.read_bytes()
    if nbytes < 1 or nbytes >= len(raw):
        raise ValueError(
            f"nbytes must be in [1, {len(raw) - 1}] for {path} "
            f"({len(raw)} bytes)"
        )
    path.write_bytes(raw[:-nbytes])
    return path


# ----------------------------------------------------------------------
# core contamination (good-core anomaly injection)
# ----------------------------------------------------------------------


def contaminate_core(
    core: np.ndarray,
    spam_nodes: np.ndarray,
    *,
    num: int = 3,
    seed: int = 0,
) -> np.ndarray:
    """Plant spam nodes inside a good core, deterministically.

    Models the paper's Section 4.4 worst case — the supposedly clean
    ``Ṽ⁺`` absorbing spam hosts (a directory that let spam slip in, a
    compromised .edu) — so :func:`repro.eval.audit_core` has a planted
    anomaly to catch.  Returns a new core array with ``num`` spam nodes
    (chosen by ``seed`` from ``spam_nodes``, excluding any already
    present) appended; the input is not modified.
    """
    if num < 1:
        raise ValueError("num must be positive")
    core = np.asarray(core, dtype=np.int64)
    pool = np.setdiff1d(
        np.asarray(spam_nodes, dtype=np.int64), core, assume_unique=False
    )
    if len(pool) < num:
        raise ValueError(
            f"only {len(pool)} spam nodes available to plant, need {num}"
        )
    rng = np.random.default_rng(seed)
    planted = rng.choice(pool, size=num, replace=False)
    return np.concatenate([core, np.sort(planted)])


# ----------------------------------------------------------------------
# stream-level injectors (crawl-event transport faults)
# ----------------------------------------------------------------------
#
# These operate on lists of wire lines (the JSONL encoding of
# repro.synth.crawler events) and model the transport faults a live
# crawl feed exhibits: torn lines, duplicated and reordered delivery,
# backward clock skew (stragglers for long-sealed windows), and
# adversarially poisoned windows.  All are pure (input list untouched)
# and deterministic in ``seed``.  The ingestor's contract is that
# every fault below is *absorbed*: the post-ingest scores are bitwise
# identical to the clean sequence (stragglers and poison end up in the
# DLQ, never in the graph).


def torn_resend_stream(
    lines,
    *,
    seed: int = 0,
    count: int = 2,
    displacement: int = 3,
):
    """Tear ``count`` lines mid-record and retransmit them shortly after.

    The torn fragment (an unparsable half line, what a crashed writer
    or a cut connection leaves) stays in place — the ingestor must DLQ
    it as ``"bad-json"`` — and the intact original is re-inserted at
    most ``displacement`` lines later, modeling the crawler's retry.
    Keep ``displacement`` small relative to the ingestor's
    ``max_lateness`` so the resend still lands in its open window.
    """
    rng = np.random.default_rng(seed)
    out = list(lines)
    if len(out) < 4 or count < 1:
        return out
    victims = sorted(
        rng.choice(np.arange(1, len(out) - 1), size=min(count, len(out) - 2),
                   replace=False).tolist(),
        reverse=True,
    )
    for idx in victims:
        original = out[idx]
        out[idx] = original[: max(1, len(original) // 2)]
        resend_at = min(len(out), idx + 1 + displacement)
        out.insert(resend_at, original)
    return out


def duplicate_stream_events(
    lines,
    *,
    seed: int = 0,
    count: int = 3,
    displacement: int = 4,
):
    """Deliver ``count`` randomly chosen lines twice (at-least-once
    transport).  The copy arrives at most ``displacement`` lines after
    the original; the ingestor must drop it by event id."""
    rng = np.random.default_rng(seed)
    out = list(lines)
    if not out or count < 1:
        return out
    victims = sorted(
        rng.choice(len(out), size=min(count, len(out)), replace=False).tolist(),
        reverse=True,
    )
    for idx in victims:
        out.insert(min(len(out), idx + 1 + displacement), out[idx])
    return out


def reorder_stream_events(
    lines,
    *,
    seed: int = 0,
    count: int = 5,
    max_shift: int = 2,
):
    """Shift ``count`` lines up to ``max_shift`` positions later.

    Bounded out-of-order delivery: choose ``max_shift`` (times the
    stream's timestamp increment) below the ingestor's
    ``max_lateness`` and every displaced event still reaches its
    window; the windows — and the scores — come out identical.
    """
    rng = np.random.default_rng(seed)
    out = list(lines)
    if len(out) < 3 or count < 1:
        return out
    for _ in range(count):
        idx = int(rng.integers(0, len(out) - 1))
        shift = int(rng.integers(1, max_shift + 1))
        line = out.pop(idx)
        out.insert(min(len(out), idx + shift), line)
    return out


def late_straggler_events(
    lines,
    *,
    seed: int = 0,
    count: int = 2,
    num_nodes: int = 2,
    next_id: int = 0,
    ts: int = 0,
):
    """Append ``count`` schema-valid events carrying a long-stale ``ts``.

    Models backward clock skew / a partition healing hours late: the
    events are well-formed (fresh ids from ``next_id``) but their
    window sealed long ago, so the ingestor must quarantine them as
    ``"late"`` without touching the graph.
    """
    import json as _json

    rng = np.random.default_rng(seed)
    out = list(lines)
    for i in range(count):
        u = int(rng.integers(0, num_nodes))
        v = int(rng.integers(0, num_nodes))
        if u == v:
            v = (v + 1) % num_nodes
        out.append(_json.dumps(
            {"id": next_id + i, "ts": int(ts), "op": "+", "src": u, "dst": v},
            separators=(",", ":"),
        ))
    return out


def poison_stream_window(
    lines,
    edges,
    *,
    next_id: int,
    ts: int,
    count: int = 3,
):
    """Append one trailing window of poison events.

    ``edges`` must be edges that exist in the graph when the window
    commits (pass edges the stream never deletes): re-inserting an
    existing edge passes the per-event schema but makes the window's
    compacted delta structurally invalid, so the whole window must be
    quarantined as ``"poison-delta"`` while the daemon keeps serving.
    Place ``ts`` beyond the stream's final timestamp plus the window
    size so the poison shares a window with no clean event.
    """
    import json as _json

    out = list(lines)
    chosen = list(edges)[:count]
    if len(chosen) < 1:
        raise ValueError("poison_stream_window needs at least one edge")
    for i, (u, v) in enumerate(chosen):
        out.append(_json.dumps(
            {"id": next_id + i, "ts": int(ts), "op": "+",
             "src": int(u), "dst": int(v)},
            separators=(",", ":"),
        ))
    return out
