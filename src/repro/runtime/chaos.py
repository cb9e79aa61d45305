"""Deterministic fault injection for resilience testing.

"The recovery path works" is an empirical claim; this module makes it
testable.  Every injector is deterministic and seedable — a chaos test
that fails must fail identically on re-run — and every planted failure
raises (or plants data that leads to) a distinguishable condition, so
tests can tell the planted fault from a genuine bug.

Injectors
---------
* :func:`corrupt_edge_file` — byte- and line-level corruption of edge
  files (truncation, garbage tokens, out-of-range ids, ...).
* :class:`FlakyCalls` — wraps any callable to fail on a scripted
  subset of its invocations (``OSError``, ``MemoryError``, ...); used
  to exercise retry paths.
* :func:`flaky_open` — an ``open``-compatible wrapper for
  monkeypatching file-level failures into io code.
* :class:`ServeChaos` / :func:`truncate_wal_tail` — scripted faults on
  the scoring daemon's apply path and its write-ahead log.
* :func:`contaminate_core` — spam planted in a good core, for the
  core audit.
* :func:`torn_resend_stream`, :func:`duplicate_stream_events`,
  :func:`reorder_stream_events`, :func:`late_straggler_events`,
  :func:`poison_stream_window` — transport faults on a crawl-event
  feed.

None of this is imported by production code paths.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import Callable, Dict, Optional, Type, Union

import numpy as np

from ..errors import InjectedFault

__all__ = [
    "corrupt_edge_file",
    "CORRUPTION_KINDS",
    "FlakyCalls",
    "flaky_open",
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
# serving-level injectors (ingest worker + WAL)
# ----------------------------------------------------------------------


class ServeChaos:
    """Scripted faults for the scoring daemon's ingest path.

    The daemon exposes two hook points, keyed by the WAL sequence of
    the batch being applied:

    ``before_apply(seq)``
        Runs before the re-estimate starts, outside it.
        ``fail_apply_on`` raises ``exc`` here (the whole apply fails
        before any solve — drives the circuit-breaker and quarantine
        paths; a cold fallback never sees it); ``slow_apply_on``
        sleeps ``slow_seconds`` first (a straggling ingest, for
        staleness-bound tests).
    ``before_publish(seq)``
        Runs after the candidate epoch passed validation but *before*
        the pointer swap — the kill-mid-swap window.  ``kill_swap_on``
        raises ``exc`` here: scores were computed and are about to be
        visible, and the fault proves readers keep the previous epoch
        and the WAL record stays pending.

    ``after_anchor_step(seq, step)``
        Runs after each step of the re-anchor that follows the apply
        of ``seq``: ``"anchor"`` (the anchor is written), ``"switch"``
        (the WAL segment based on it is live) and ``"delete"`` (the
        older segments are gone).  ``kill_anchor_on`` holds
        ``(seq, step)`` pairs; a listed step raises ``exc``, which
        stops the re-anchor there and leaves on disk exactly what a
        crash at that point would.  The apply itself has already
        succeeded.

    Faults fire **once per (kind, seq)** by default (``once=True``) so
    the retry after a planted fault succeeds; with ``once=False`` the
    fault repeats on every attempt, which is how the ingest circuit
    breaker is driven open.  A seq names a place in the WAL chain, not
    one delta: after ``ScoringDaemon.quarantine_pending`` cuts a record,
    the next append reuses its seq, and a ``once=False`` fault fires on
    that record too.
    """

    def __init__(
        self,
        *,
        fail_apply_on: tuple = (),
        slow_apply_on: tuple = (),
        kill_swap_on: tuple = (),
        kill_anchor_on: tuple = (),
        slow_seconds: float = 0.05,
        exc: Type[BaseException] = InjectedFault,
        once: bool = True,
    ) -> None:
        self.fail_apply_on = tuple(fail_apply_on)
        self.slow_apply_on = tuple(slow_apply_on)
        self.kill_swap_on = tuple(kill_swap_on)
        self.kill_anchor_on = tuple(
            (int(seq), str(step)) for seq, step in kill_anchor_on
        )
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

    def after_anchor_step(self, seq: int, step: str) -> None:
        if (seq, step) in self.kill_anchor_on and self._fires(step, seq):
            raise self.exc(
                f"injected kill after the re-anchor step {step!r} on wal "
                f"seq {seq}"
            )


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
