"""Fault-tolerant streaming crawl ingestion.

:class:`StreamIngestor` sits between a crawler frontier (the event
streams of :mod:`repro.synth.crawler`, or any JSONL source speaking the
same schema) and a :class:`~repro.serve.daemon.ScoringDaemon`.  The
batch pipeline assumes well-formed deltas handed over by an operator;
a live crawl offers no such courtesy — lines arrive torn, duplicated,
reordered, late, occasionally adversarial.  The ingestor's contract:

* **validate** every event against the strict schema
  (:func:`repro.synth.crawler.validate_event`) and quarantine malformed
  records into a crash-safe :class:`DeadLetterQueue` with a typed
  reason instead of dying;
* **deduplicate** by event id and tolerate bounded out-of-order arrival
  via event-time windows — any interleaving of duplicates and shuffles
  within ``max_lateness`` produces the same windows, hence the same
  deltas, hence bitwise-identical scores;
* **compact** each sealed window into one net
  :class:`~repro.graph.delta.GraphDelta` with
  :func:`~repro.graph.delta.compose_deltas` (insert-then-delete pairs
  cancel — window compaction *is* delta coalescing);
* **apply** through the daemon's WAL, one record per window carrying
  the ingestor's source position, so a crash at any point resumes
  exactly where it left off — restart is bitwise-identical;
* **quarantine poison at two levels**: a window whose compacted delta
  fails validation (``"poison-delta"``) never reaches the WAL; a
  window that is durable but unapplicable — both the warm and the cold
  estimate fail — is abandoned wholesale (``"apply-failed"``, via
  :meth:`~repro.serve.daemon.ScoringDaemon.quarantine_pending`) while
  the daemon keeps serving its current epoch;
* **backpressure**: under a burst flood (more than
  :data:`FLOOD_THRESHOLD` buffered events) the effective window size
  halves, down to :data:`MIN_WINDOW` ticks (a window already that
  narrow stays as it is), and the lateness allowance drops to zero, so
  windows seal and drain aggressively instead of buffering without
  bound; :data:`MAX_PENDING_WINDOWS` open windows is the hard cap.

Windowing
---------
Event time is the ``ts`` field.  Windows are consecutive half-open
intervals ``[start, start + cw)`` beginning at ``ts = 0``, where ``cw``
is the *current* window size (``window`` normally, degraded under
flood).  The watermark is ``max_ts_seen - max_lateness``; a window
seals when the watermark passes its end.  An event whose ``ts`` falls
in already-sealed territory is quarantined as ``"late"`` — its id is
consumed, so a retransmit of the same id is a duplicate, not a second
DLQ entry.

Crash anatomy
-------------
A window commits when its WAL record is durable, and that record is
the ingestor's only durable state: it carries the *position* right
after the window (see :meth:`StreamIngestor._checkpoint`) — the
window's bounds and event ids, the consumed-id watermark + extras, the
open windows' bounds, the flow-control state and the counters.  When
the daemon re-anchors, the header of the new WAL segment carries the
newest position it folded, so an empty live segment still resumes.  A
new incarnation restores the newest position and applies the
record the daemon has not (a crash between a window's submit and its
apply leaves one; poison is quarantined as ``"apply-failed"``).  The
source is then re-read from the oldest open window's first line:
lines the position had already decided only refill the open windows,
and every later line is decided afresh — including windows that
cancelled out or were quarantined after the record, and late or
malformed lines.
Decisions are deterministic, so the resumed run commits the same
windows with bitwise-identical scores and ends with the same counters;
the DLQ skips an entry identical to one it already holds, so a
re-decided verdict is not written twice.

See ``docs/streaming.md`` for the operator-facing runbook.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from ..errors import DeltaError, StreamError, StreamEventError
from ..graph.delta import GraphDelta, compose_deltas
from ..obs import get_telemetry
from ..synth.crawler import CrawlEvent, parse_event_line
from .daemon import ScoringDaemon

__all__ = ["StreamConfig", "DeadLetterQueue", "StreamIngestor"]

PathLike = Union[str, Path]

DLQ_FILENAME = "dlq.jsonl"

#: Flow control.  More than ``FLOOD_THRESHOLD`` buffered events is a
#: flood: the effective window halves, down to ``MIN_WINDOW`` ticks (a
#: narrower configured window never shrinks), and doubles back once
#: the buffer falls below half the threshold.  More than
#: ``MAX_PENDING_WINDOWS`` open windows force-seals the oldest.  Module
#: constants, not options.
MIN_WINDOW = 2
MAX_PENDING_WINDOWS = 64
FLOOD_THRESHOLD = 10_000


@dataclass(frozen=True)
class StreamConfig:
    """Windowing of one ingestor, in event-time ticks (the stream's
    ``ts`` unit).  Each sealed window is one apply, so ``window`` also
    sets how much churn one warm solve absorbs.
    """

    window: int = 16
    max_lateness: int = 8

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.max_lateness < 0:
            raise ValueError("max_lateness must be >= 0")


class DeadLetterQueue:
    """Append-only, fsynced quarantine log (``dlq.jsonl``).

    Every entry carries a typed ``reason``: one of the schema slugs of
    :class:`~repro.errors.StreamEventError` (``"bad-json"``,
    ``"missing-field"``, ``"bad-type"``, ``"bad-op"``,
    ``"negative-id"``, ``"self-link"``, ``"out-of-range"``), ``"late"``
    for an event whose window already sealed, ``"poison-delta"`` for a
    window whose compacted delta fails validation, or
    ``"apply-failed"`` for a durable window both the warm and the cold
    solve reject.  Window-level entries keep the quarantined event
    lines verbatim so an operator can inspect, repair and re-ingest
    them (re-ingesting an *unrepaired* quarantined window is a no-op on
    scores: its ids are consumed, or it is quarantined again).

    An append identical to an entry already in the queue apart from
    its ``n`` is skipped: a restarted ingestor re-decides whatever
    followed its last WAL record, and the same verdict recurs.
    """

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self._keys: Optional[Set[str]] = None
        self._count = 0

    @property
    def path(self) -> Path:
        return self.directory / DLQ_FILENAME

    def append(
        self,
        reason: str,
        *,
        detail: str = "",
        line: Optional[str] = None,
        lines: Optional[List[str]] = None,
        ids: Optional[List[int]] = None,
        window: Optional[Tuple[int, int]] = None,
        offset: Optional[int] = None,
    ) -> Optional[dict]:
        """Durably quarantine one record (or one whole window).

        Returns the entry written, or ``None`` when an identical one is
        already queued.
        """
        entry: dict = {"reason": reason}
        if detail:
            entry["detail"] = detail
        if line is not None:
            entry["line"] = line
        if lines is not None:
            entry["lines"] = list(lines)
        if ids is not None:
            entry["ids"] = [int(i) for i in ids]
        if window is not None:
            entry["window"] = [int(window[0]), int(window[1])]
        if offset is not None:
            entry["offset"] = int(offset)
        keys = self._index()
        key = _entry_key(entry)
        if key in keys:
            return None
        entry = {"n": self._count, **entry}
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        keys.add(key)
        self._count += 1
        tele = get_telemetry()
        if tele.enabled:
            tele.inc("stream.dlq")
            tele.event(
                "stream.dead_lettered",
                reason=reason,
                ids=len(ids) if ids else (1 if line else 0),
            )
        return entry

    def entries(self) -> List[dict]:
        """Every parsable entry, in order (a torn tail is skipped)."""
        return _parse_entries(self._read())

    def _read(self) -> bytes:
        return self.path.read_bytes() if self.path.exists() else b""

    def _index(self) -> Set[str]:
        """The queued entries' keys, read once.  A torn tail is cut off
        first (truncate, fsync), so the next append starts a line of
        its own instead of gluing onto half a record."""
        if self._keys is None:
            raw = self._read()
            whole = raw.rfind(b"\n") + 1
            if whole < len(raw):
                with open(self.path, "r+b") as fh:
                    fh.truncate(whole)
                    os.fsync(fh.fileno())
            entries = _parse_entries(raw)
            self._keys = {_entry_key(entry) for entry in entries}
            self._count = len(entries)
        return self._keys

    def __len__(self) -> int:
        self._index()
        return self._count


def _parse_entries(raw: bytes) -> List[dict]:
    """The entries on the whole lines of ``raw`` (a torn tail has no
    newline; a line that does not parse is skipped)."""
    out: List[dict] = []
    for line in raw[: raw.rfind(b"\n") + 1].split(b"\n"):
        try:
            out.append(json.loads(line))
        except ValueError:
            continue  # blank, or a record glued onto a torn one
    return out


def _entry_key(entry: dict) -> str:
    """An entry's identity: everything but its sequence number."""
    return json.dumps(
        {k: v for k, v in entry.items() if k != "n"},
        sort_keys=True,
        separators=(",", ":"),
    )


class _IdTracker:
    """Consumed event ids: contiguous watermark + sparse extras."""

    __slots__ = ("watermark", "extras")

    def __init__(self, watermark: int = -1, extras=()) -> None:
        self.watermark = int(watermark)
        self.extras = set(int(i) for i in extras)

    def seen(self, event_id: int) -> bool:
        return event_id <= self.watermark or event_id in self.extras

    def consume(self, event_id: int) -> None:
        if event_id <= self.watermark:
            return
        self.extras.add(event_id)
        while self.watermark + 1 in self.extras:
            self.watermark += 1
            self.extras.discard(self.watermark)

    def as_dict(self) -> dict:
        return {"wm": self.watermark, "extra": sorted(self.extras)}


class _Window:
    """One open event-time window: ``[start, end)`` plus its events."""

    __slots__ = ("start", "end", "events")

    def __init__(self, start: int, end: int) -> None:
        self.start = start
        self.end = end
        # id -> (event, source byte offset or None)
        self.events: Dict[int, Tuple[CrawlEvent, Optional[int]]] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Window([{self.start}, {self.end}), {len(self.events)} ev)"


class StreamIngestor:
    """Drives one daemon from a crawl-event stream; crash-resumable.

    Parameters
    ----------
    daemon:
        The scoring daemon to feed.  Must be quiescent (no background
        worker) — the ingestor owns the submit/apply cadence.  A new
        ingestor resumes from the newest position in the daemon's WAL,
        so point a restarted one at the same checkpoint.
    directory:
        Holds the dead-letter queue (``dlq.jsonl``).
    on_commit:
        Optional hook called after every committed window with
        ``(info, epoch)`` — ``info`` has the window bounds, the ids it
        consumed, and the running consumed-event count; ``epoch`` is
        the daemon epoch whose scores now include it.  Detection-
        latency probes (:mod:`repro.eval.latency`) attach here.
    """

    def __init__(
        self,
        daemon: ScoringDaemon,
        directory: PathLike,
        *,
        config: Optional[StreamConfig] = None,
        on_commit: Optional[Callable[[dict, object], None]] = None,
    ) -> None:
        self.daemon = daemon
        self.config = config if config is not None else StreamConfig()
        self.dlq = DeadLetterQueue(directory)
        self.on_commit = on_commit
        self._num_nodes = daemon.store.current.graph.num_nodes
        self._tracker = _IdTracker()
        self._windows: List[_Window] = []
        self._buffered_ids: set = set()
        self._sealed_until = 0
        self._next_start = 0
        self._cw = self.config.window
        self._max_ts = -1
        self._position = 0  # byte offset past the last line ingest_file read
        self._flooded = False
        # after a resume: source offset below which every line was
        # already decided, so ingest_file only refills the open windows
        self._refill_until: Optional[int] = None
        # counters (monotone over the stream, restored on resume)
        self.events_consumed = 0
        self.duplicates = 0
        self.late = 0
        self.malformed = 0
        self.windows_committed = 0
        self.windows_quarantined = 0
        self._resume()

    # ------------------------------------------------------------------
    # position
    # ------------------------------------------------------------------

    def _safe_offset(self) -> int:
        """Largest offset below which every source line is consumed."""
        offsets = [
            off
            for w in self._windows
            for (_ev, off) in w.events.values()
            if off is not None
        ]
        return min(offsets) if offsets else self._position

    def _checkpoint(self, window: _Window, ids: List[int]) -> dict:
        """The position a window's WAL record commits.

        Taken while the window is being sealed, after its ids are
        consumed: everything needed to pick the stream up right after
        it.  ``offset`` is where a resume re-reads from (the open
        windows' first line); lines before ``read`` were already
        decided.  The counters count this window as committed — the
        record is its commit.
        """
        return {
            "window": [window.start, window.end],
            "ids": ids,
            **self._tracker.as_dict(),
            "offset": self._safe_offset(),
            "read": self._position,
            "max_ts": self._max_ts,
            "next_start": self._next_start,
            "cw": self._cw,
            "flooded": self._flooded,
            "sealed_until": self._sealed_until,
            "windows": [[w.start, w.end] for w in self._windows],
            "counters": [
                self.events_consumed + len(ids),
                self.duplicates,
                self.late,
                self.malformed,
                self.windows_committed + 1,
                self.windows_quarantined,
            ],
        }

    def _resume(self) -> None:
        """Pick the stream up at the newest position in the daemon's
        WAL: its live segment's last record that carries one, else the
        segment header's (a re-anchor folded every record before it)."""
        wal = self.daemon.wal
        if wal is None:
            return
        records, _ = wal.recover(repair=False)
        records = [r for r in records if r.position is not None]
        if records:
            seq, pos = records[-1].seq, records[-1].position
        elif wal.base is not None and wal.base.position is not None:
            seq, pos = wal.base.seq, wal.base.position
        else:
            return
        self._tracker = _IdTracker(pos["wm"], pos["extra"])
        self._position = int(pos["offset"])
        self._refill_until = int(pos["read"])
        self._max_ts = int(pos["max_ts"])
        self._next_start = int(pos["next_start"])
        self._cw = int(pos["cw"])
        self._flooded = bool(pos["flooded"])
        self._sealed_until = int(pos["sealed_until"])
        self._windows = [_Window(int(s), int(e)) for s, e in pos["windows"]]
        (
            self.events_consumed,
            self.duplicates,
            self.late,
            self.malformed,
            self.windows_committed,
            self.windows_quarantined,
        ) = (int(c) for c in pos["counters"])
        # a crash between a window's submit and its apply leaves its
        # record pending in the daemon: apply it now
        applied = self.daemon.store.current.wal_seq
        pending = [
            (r.seq, tuple(r.position["window"]), r.position["ids"])
            for r in records
            if r.seq > applied
        ]
        tele = get_telemetry()
        if tele.enabled:
            tele.event(
                "stream.resumed",
                seq=seq,
                pending=len(pending),
                offset=self._position,
            )
        if pending:
            self._apply(pending)

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    @property
    def buffered(self) -> int:
        """Events sitting in open windows (accepted, not yet applied)."""
        return len(self._buffered_ids)

    @property
    def resume_offset(self) -> int:
        """Source byte offset a resumed ingest should seek to."""
        return self._position

    def ingest_line(self, raw: str, *, offset: Optional[int] = None) -> None:
        """Ingest one wire line; never raises on bad input (DLQ)."""
        raw = raw.strip()
        if not raw:
            return
        try:
            event = parse_event_line(raw, num_nodes=self._num_nodes)
        except StreamEventError as exc:
            self.malformed += 1
            self.dlq.append(
                exc.reason, detail=str(exc), line=raw, offset=offset
            )
            return
        if self._tracker.seen(event.id) or event.id in self._buffered_ids:
            self.duplicates += 1
            tele = get_telemetry()
            if tele.enabled:
                tele.inc("stream.duplicates")
            return
        if event.ts > self._max_ts:
            self._max_ts = event.ts
        if event.ts < self._sealed_until:
            # its window is gone; consume the id so a retransmit of the
            # same event is a duplicate, not a second DLQ entry
            self.late += 1
            self._tracker.consume(event.id)
            self.dlq.append(
                "late",
                detail=(
                    f"ts {event.ts} is before the sealed horizon "
                    f"{self._sealed_until}"
                ),
                line=raw,
                ids=[event.id],
                offset=offset,
            )
            self._seal_ready()
            return
        self._place(event, offset)
        self._flow_control()
        self._seal_ready()

    def ingest_file(self, path: PathLike) -> dict:
        """Ingest a JSONL stream file from the resume offset.

        Returns :meth:`stats`.  Call :meth:`flush` afterwards to seal
        the stream's tail windows (end-of-stream has no watermark).
        """
        path = Path(path)
        with open(path, "rb") as fh:
            fh.seek(self._position)
            while True:
                if (
                    self._refill_until is not None
                    and fh.tell() >= self._refill_until
                ):
                    # caught up with the resumed position: finish the
                    # sealing its window's record interrupted
                    self._refill_until = None
                    self._seal_ready()
                start = fh.tell()
                raw = fh.readline()
                if not raw:
                    break
                if not raw.endswith(b"\n"):
                    # torn final line of a still-growing file: leave it
                    # for the next pass rather than DLQ half a record
                    break
                self._position = fh.tell()
                line = raw.decode("utf-8", errors="replace")
                if self._refill_until is None:
                    self.ingest_line(line, offset=start)
                else:
                    self._refill(line, start)
        return self.stats()

    def _refill(self, raw: str, offset: int) -> None:
        """Re-place a line the resumed position had already decided.

        Only an event still buffered in an open window counts; no
        counter, DLQ entry, flow-control step or seal is repeated.
        """
        try:
            event = parse_event_line(raw.strip(), num_nodes=self._num_nodes)
        except StreamEventError:
            return
        seen = self._tracker.seen(event.id) or event.id in self._buffered_ids
        if not seen:
            self._place(event, offset)

    def flush(self) -> None:
        """Seal and commit every open window (end-of-stream)."""
        while self._windows:
            self._seal_oldest()
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge("stream.open_windows", 0)
            tele.set_gauge("stream.buffered", 0)

    def stats(self) -> dict:
        return {
            "events_consumed": self.events_consumed,
            "buffered": self.buffered,
            "duplicates": self.duplicates,
            "late": self.late,
            "malformed": self.malformed,
            "windows_committed": self.windows_committed,
            "windows_quarantined": self.windows_quarantined,
            "dlq_entries": len(self.dlq),
            "sealed_until": self._sealed_until,
            "effective_window": self._cw,
            "epoch": self.daemon.store.current.seq,
        }

    # ------------------------------------------------------------------
    # windowing
    # ------------------------------------------------------------------

    def _place(self, event: CrawlEvent, offset: Optional[int]) -> None:
        window = self._window_for(event.ts)
        window.events[event.id] = (event, offset)
        self._buffered_ids.add(event.id)

    def _window_for(self, ts: int) -> _Window:
        for window in self._windows:
            if window.start <= ts < window.end:
                return window
        if ts < self._next_start:
            # inside a gap an empty, already-sealed window once covered
            raise StreamError(
                f"event ts {ts} falls in no open window but before the "
                f"window frontier {self._next_start}"
            )
        guard = 0
        while True:
            window = _Window(self._next_start, self._next_start + self._cw)
            self._windows.append(window)
            self._next_start = window.end
            if ts < window.end:
                return window
            guard += 1
            if guard > 100_000:
                raise StreamError(
                    f"event ts {ts} is unreachably far past the window "
                    f"frontier; clock-skewed stream?"
                )

    def _flow_control(self) -> None:
        """Degrade window size under a flood; recover when it drains."""
        if self.buffered > FLOOD_THRESHOLD and self._cw > MIN_WINDOW:
            self._cw = max(MIN_WINDOW, self._cw // 2)
            self._flooded = True
            tele = get_telemetry()
            if tele.enabled:
                tele.inc("stream.floods")
                tele.event(
                    "stream.flood",
                    buffered=self.buffered,
                    effective_window=self._cw,
                )
        elif (
            self._flooded
            and self.buffered < FLOOD_THRESHOLD // 2
            and self._cw < self.config.window
        ):
            self._cw = min(self.config.window, self._cw * 2)
            if self._cw == self.config.window:
                self._flooded = False
            tele = get_telemetry()
            if tele.enabled:
                tele.event(
                    "stream.flood_recovered",
                    buffered=self.buffered,
                    effective_window=self._cw,
                )

    def _seal_ready(self) -> None:
        # flooded mode forfeits the lateness allowance: windows seal the
        # moment the max event time passes them, draining the buffer
        lateness = 0 if self._flooded else self.config.max_lateness
        watermark = self._max_ts - lateness
        while self._windows and self._windows[0].end <= watermark:
            self._seal_oldest()
        while len(self._windows) > MAX_PENDING_WINDOWS:
            self._seal_oldest()
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge("stream.open_windows", len(self._windows))
            tele.set_gauge("stream.buffered", self.buffered)

    def _seal_oldest(self) -> None:
        window = self._windows.pop(0)
        self._sealed_until = max(self._sealed_until, window.end)
        if not window.events:
            return
        self._commit_window(window)

    # ------------------------------------------------------------------
    # commit path
    # ------------------------------------------------------------------

    def _consume_window(self, window: _Window) -> List[int]:
        ids = sorted(window.events)
        for event_id in ids:
            self._tracker.consume(event_id)
            self._buffered_ids.discard(event_id)
        return ids

    def _quarantine_window(
        self, window: _Window, reason: str, detail: str
    ) -> None:
        ids = sorted(window.events)
        lines = [window.events[i][0].to_line() for i in ids]
        self._consume_window(window)
        self.events_consumed += len(ids)
        self.windows_quarantined += 1
        self.dlq.append(
            reason,
            detail=detail,
            lines=lines,
            ids=ids,
            window=(window.start, window.end),
        )
        tele = get_telemetry()
        if tele.enabled:
            tele.event(
                "stream.window_quarantined",
                reason=reason,
                start=window.start,
                end=window.end,
                events=len(ids),
            )

    def _commit_window(self, window: _Window) -> None:
        ids = sorted(window.events)
        events = [window.events[i][0] for i in ids]
        try:
            delta = compose_deltas(
                [
                    GraphDelta(
                        insertions=[(e.src, e.dst)] if e.op == "+" else (),
                        deletions=[(e.src, e.dst)] if e.op == "-" else (),
                    )
                    for e in events
                ]
            )
        except DeltaError as exc:
            self._quarantine_window(window, "poison-delta", str(exc))
            return
        self._consume_window(window)
        seq = None
        if len(delta):
            try:
                seq = self.daemon.submit_delta(
                    list(delta.insertions),
                    list(delta.deletions),
                    position=self._checkpoint(window, ids),
                )["seq"]
            except DeltaError as exc:
                # structurally poison against the accepted tip: the
                # submit validated before the WAL append, nothing is
                # durable
                self._quarantine_window(window, "poison-delta", str(exc))
                return
        # else the window cancelled itself out — nothing to apply
        self.events_consumed += len(ids)
        self.windows_committed += 1
        if seq is not None:
            self._apply([(seq, (window.start, window.end), ids)])

    def _apply(
        self, windows: List[Tuple[int, Tuple[int, int], List[int]]]
    ) -> None:
        """Apply the submitted windows, ``(seq, bounds, ids)`` each.

        The live path passes the window it just submitted, so a window
        both the warm and the cold solve reject is abandoned alone
        (its record is the only one pending) while the daemon keeps
        serving its current epoch.  A resume passes whatever records
        the daemon left pending; a failure among several drops them
        all.
        """
        self.daemon.apply_pending()
        dropped = set()
        if self.daemon.staleness:
            dropped = {r.seq for r in self.daemon.quarantine_pending()}
        epoch = self.daemon.store.current
        tele = get_telemetry()
        for seq, bounds, ids in windows:
            if seq in dropped:
                self.windows_committed -= 1
                self.windows_quarantined += 1
                self.dlq.append(
                    "apply-failed",
                    detail=(
                        "warm and cold re-estimates both failed; "
                        "window abandoned via quarantine_pending"
                    ),
                    ids=ids,
                    window=bounds,
                )
                continue
            if tele.enabled:
                tele.inc("stream.windows")
                tele.event(
                    "stream.window_committed",
                    start=bounds[0],
                    end=bounds[1],
                    events=len(ids),
                    epoch=epoch.seq,
                )
            if self.on_commit is not None:
                info = {
                    "window": bounds,
                    "ids": ids,
                    "events_consumed": self.events_consumed,
                    "last_id": ids[-1],
                }
                try:
                    self.on_commit(info, epoch)
                except Exception:  # noqa: BLE001 - observer containment
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamIngestor(consumed={self.events_consumed}, "
            f"open={len(self._windows)}, dlq={len(self.dlq)})"
        )
