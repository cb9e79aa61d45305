"""Crash-safe write-ahead log for accepted-but-unapplied graph deltas.

The serving daemon acknowledges an ingest request the moment the delta
is durable, not the moment it is applied — applying means a warm
re-estimate, which takes orders of magnitude longer than an fsync and
may be deferred behind a queue of earlier batches.  The WAL is the
durability contract: a delta that was acknowledged survives any crash
between acceptance and apply, and replaying the log after a restart
reconverges to bitwise-identical scores (the push update is
deterministic given the same base solution and the same delta chain).

Format
------
Append-only segments, one JSON record per line::

    {"seq": 3, "parent": "<fp>", "after": "<fp>", "ins": [[u, v], ...],
     "dels": [[u, v], ...], "pos": {...}, "crc": 123456}

``parent``/``after`` are the structural fingerprints of the graph
before and after the delta (``after`` is derived in O(|delta|) via
:meth:`~repro.graph.delta.GraphDelta.derive_fingerprint` — the
commutative edge digest).  ``pos`` is optional and opaque to the log:
the stream ingestor's source position after the window this delta
compacts (:class:`~repro.serve.stream.StreamIngestor` resumes from the
newest one), so one record is a window's only commit point.  ``crc``
is a zlib CRC-32 over the canonical payload, ``pos`` included; every
append is flushed and fsynced before the record is acknowledged.

The first segment, ``wal.jsonl``, starts at the world bundle (seq 0).
A later one, ``wal-<seq>.jsonl``, starts at an *anchor*: the graph
after record ``seq``, which the daemon wrote beside its solution
snapshot (:meth:`rebase`).  Its first line is a header carrying that
record's ``seq``, ``after`` fingerprint and newest ``pos``, plus the
``origin`` fingerprint of the world bundle the history started at::

    {"base": 64, "after": "<fp>", "origin": "<fp>", "pos": {...},
     "crc": 123456}

so the header is the commit point of the records folded into the
anchor.  The live segment is the one with the highest base; records
continue its seq.  Every
:data:`~repro.serve.daemon.ANCHOR_EVERY` applies the daemon writes an
anchor, starts a segment based on it (carrying the records still
pending) and deletes the older segments, so a restart replays at most
that many records onto the newest anchor.  What is applied is what the
snapshot's ``wal_seq`` says (:func:`plan_replay`).

Crash anatomy
-------------
* **Crash mid-append**: the tail line is short or fails its CRC.
  Recovery truncates the segment back to the last good record (the
  un-acknowledged delta is simply gone, which is correct — the client
  never got an ack) and reports how many bytes were dropped.
* **Crash between apply and the next save**: the snapshot names the
  last record folded into it, by its ``wal_seq`` (a snapshot that
  ``estimate`` wrote has none, and is found by fingerprint instead).
  Replay skips every record up to that one, so applying the same
  segment twice is a no-op.
* **Corruption in the middle of the segment**: never tolerated —
  recovery raises :class:`~repro.errors.WalError` rather than silently
  skipping history (which would desynchronize the replay chain).  A
  header that does not read clean is corruption too: segments are
  written whole to a temporary file and renamed into place.
* **Crash during a re-anchor**: after the anchor is written the old
  segment is still live and holds the anchor's record; after the new
  segment is renamed into place both segments exist and the newer is
  live; after the old one is deleted only the new one is left.  Every
  one of these states restarts at the snapshot (the superseded
  segment is deleted at the next re-anchor).
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..errors import WalError
from ..graph.delta import GraphDelta
from ..graph.io import fsync_directory
from ..obs import get_telemetry

__all__ = ["WalRecord", "WalBase", "DeltaWAL", "plan_replay"]

PathLike = Union[str, Path]

SEGMENT_FILENAME = "wal.jsonl"
#: A segment based on an anchor: ``wal-<base seq>.jsonl``.
_BASED_PREFIX, _BASED_SUFFIX = "wal-", ".jsonl"


def _payload_crc(
    seq: int, parent: str, after: str, ins, dels, pos: Optional[dict]
) -> int:
    """CRC-32 of the canonical record payload (everything but the crc)."""
    payload = [seq, parent, after, ins, dels]
    if pos is not None:
        payload.append(pos)
    canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return zlib.crc32(canonical.encode("utf-8"))


def _base_crc(seq: int, after: str, origin: str, pos: Optional[dict]) -> int:
    """CRC-32 of a segment header's canonical payload."""
    payload = [seq, after, origin]
    if pos is not None:
        payload.append(pos)
    canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return zlib.crc32(canonical.encode("utf-8"))


class WalBase:
    """Where a segment based on an anchor starts: the ``seq``, ``after``
    fingerprint and newest ``position`` of the last record folded into
    the anchor, and the ``origin`` fingerprint of the world bundle the
    history started at."""

    __slots__ = ("seq", "after", "origin", "position")

    def __init__(
        self, seq: int, after: str, origin: str,
        position: Optional[dict] = None,
    ) -> None:
        self.seq = seq
        self.after = after
        self.origin = origin
        self.position = position

    def line(self) -> bytes:
        header = {"base": self.seq, "after": self.after,
                  "origin": self.origin}
        if self.position is not None:
            header["pos"] = self.position
        header["crc"] = _base_crc(
            self.seq, self.after, self.origin, self.position
        )
        return (json.dumps(header, separators=(",", ":")) + "\n").encode()

    @staticmethod
    def parse(line: bytes) -> Optional["WalBase"]:
        """The header on ``line``, or ``None`` if it does not read clean."""
        if not line.endswith(b"\n"):
            return None
        try:
            data = json.loads(line)
            seq = int(data["base"])
            after = str(data["after"])
            origin = str(data["origin"])
            pos = data.get("pos")
            crc = int(data["crc"])
        except (ValueError, KeyError, TypeError):
            return None
        if crc != _base_crc(seq, after, origin, pos):
            return None
        return WalBase(seq, after, origin, pos)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WalBase(seq={self.seq})"


class WalRecord:
    """One durable delta: its sequence number, fingerprint chain and
    the optional ingestor position it commits."""

    __slots__ = ("seq", "parent", "after", "insertions", "deletions",
                 "position")

    def __init__(
        self,
        seq: int,
        parent: str,
        after: str,
        insertions: List[Tuple[int, int]],
        deletions: List[Tuple[int, int]],
        position: Optional[dict] = None,
    ) -> None:
        self.seq = seq
        self.parent = parent
        self.after = after
        self.insertions = [(int(u), int(v)) for u, v in insertions]
        self.deletions = [(int(u), int(v)) for u, v in deletions]
        self.position = position

    def delta(self) -> GraphDelta:
        """Materialize the :class:`GraphDelta` this record carries."""
        return GraphDelta(self.insertions, self.deletions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WalRecord(seq={self.seq}, +{len(self.insertions)}, "
            f"-{len(self.deletions)})"
        )


class DeltaWAL:
    """Append-only delta log with torn-tail recovery.

    Parameters
    ----------
    directory:
        Log directory; created on first append.  Holds the segments
        (``wal.jsonl``, then ``wal-<seq>.jsonl`` after re-anchors).
    fsync:
        Whether appends fsync before acknowledging (the default; tests
        that simulate torn writes turn it off to control the file tail
        byte-exactly).

    Constructing a log and recovering an empty one touch no file.
    """

    def __init__(self, directory: PathLike, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.fsync = fsync
        self._last_seq: Optional[int] = None
        #: ``(base seq, path)`` of the live segment, once looked up
        self._segment: Optional[Tuple[int, Path]] = None
        #: the live segment's header (``None``: it starts at the world)
        self.base: Optional[WalBase] = None
        # serializes append/recover/cut/rebase on the segment files
        self._mutex = threading.RLock()

    @property
    def segment_path(self) -> Path:
        """The live segment: the one appends go to."""
        with self._mutex:
            return self._live()[1]

    @property
    def base_seq(self) -> int:
        """Seq of the last record folded into the live segment's
        anchor (0 for the first segment)."""
        with self._mutex:
            return self._live()[0]

    def _segments(self) -> List[Tuple[int, Path]]:
        """Every segment file as ``(base seq, path)``, oldest first."""
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            return []
        segments = []
        for name in names:
            if name == SEGMENT_FILENAME:
                segments.append((0, self.directory / name))
            elif name.startswith(_BASED_PREFIX) and name.endswith(
                _BASED_SUFFIX
            ):
                digits = name[len(_BASED_PREFIX):-len(_BASED_SUFFIX)]
                if digits.isdigit():
                    segments.append((int(digits), self.directory / name))
        return sorted(segments)

    def _live(self) -> Tuple[int, Path]:
        if self._segment is None:
            segments = self._segments()
            self._segment = (
                segments[-1] if segments
                else (0, self.directory / SEGMENT_FILENAME)
            )
        return self._segment

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append(
        self,
        delta: GraphDelta,
        *,
        parent: str,
        after: str,
        position: Optional[dict] = None,
    ) -> WalRecord:
        """Durably append one delta; returns the record (with its seq).

        The caller supplies the fingerprint chain — ``parent`` is the
        fingerprint of the graph the delta applies to, ``after`` the
        derived fingerprint of the result — so replay can dedupe and
        divergence-check without re-deriving anything.  ``position``
        (any JSON object) is stored in the record under its CRC.
        """
        with self._mutex:
            self.directory.mkdir(parents=True, exist_ok=True)
            if self._last_seq is None:
                self.recover(repair=False)
            seq = self._last_seq + 1
            ins = [[int(u), int(v)] for u, v in delta.insertions]
            dels = [[int(u), int(v)] for u, v in delta.deletions]
            record = {
                "seq": seq,
                "parent": parent,
                "after": after,
                "ins": ins,
                "dels": dels,
            }
            if position is not None:
                record["pos"] = position
            record["crc"] = _payload_crc(
                seq, parent, after, ins, dels, position
            )
            line = json.dumps(record, separators=(",", ":")) + "\n"
            with open(self._live()[1], "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            self._last_seq = seq
        tele = get_telemetry()
        if tele.enabled:
            tele.inc("serve.wal.appends")
            tele.event(
                "serve.wal_append",
                seq=seq,
                insertions=len(ins),
                deletions=len(dels),
            )
        return WalRecord(seq, parent, after, ins, dels, position)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self, *, repair: bool = True) -> Tuple[List[WalRecord], int]:
        """Scan the live segment; returns ``(records, dropped_bytes)``.

        A torn *tail* — a final line that is incomplete, unparsable or
        fails its CRC — is expected after a crash mid-append: the tail
        is dropped and, when ``repair`` is true, the segment file is
        truncated back to the last good record.  Corruption *before*
        the last line raises :class:`~repro.errors.WalError`: skipping
        interior history would silently desynchronize the delta chain.
        The live segment's header, if it has one, is left in
        :attr:`base`.
        """
        with self._mutex:
            self._segment = None
            base_seq, path = self._live()
            if not path.exists():
                self.base = None
                self._last_seq = base_seq
                return [], 0
            raw = path.read_bytes()
            head, records, ends, head_end = self._scan(raw, base_seq)
            good_end = ends[-1] if ends else head_end
            dropped = len(raw) - good_end
            if repair and dropped:
                self._truncate(good_end)
                tele = get_telemetry()
                if tele.enabled:
                    tele.inc("serve.wal.torn_tails")
                    tele.event(
                        "serve.wal_truncated",
                        dropped_bytes=dropped,
                        kept_records=len(records),
                    )
            self.base = head
            self._last_seq = records[-1].seq if records else base_seq
            return records, dropped

    def cut(self, seq: int) -> None:
        """Drop record ``seq`` and every later one (truncate, fsync).

        The next append reuses ``seq``, so the segment stays gap-free
        and its fingerprint chain links as before the cut records were
        appended.
        """
        with self._mutex:
            base_seq, path = self._live()
            _, records, ends, head_end = self._scan(
                path.read_bytes(), base_seq
            )
            keep = sum(1 for record in records if record.seq < seq)
            self._truncate(ends[keep - 1] if keep else head_end)
            self._last_seq = records[keep - 1].seq if keep else base_seq

    # ------------------------------------------------------------------
    # re-anchoring
    # ------------------------------------------------------------------

    def rebase(self, seq: int, after: str) -> Path:
        """Start a segment based on an anchor of the graph after record
        ``seq`` (fingerprint ``after``); returns its path.

        The new segment's header carries ``seq``, ``after``, the newest
        position folded into the anchor and the history's origin; the
        live segment's records after ``seq`` (still pending) follow it
        byte for byte.  It is written to a temporary file, fsynced and
        renamed into place, and from then on it is the live segment.
        The older segments stay until :meth:`drop_superseded`.
        """
        with self._mutex:
            base_seq, old = self._live()
            raw = old.read_bytes() if old.exists() else b""
            head, records, ends, _ = self._scan(raw, base_seq)
            folded = [record for record in records if record.seq <= seq]
            if not folded or folded[-1].seq != seq or (
                folded[-1].after != after
            ):
                raise WalError(
                    f"{old}: cannot re-anchor at seq {seq} "
                    f"(fingerprint {after!r}): no such record"
                )
            positions = [r.position for r in folded if r.position is not None]
            base = WalBase(
                seq,
                after,
                head.origin if head is not None else folded[0].parent,
                positions[-1] if positions else (
                    head.position if head is not None else None
                ),
            )
            carried = raw[ends[len(folded) - 1]:ends[-1]]
            path = self.directory / f"{_BASED_PREFIX}{seq:012d}{_BASED_SUFFIX}"
            tmp = path.with_name(path.name + ".tmp")
            try:
                with open(tmp, "wb") as fh:
                    fh.write(base.line())
                    fh.write(carried)
                    fh.flush()
                    if self.fsync:
                        os.fsync(fh.fileno())
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
            self._segment = (seq, path)
            self.base = base
            if self.fsync:
                fsync_directory(self.directory)
        tele = get_telemetry()
        if tele.enabled:
            tele.inc("serve.wal.rebases")
            tele.event(
                "serve.wal_rebased",
                seq=seq,
                carried=len(records) - len(folded),
            )
        return path

    def drop_superseded(self) -> int:
        """Delete the segments older than the live one; returns how
        many."""
        with self._mutex:
            live = self._live()[0]
            old = [path for base, path in self._segments() if base < live]
            for path in old:
                path.unlink(missing_ok=True)
            if old and self.fsync:
                fsync_directory(self.directory)
            return len(old)

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------

    def _scan(
        self, raw: bytes, base_seq: int
    ) -> Tuple[Optional[WalBase], List[WalRecord], List[int], int]:
        """Parse a segment based at ``base_seq``; returns its header,
        the good records, each one's end offset (a torn last line is
        left out) and where the header ends."""
        head, offset = None, 0
        if base_seq:
            newline = raw.find(b"\n")
            head = WalBase.parse(raw[:newline + 1]) if newline >= 0 else None
            if head is None or head.seq != base_seq:
                raise WalError(
                    f"{self.segment_path}: the segment header does not "
                    "read clean; refusing to replay"
                )
            offset = newline + 1
        head_end = offset
        records: List[WalRecord] = []
        ends: List[int] = []
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            end = len(raw) if newline < 0 else newline + 1
            record = self._parse_line(raw[offset:end])
            if record is None:
                if end < len(raw):
                    raise WalError(
                        f"{self.segment_path}: corrupt record at byte "
                        f"{offset} with further records after it — the "
                        "log and its history disagree; refusing to replay"
                    )
                break
            previous = records[-1].seq if records else (
                base_seq if head is not None else None
            )
            if previous is not None and record.seq != previous + 1:
                raise WalError(
                    f"{self.segment_path}: sequence gap "
                    f"({previous} -> {record.seq}); refusing to "
                    "replay"
                )
            records.append(record)
            ends.append(end)
            offset = end
        return head, records, ends, head_end

    def _truncate(self, size: int) -> None:
        with open(self.segment_path, "r+b") as fh:
            fh.truncate(size)
            if self.fsync:
                os.fsync(fh.fileno())

    @staticmethod
    def _parse_line(line: bytes) -> Optional[WalRecord]:
        """Parse one segment line; ``None`` for a torn/corrupt record."""
        if not line.endswith(b"\n"):
            return None
        try:
            data = json.loads(line)
            seq = int(data["seq"])
            parent = str(data["parent"])
            after = str(data["after"])
            ins = [(int(u), int(v)) for u, v in data["ins"]]
            dels = [(int(u), int(v)) for u, v in data["dels"]]
            pos = data.get("pos")
            crc = int(data["crc"])
        except (ValueError, KeyError, TypeError):
            return None
        if crc != _payload_crc(
            seq, parent, after,
            [[u, v] for u, v in ins], [[u, v] for u, v in dels], pos,
        ):
            return None
        return WalRecord(seq, parent, after, ins, dels, pos)


def plan_replay(
    records: List[WalRecord], fingerprint: str, seq: Optional[int] = None
) -> List[WalRecord]:
    """Which records still need applying onto a snapshot at ``fingerprint``.

    Walks the chained fingerprints of ``records`` (each record's
    ``parent`` must equal its predecessor's ``after``) and locates the
    snapshot inside the chain: records *before* that point were already
    folded into the snapshot and are skipped; records after it are
    returned in order.  This is what makes replay idempotent —
    replaying a fully-applied segment returns an empty plan.

    ``seq`` is the snapshot's WAL position, the seq of the last record
    folded into it, which every daemon save records: the snapshot sits
    right after that record (or before the first record, for the seq
    preceding it), and that record's ``after`` must be ``fingerprint``.
    Without it (a snapshot ``estimate`` or ``update`` wrote), the
    snapshot sits after the first record whose ``after`` is
    ``fingerprint``, or before every record if the first one's
    ``parent`` is; a graph that recurs in the chain makes that guess
    wrong, which is why the daemon records the seq.

    Raises
    ------
    WalError
        The chain is discontinuous, ``fingerprint`` appears nowhere in
        it (the snapshot and the log tell different histories), or the
        record at ``seq`` is missing or does not end at
        ``fingerprint``.
    """
    if not records:
        return []
    for i in range(1, len(records)):
        if records[i].parent != records[i - 1].after:
            raise WalError(
                f"wal chain broken between seq {records[i - 1].seq} "
                f"(after {records[i - 1].after!r}) and seq "
                f"{records[i].seq} (parent {records[i].parent!r})"
            )
    if seq is not None:
        at = seq - records[0].seq + 1  # records[:at] are folded
        if 0 <= at <= len(records) and fingerprint == (
            records[at - 1].after if at else records[0].parent
        ):
            return list(records[at:])
        raise WalError(
            f"solution snapshot at wal seq {seq} (fingerprint "
            f"{fingerprint!r}) is not where the {len(records)}-record "
            f"wal chain (seq {records[0].seq} to {records[-1].seq}) "
            "puts that seq; the log belongs to a different history"
        )
    if records[0].parent == fingerprint:
        return list(records)
    for i, record in enumerate(records):
        if record.after == fingerprint:
            return list(records[i + 1:])
    raise WalError(
        f"snapshot fingerprint {fingerprint!r} matches neither the base "
        f"nor any applied prefix of the {len(records)}-record wal chain "
        f"(base parent {records[0].parent!r}); the log belongs to a "
        "different history"
    )
