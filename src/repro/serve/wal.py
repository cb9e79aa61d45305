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
One append-only segment, ``wal.jsonl``, one JSON record per line::

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

There is no apply watermark and no pruning.  The segment keeps every
delta since the world bundle, so the chain always links the bundle to
whatever snapshot the daemon saved; what is applied is what the
snapshot's fingerprint says (:func:`plan_replay`).

Crash anatomy
-------------
* **Crash mid-append**: the tail line is short or fails its CRC.
  Recovery truncates the segment back to the last good record (the
  un-acknowledged delta is simply gone, which is correct — the client
  never got an ack) and reports how many bytes were dropped.
* **Crash between apply and the next save**: the snapshot names some
  record's ``after`` inside the chain.  Replay walks the chain from its
  first record and skips every record up to that fingerprint, so
  applying the same segment twice is a no-op.
* **Corruption in the middle of the segment**: never tolerated —
  recovery raises :class:`~repro.errors.WalError` rather than silently
  skipping history (which would desynchronize the replay chain).
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
from ..obs import get_telemetry

__all__ = ["WalRecord", "DeltaWAL", "plan_replay"]

PathLike = Union[str, Path]

SEGMENT_FILENAME = "wal.jsonl"


def _payload_crc(
    seq: int, parent: str, after: str, ins, dels, pos: Optional[dict]
) -> int:
    """CRC-32 of the canonical record payload (everything but the crc)."""
    payload = [seq, parent, after, ins, dels]
    if pos is not None:
        payload.append(pos)
    canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return zlib.crc32(canonical.encode("utf-8"))


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
        Log directory; created on first append.  Holds the segment
        (``wal.jsonl``).
    fsync:
        Whether appends fsync before acknowledging (the default; tests
        that simulate torn writes turn it off to control the file tail
        byte-exactly).
    """

    def __init__(self, directory: PathLike, *, fsync: bool = True) -> None:
        self.directory = Path(directory)
        self.fsync = fsync
        self._last_seq: Optional[int] = None
        # serializes append/recover/cut on the one segment file
        self._mutex = threading.RLock()

    @property
    def segment_path(self) -> Path:
        return self.directory / SEGMENT_FILENAME

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
                records, _ = self.recover(repair=False)
                self._last_seq = records[-1].seq if records else 0
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
            with open(self.segment_path, "a", encoding="utf-8") as fh:
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
        """Scan the segment; returns ``(records, dropped_bytes)``.

        A torn *tail* — a final line that is incomplete, unparsable or
        fails its CRC — is expected after a crash mid-append: the tail
        is dropped and, when ``repair`` is true, the segment file is
        truncated back to the last good record.  Corruption *before*
        the last line raises :class:`~repro.errors.WalError`: skipping
        interior history would silently desynchronize the delta chain.
        """
        with self._mutex:
            path = self.segment_path
            if not path.exists():
                return [], 0
            raw = path.read_bytes()
            records, ends = self._scan(raw)
            good_end = ends[-1] if ends else 0
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
            self._last_seq = records[-1].seq if records else 0
            return records, dropped

    def cut(self, seq: int) -> None:
        """Drop record ``seq`` and every later one (truncate, fsync).

        The next append reuses ``seq``, so the segment stays gap-free
        and its fingerprint chain links as before the cut records were
        appended.
        """
        with self._mutex:
            records, ends = self._scan(self.segment_path.read_bytes())
            keep = sum(1 for record in records if record.seq < seq)
            self._truncate(ends[keep - 1] if keep else 0)
            self._last_seq = records[keep - 1].seq if keep else 0

    def _scan(self, raw: bytes) -> Tuple[List[WalRecord], List[int]]:
        """Parse ``raw``; returns the good records and each one's end
        offset (a torn last line is left out)."""
        records: List[WalRecord] = []
        ends: List[int] = []
        offset = 0
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
            if records and record.seq != records[-1].seq + 1:
                raise WalError(
                    f"{self.segment_path}: sequence gap "
                    f"({records[-1].seq} -> {record.seq}); refusing to "
                    "replay"
                )
            records.append(record)
            ends.append(end)
            offset = end
        return records, ends

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
    records: List[WalRecord], fingerprint: str
) -> List[WalRecord]:
    """Which records still need applying onto a snapshot at ``fingerprint``.

    Walks the chained fingerprints of ``records`` (each record's
    ``parent`` must equal its predecessor's ``after``) and locates the
    snapshot inside the chain: records *before* that point were already
    folded into the snapshot and are skipped; records after it are
    returned in order.  This is what makes replay idempotent —
    replaying a fully-applied segment returns an empty plan.

    Raises
    ------
    WalError
        The chain is discontinuous, or ``fingerprint`` appears nowhere
        in it (the snapshot and the log tell different histories).
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
