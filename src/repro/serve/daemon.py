"""The always-on scoring daemon: queries over epochs, ingest over WAL.

This is the long-lived process the paper's deployment story implies
(Section 5: a search engine re-ranking a churning host graph
continuously) and the ROADMAP names directly.  One
:class:`ScoringDaemon` owns:

* an :class:`~repro.serve.epoch.EpochStore` — queries (``score``,
  ``top``, ``explain``) answer entirely from the current immutable
  epoch, lock-free;
* a :class:`~repro.serve.wal.DeltaWAL` — an accepted delta is fsynced
  to the log *before* it is acknowledged, so a crash never loses an
  acked batch;
* a background ingest worker — pops accepted deltas in order, runs
  one warm re-estimate that falls back once to a cold solve
  (:mod:`repro.serve.ingest`), verifies the result against the delta
  chain's derived fingerprint, and hot-swaps the next epoch;
* a :class:`CircuitBreaker` on the ingest path — consecutive apply
  failures (or a staleness bound overrun) flip the service to
  *degraded*: reads keep flowing from the current epoch with an
  explicit ``staleness`` field, ingest is refused, and the worker
  keeps retrying until the path heals.

Between windows the write path holds the operator once: the daemon's
engine caches one :class:`~repro.perf.cache.OperatorBundle`
(:data:`OPERATOR_BUNDLES`), the tip's ``(Tᵀ)_SS``/``(Tᵀ)_DS``.  Each
apply splices the next graph's bundle from it and the new one replaces
it; a retried apply finds the bundle it already spliced, and the apply
after :meth:`ScoringDaemon.quarantine_pending`, whose parent is no
longer cached, builds cold once.

Every :data:`ANCHOR_EVERY` applied records the daemon re-anchors: it
writes the tip's graph as an anchor beside the solution snapshot
(``anchor.npz``), starts a WAL segment based on it
(:meth:`~repro.serve.wal.DeltaWAL.rebase`, which carries the records
still pending) and deletes the older segments.  Each step is atomic,
and a step that fails leaves the previous state live for the next
apply to retry.

Restart is replay: the WAL is recovered (torn tail truncated), the
newest anchor on the live segment's chain at or before the snapshot —
the daemon's, or the world bundle for the first segment — is
fast-forwarded structurally, in one composed splice, through the
records the loaded solution snapshot already holds (located by its
fingerprint, so apply-then-crash never double-applies), and the
pending suffix is
re-applied — deterministically, so the scores after replay are
bitwise-identical to the ones a crash interrupted.  A restart thus
replays at most :data:`ANCHOR_EVERY` records plus the pending ones,
however long the daemon ran.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..core.mass import MassEstimates, mass_jump_block
from ..errors import GraphFormatError, SnapshotMismatchError, WalError
from ..graph import GraphDelta, read_graph_bundle, read_host_list
from ..graph.delta import (
    DeltaApplication,
    compose_applications,
    compose_deltas,
)
from ..graph.io import read_anchor, write_anchor
from ..obs import get_telemetry
from ..runtime.checkpoint import load_solution
from .epoch import (
    Epoch,
    EpochStore,
    core_nodes,
    score_from_epoch,
    top_from_epoch,
)
from .ingest import reestimate, save_estimates, snapshot_estimates
from .wal import DeltaWAL, WalRecord, plan_replay

__all__ = ["CircuitBreaker", "DaemonConfig", "ScoringDaemon"]

PathLike = Union[str, Path]

#: Operator bundles the daemon's own engine caches: the tip's.  An
#: apply derives the next graph's operator from it, and a retried
#: apply finds its own already derived.  After
#: :meth:`ScoringDaemon.quarantine_pending` the cached bundle is the
#: dropped delta's graph's, so the next apply builds cold once.  A
#: bundle holds the operator once, ~76 MB at 1M hosts.
OPERATOR_BUNDLES = 1

#: Applied records between the daemon's anchors.  At 1M hosts an
#: anchor (stored archive, fsynced) takes ~0.1 s against ~0.9 s per
#: stream window, 0.2% amortized at 64, and a restart folds at most
#: this many records into one splice onto the anchor.  A module
#: constant, not an option.
ANCHOR_EVERY = 64

#: The daemon's anchor, beside the solution snapshot.
ANCHOR_FILENAME = "anchor.npz"


@dataclass(frozen=True)
class DaemonConfig:
    """Operational knobs of one daemon instance.

    ``rho``/``tau`` are the Algorithm 2 thresholds used by ``top``
    queries; they must be finite.  Damping and γ are not configured
    here: they come from the solution the daemon starts from.

    ``batch_deltas`` bounds how many queued deltas one apply may
    coalesce: the worker drains up to that many from the queue head,
    composes them into a single splice (net edge set — opposing
    insert/delete pairs cancel), and runs ONE warm re-estimate for the
    whole batch.  The default of 1 preserves the one-record-per-epoch
    behaviour; the WAL chain is unchanged either way (every record is
    still fsynced and acked individually), only epoch cadence changes.
    It is for ``serve``, whose queue holds client deltas in numbers the
    daemon does not choose: a :class:`~repro.serve.stream.StreamIngestor`
    applies each window in the call that submits it, so at most one
    delta waits and neither ``batch_deltas`` nor ``max_staleness``
    changes a bit there.
    """

    rho: float = 10.0
    tau: float = 0.98
    max_staleness: int = 8
    circuit_threshold: int = 3
    retry_interval: float = 0.05
    batch_deltas: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho) and math.isfinite(self.tau)):
            raise ValueError(
                f"rho and tau must be finite, got {self.rho}, {self.tau}"
            )
        if self.max_staleness < 1:
            raise ValueError("max_staleness must be >= 1")
        if self.batch_deltas < 1:
            raise ValueError("batch_deltas must be >= 1")
        if self.circuit_threshold < 1:
            raise ValueError("circuit_threshold must be >= 1")
        if self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")


class CircuitBreaker:
    """Opens after ``threshold`` *consecutive* failures; success resets.

    Deliberately minimal: no half-open probing, and ``opened`` stays
    set once tripped.  The daemon replaces its breaker when the ingest
    path heals: after any successful apply, or an operator quarantine.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.consecutive_failures = 0
        self.opened = False

    def record_success(self) -> None:
        self.consecutive_failures = 0

    def record_failure(self) -> bool:
        """Count a failure; returns True when this one opened the
        circuit (exactly once)."""
        self.consecutive_failures += 1
        if not self.opened and self.consecutive_failures >= self.threshold:
            self.opened = True
            return True
        return False

    @property
    def is_open(self) -> bool:
        return self.opened

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.opened else "closed"
        return (
            f"CircuitBreaker({state}, "
            f"{self.consecutive_failures}/{self.threshold})"
        )


class _Pending:
    """One accepted-but-unapplied delta: WAL record + CSR application."""

    __slots__ = ("record", "application")

    def __init__(
        self, record: WalRecord, application: DeltaApplication
    ) -> None:
        self.record = record
        self.application = application


class ScoringDaemon:
    """Loads a solution snapshot and serves/ingests until closed.

    Build one with :meth:`load` (the CLI path) or directly from
    in-memory objects (tests).  Queries are thread-safe and lock-free;
    :meth:`submit_delta` and the ingest worker serialize on one lock.
    """

    def __init__(
        self,
        graph,
        core: np.ndarray,
        estimates: MassEstimates,
        *,
        checkpoint_dir: Optional[PathLike] = None,
        wal: Optional[DeltaWAL] = None,
        config: Optional[DaemonConfig] = None,
        engine=None,
        chaos=None,
        clock: Callable[[], float] = time.monotonic,
        initial_wal_seq: int = 0,
    ) -> None:
        self.config = config if config is not None else DaemonConfig()
        self.core = np.asarray(core, dtype=np.int64)
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self.wal = wal
        self.chaos = chaos
        self._clock = clock
        if engine is None:
            from ..perf import PagerankEngine

            engine = PagerankEngine(OPERATOR_BUNDLES)
        self.engine = engine
        self.store = EpochStore(
            Epoch(0, graph, estimates, wal_seq=initial_wal_seq)
        )
        #: tip of the *accepted* chain (last pending graph, or the
        #: current epoch's); submit validates and fingerprints against it
        self._tail = graph
        self._pending: "deque[_Pending]" = deque()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._breaker = CircuitBreaker(self.config.circuit_threshold)
        self._degraded_reason: Optional[str] = None
        self._stop = False
        self._worker: Optional[threading.Thread] = None
        self.applies = 0
        self.apply_failures = 0
        self.degraded_applies = 0
        #: the mass estimate's jump vectors, built at the first apply
        self._jumps: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def load(
        cls,
        world_dir: PathLike,
        checkpoint_dir: PathLike,
        *,
        core_path: Optional[PathLike] = None,
        wal_dir: Optional[PathLike] = None,
        config: Optional[DaemonConfig] = None,
        engine=None,
        chaos=None,
    ) -> "ScoringDaemon":
        """Load the bundle + snapshot + WAL; enqueue the replay suffix.

        The solution snapshot need not match the *bundle's* fingerprint
        — a daemon that applied deltas and crashed left a snapshot at
        some point *inside* the WAL chain.  The chain is the arbiter:
        the snapshot's stored fingerprint must be where the live
        segment starts (the bundle, or the anchor its header names) or
        reachable from there through the segment's applied prefix
        (:class:`~repro.errors.SnapshotMismatchError` otherwise — the
        operator pointed the daemon at the wrong world).  A daemon's
        snapshot records the seq of the last record folded into it
        (``wal_seq``), which places it in the chain exactly, and that
        record must end at the snapshot's fingerprint
        (:class:`~repro.errors.WalError` otherwise); one without it
        (``estimate --checkpoint-dir``) is placed at the first point of
        the chain with its fingerprint.  The newest
        anchor on that chain at or before the snapshot is
        fast-forwarded through the rest of the prefix structurally (no
        re-estimation — the snapshot already has the scores), and the
        unapplied suffix is enqueued for the worker (or
        :meth:`apply_pending`).
        """
        config = config if config is not None else DaemonConfig()
        graph, _, _ = read_graph_bundle(world_dir)
        if core_path is None:
            core_path = Path(world_dir) / "core.hosts"
        core = core_nodes(graph, read_host_list(core_path))
        snapshot = load_solution(checkpoint_dir)
        base_fp = graph.structural_fingerprint()
        stored_fp = str(snapshot.meta.get("fingerprint", "")) or base_fp
        wal = DeltaWAL(
            wal_dir if wal_dir is not None else Path(checkpoint_dir) / "wal"
        )
        records, dropped = wal.recover()
        head = wal.base
        if head is not None and head.origin != base_fp:
            raise SnapshotMismatchError(
                f"the wal segment {wal.segment_path} continues a history "
                f"that began at fingerprint {head.origin!r}, not at the "
                f"world bundle (fingerprint {base_fp!r}); the daemon is "
                "pointed at the wrong world",
                expected=base_fp,
                actual=head.origin,
            )
        start_seq, start_fp = (
            (head.seq, head.after) if head is not None else (0, base_fp)
        )
        # a daemon's snapshot names the last record it folds in; one
        # that estimate wrote is placed by its fingerprint
        wal_seq = snapshot.meta.get("wal_seq")
        todo = plan_replay(
            records, stored_fp, None if wal_seq is None else int(wal_seq)
        )
        prefix = records[: len(records) - len(todo)]
        if (prefix[0].parent if prefix else stored_fp) != start_fp:
            raise SnapshotMismatchError(
                f"solution snapshot {snapshot.path} (fingerprint "
                f"{stored_fp!r}) belongs to neither the world bundle "
                f"(fingerprint {base_fp!r}) nor any delta chain the "
                "wal can replay from it; the daemon is pointed at "
                "the wrong world or the wal is not the one it wrote",
                expected=start_fp,
                actual=stored_fp,
            )
        # fingerprint at each seq of the chain, up to the snapshot
        chain = {start_seq: start_fp}
        chain.update((record.seq, record.after) for record in prefix)
        anchor = Path(checkpoint_dir) / ANCHOR_FILENAME
        try:
            tip, meta = read_anchor(
                anchor,
                check=lambda meta: chain.get(meta.get("seq"))
                == meta.get("fingerprint"),
            )
            graph, start_seq = tip.with_names(graph.names), int(meta["seq"])
        except GraphFormatError as exc:
            if head is not None:
                raise WalError(
                    f"the wal segment {wal.segment_path} starts at seq "
                    f"{head.seq} from the anchor {anchor}, which is "
                    f"unusable ({exc})"
                ) from exc
        # reconstruct the snapshot-point graph structurally: the records
        # after the start compose into one splice, which gives the CSR
        # their chain of splices gives, bit for bit, for the cost of one
        # (~25 ms at 1M hosts)
        folded = [r.delta() for r in prefix if r.seq > start_seq]
        if folded:
            graph = compose_deltas(folded).apply(graph).after
        if graph.structural_fingerprint() != stored_fp:
            raise WalError(
                "wal prefix replays to fingerprint "
                f"{graph.structural_fingerprint()!r}, but the "
                f"snapshot claims {stored_fp!r}"
            )
        daemon = cls(
            graph,
            core,
            snapshot_estimates(snapshot),
            checkpoint_dir=checkpoint_dir,
            wal=wal,
            config=config,
            engine=engine,
            chaos=chaos,
            # the restored epoch sits at the end of the applied prefix;
            # stamp its true WAL position, not 0
            initial_wal_seq=(prefix[-1].seq if prefix else start_seq),
        )
        daemon._enqueue_replay(records, todo, dropped, len(folded))
        return daemon

    def _enqueue_replay(
        self, records, todo, dropped: int, folded: int
    ) -> None:
        """Enqueue the unapplied suffix; ``folded`` records were spliced
        into the start graph to reach the snapshot."""
        tail = self.store.current.graph
        for record in todo:
            application = record.delta().apply(tail)
            if application.after.structural_fingerprint() != record.after:
                raise WalError(
                    f"wal record seq {record.seq} replays to fingerprint "
                    f"{application.after.structural_fingerprint()!r}, "
                    f"expected {record.after!r}"
                )
            self._pending.append(_Pending(record, application))
            tail = application.after
        self._tail = tail
        tele = get_telemetry()
        if tele.enabled:
            tele.event(
                "serve.wal_replay",
                records=len(records),
                folded=folded,
                pending=len(todo),
                dropped_bytes=dropped,
            )
        self._gauge_staleness()

    # ------------------------------------------------------------------
    # read path (lock-free: everything comes from one epoch object)
    # ------------------------------------------------------------------

    @property
    def staleness(self) -> int:
        """Accepted-but-unapplied delta batches (0 = fully fresh)."""
        return len(self._pending)

    @property
    def degraded(self) -> bool:
        """True when the ingest path is unhealthy (stale-reads-only)."""
        return (
            self._breaker.is_open
            or len(self._pending) > self.config.max_staleness
        )

    def _meta(self, epoch: Epoch) -> dict:
        return {
            "epoch": epoch.seq,
            "fingerprint": epoch.fingerprint,
            "staleness": self.staleness,
            "mode": "degraded" if self.degraded else "full",
        }

    def query_score(self, host: str) -> dict:
        """Per-host spam-mass scores from the current epoch."""
        epoch = self.store.current
        return {**score_from_epoch(epoch, host), **self._meta(epoch)}

    def query_top(
        self,
        k: int = 10,
        *,
        tau: Optional[float] = None,
        rho: Optional[float] = None,
    ) -> dict:
        """Top-k spam candidates by relative mass (Algorithm 2 gates)."""
        epoch = self.store.current
        tau = self.config.tau if tau is None else tau
        rho = self.config.rho if rho is None else rho
        return {
            **top_from_epoch(epoch, k, tau=tau, rho=rho),
            **self._meta(epoch),
        }

    def query_explain(self, host: str, *, top: int = 10) -> dict:
        """Contribution breakdown for one host (review-sheet text).

        A **slow op** (:data:`~repro.serve.admission.SLOW_OPS`):
        ``explain_mass`` runs one Jacobi solve over the whole graph's
        edges (a few dozen sweeps), orders of magnitude above a score
        read.  The server runs it on
        the dedicated slow lane and admission sheds it first in
        degraded mode, so it never competes with the hot scoring path.
        """
        from ..core.explain import explain_mass

        epoch = self.store.current
        explanation = explain_mass(
            epoch.graph,
            epoch.node_of(host),
            self.core,
            damping=epoch.estimates.damping,
            top=top,
        )
        return {
            "host": host,
            "text": explanation.render(epoch.graph),
            **self._meta(epoch),
        }

    def health(self) -> dict:
        """Readiness/liveness probe, answered from O(1) state.

        No score scan: :meth:`EpochStore.publish` refuses non-finite
        scores and marks a published epoch's arrays read-only, so the
        live epoch stays as it was validated.
        """
        return {
            "ready": True,
            "circuit": "open" if self._breaker.is_open else "closed",
            "degraded_reason": self._degraded_reason,
            "applies": self.applies,
            "apply_failures": self.apply_failures,
            "swaps": self.store.swaps,
            **self._meta(self.store.current),
        }

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def submit_delta(
        self,
        insertions: Optional[List[Tuple[int, int]]] = None,
        deletions: Optional[List[Tuple[int, int]]] = None,
        *,
        position: Optional[dict] = None,
    ) -> dict:
        """Accept one delta batch: validate, fsync to WAL, enqueue.

        The delta is validated (and its successor fingerprint derived)
        against the *tip* of the accepted chain — pending batches
        compose, and a duplicate submission fails validation the same
        way any conflicting delta does.  Acknowledged means durable:
        the WAL append fsyncs before this returns.  ``position`` is the
        caller's source position, stored in the same record
        (:class:`~repro.serve.stream.StreamIngestor` resumes from it).
        """
        delta = GraphDelta(insertions or (), deletions or ())
        with self._lock:
            if self._breaker.is_open:
                raise WalError(
                    "ingest refused: serving is degraded "
                    f"({self._degraded_reason or 'circuit open'})"
                )
            if self.degraded:
                raise WalError(
                    "ingest refused: serving is degraded "
                    f"({len(self._pending)} unapplied delta batches "
                    f"exceed max_staleness {self.config.max_staleness})"
                )
            parent = self._tail.structural_fingerprint()
            application = delta.apply(self._tail)
            after = application.after.structural_fingerprint()
            if self.wal is None:
                seq = (
                    self._pending[-1].record.seq + 1
                    if self._pending
                    else self.store.current.wal_seq + 1
                )
                record = WalRecord(
                    seq,
                    parent,
                    after,
                    [(int(u), int(v)) for u, v in delta.insertions],
                    [(int(u), int(v)) for u, v in delta.deletions],
                    position,
                )
            else:
                record = self.wal.append(
                    delta, parent=parent, after=after, position=position
                )
            self._pending.append(_Pending(record, application))
            self._tail = application.after
            self._cond.notify_all()
        self._gauge_staleness()
        return {
            "accepted": True,
            "seq": record.seq,
            "staleness": self.staleness,
            "insertions": delta.num_insertions,
            "deletions": delta.num_deletions,
        }

    def quarantine_pending(self) -> List[WalRecord]:
        """Drop every pending batch after an unrecoverable apply failure.

        The streaming ingestor calls this when a window's compacted
        delta is *poison*: durable in the WAL (submit validated it
        structurally) but unapplicable — both the warm and the cold
        estimate fail on it.  Retrying forever would wedge the queue,
        so the poison suffix is abandoned wholesale: the pending queue
        is cleared, the accepted tip is reset to the current epoch's
        graph, the breaker is healed, and the dropped records are cut
        off the WAL segment so a restart does not replay them; the
        segment then ends at the last applied record, and the next
        append chains from it.  The caller owns routing the dropped
        records to a dead-letter queue; the daemon just keeps serving
        its current epoch.  No apply may be running (the stream
        ingestor drives the daemon synchronously).

        Returns the dropped records, oldest first (empty when nothing
        was pending).
        """
        with self._lock:
            dropped = [p.record for p in self._pending]
            self._pending.clear()
            self._tail = self.store.current.graph
            self._breaker = CircuitBreaker(self.config.circuit_threshold)
            self._degraded_reason = None
            if self.wal is not None and dropped:
                # under the lock: a submit appends under it too, so no
                # record can land behind the cut
                self.wal.cut(dropped[0].seq)
        tele = get_telemetry()
        if tele.enabled and dropped:
            tele.inc("serve.quarantines")
            tele.event(
                "serve.quarantined",
                records=len(dropped),
                first_seq=dropped[0].seq,
                last_seq=dropped[-1].seq,
            )
        self._gauge_staleness()
        self._gauge_circuit()
        return dropped

    # ------------------------------------------------------------------
    # ingest worker
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the background ingest worker (idempotent)."""
        if self._worker is not None and self._worker.is_alive():
            return
        self._stop = False
        self._worker = threading.Thread(
            target=self._worker_loop, name="serve-ingest", daemon=True
        )
        self._worker.start()

    def close(self, *, timeout: float = 10.0) -> None:
        """Stop the worker after its current apply; WAL keeps pending.

        Pending batches are durable in the log, so shutdown never
        waits for the whole backlog — restart replays it.
        """
        with self._lock:
            self._stop = True
            self._cond.notify_all()
        if self._worker is not None:
            self._worker.join(timeout)

    def apply_pending(self) -> int:
        """Synchronously apply every pending batch; returns how many.

        The deterministic path tests and replay-heavy callers use; the
        background worker must not be running concurrently.
        """
        applied = 0
        while self._pending:
            if not self._apply_one():
                break
            applied += 1
        return applied

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stop and not self._pending:
                    self._cond.wait(timeout=self.config.retry_interval)
                if self._stop:
                    return
            ok = self._apply_one()
            if not ok:
                # failed apply: the record stays at the queue head; wait
                # out the retry interval (interruptible by close())
                with self._cond:
                    self._cond.wait(timeout=self.config.retry_interval)

    def _apply_one(self) -> bool:
        """Apply the oldest pending batch; returns success.

        With ``batch_deltas > 1`` a prefix of the queue is coalesced:
        the chained applications compose into one net splice and one
        re-estimate covers them all.  The head's ``before`` is always
        the epoch's graph: :meth:`submit_delta` chains from the tip and
        :meth:`quarantine_pending` resets the tip to the epoch.  The
        published epoch carries the *last* record's seq/fingerprint —
        the composed splice yields exactly the graph the last delta's
        chain fingerprint names, which the publish verifies.
        """
        with self._lock:
            if not self._pending:
                return False
            items = [
                self._pending[i]
                for i in range(
                    min(self.config.batch_deltas, len(self._pending))
                )
            ]
        item = items[0]
        record = items[-1].record
        if len(items) == 1:
            application = item.application
        else:
            application = compose_applications(
                [it.application for it in items]
            )
        epoch = self.store.current
        config = self.config
        tele = get_telemetry()
        try:
            if self.chaos is not None:
                self.chaos.before_apply(record.seq)
            started = self._clock()
            if self._jumps is None:
                self._jumps = mass_jump_block(
                    application.after.num_nodes,
                    self.core,
                    epoch.estimates.gamma,
                )
            new_estimates, degraded = reestimate(
                application,
                self.core,
                epoch.estimates,
                engine=self.engine,
                jumps=self._jumps,
            )
            if degraded:
                self.degraded_applies += 1
            candidate = epoch.successor(
                application.after, new_estimates, wal_seq=record.seq
            )
            self.store.publish(
                candidate,
                expected_fingerprint=record.after,
                pre_publish=(
                    None
                    if self.chaos is None
                    else lambda _ep: self.chaos.before_publish(record.seq)
                ),
            )
        except Exception as exc:
            self.apply_failures += 1
            if self._breaker.record_failure():
                self._degraded_reason = (
                    f"circuit open after "
                    f"{self._breaker.consecutive_failures} consecutive "
                    f"apply failures (last: {type(exc).__name__})"
                )
                if tele.enabled:
                    tele.event(
                        "serve.circuit_open",
                        seq=record.seq,
                        error=type(exc).__name__,
                    )
            if tele.enabled:
                tele.inc("serve.apply_failures")
                tele.event(
                    "serve.apply_failed",
                    seq=record.seq,
                    error=type(exc).__name__,
                )
            self._gauge_circuit()
            return False

        # success: persist the solution, dequeue
        if self.checkpoint_dir is not None:
            save_estimates(
                self.checkpoint_dir,
                new_estimates,
                fingerprint=candidate.fingerprint,
                wal_seq=record.seq,
            )
        with self._lock:
            if self._pending and self._pending[0] is item:
                for _ in items:
                    self._pending.popleft()
        self.applies += 1
        # any success heals the breaker (a fresh instance: `opened` is
        # sticky once tripped)
        self._breaker = CircuitBreaker(config.circuit_threshold)
        self._degraded_reason = None
        if (
            self.checkpoint_dir is not None
            and self.wal is not None
            and record.seq - self.wal.base_seq >= ANCHOR_EVERY
        ):
            self._reanchor(record.seq, candidate.graph)
        if tele.enabled:
            tele.inc("serve.applies")
            tele.event(
                "serve.applied",
                seq=record.seq,
                epoch=self.store.current.seq,
                batch=len(items),
                degraded=self.degraded_applies > 0,
                seconds=round(self._clock() - started, 6),
            )
        self._gauge_staleness()
        self._gauge_circuit()
        return True

    def _reanchor(self, seq: int, graph) -> None:
        """Anchor the WAL at record ``seq``, whose graph ``graph`` was
        just published and saved.

        Writes the anchor beside the snapshot, makes a segment based on
        it live and deletes the older segments.  Every step is atomic,
        so a crash between two restarts at the snapshot; a step that
        raises stops the re-anchor there (the apply has succeeded) and
        the next apply tries again.
        """
        try:
            write_anchor(
                graph, self.checkpoint_dir / ANCHOR_FILENAME, seq=seq
            )
            self._anchor_step(seq, "anchor")
            self.wal.rebase(seq, graph.structural_fingerprint())
            self._anchor_step(seq, "switch")
            self.wal.drop_superseded()
            self._anchor_step(seq, "delete")
        except Exception as exc:  # noqa: BLE001 - retried next apply
            tele = get_telemetry()
            if tele.enabled:
                tele.inc("serve.reanchor_failures")
                tele.event(
                    "serve.reanchor_failed",
                    seq=seq,
                    error=type(exc).__name__,
                )

    def _anchor_step(self, seq: int, step: str) -> None:
        if self.chaos is not None:
            self.chaos.after_anchor_step(seq, step)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _gauge_staleness(self) -> None:
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge("serve.staleness", self.staleness)

    def _gauge_circuit(self) -> None:
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge(
                "serve.circuit_state", 1 if self._breaker.is_open else 0
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScoringDaemon(epoch={self.store.current.seq}, "
            f"staleness={self.staleness}, degraded={self.degraded})"
        )
