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
* a background ingest worker — pops accepted deltas in order, runs a
  guarded warm re-estimate (deadline, retries, degradation to a cold
  solve; :mod:`repro.serve.ingest`), verifies the result against the
  delta chain's derived fingerprint, and hot-swaps the next epoch;
* a :class:`~repro.runtime.supervisor.CircuitBreaker` on the ingest
  path — consecutive apply failures (or a staleness bound overrun)
  flip the service to *degraded*: reads keep flowing from the current
  epoch with an explicit ``staleness`` field, ingest is refused, and
  the worker keeps retrying until the path heals.

Restart is replay: the WAL is recovered (torn tail truncated), the
chain is deduped against the loaded solution snapshot's fingerprint
(apply-then-crash never double-applies), and the pending suffix is
re-applied — deterministically, so the scores after replay are
bitwise-identical to the ones a crash interrupted.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..core import estimate_spam_mass
from ..core.mass import MassEstimates
from ..errors import DeltaError, SnapshotMismatchError, WalError
from ..graph import GraphDelta, read_graph_bundle, read_host_list
from ..graph.delta import DeltaApplication, compose_applications
from ..obs import get_telemetry
from ..runtime.checkpoint import load_solution, save_solution
from ..runtime.supervisor import CircuitBreaker
from .ingest import IngestPolicy, guarded_call
from .epoch import (
    Epoch,
    EpochStore,
    resolve_host,
    score_from_epoch,
    top_from_epoch,
)
from .wal import DeltaWAL, WalRecord, plan_replay

__all__ = ["DaemonConfig", "ScoringDaemon"]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class DaemonConfig:
    """Operational knobs of one daemon instance.

    ``rho``/``tau`` are the Algorithm 2 thresholds used by ``top``
    queries; the ingest fields mirror the supervision flags of the
    batch CLI (``--task-timeout`` → ``ingest_deadline``,
    ``--no-degrade`` → ``allow_degrade=False``).

    ``batch_deltas`` bounds how many queued deltas one apply may
    coalesce: the worker drains up to that many from the queue head,
    composes them into a single splice (net edge set — opposing
    insert/delete pairs cancel), and runs ONE warm re-estimate for the
    whole batch.  The default of 1 preserves the one-record-per-epoch
    behaviour; the WAL chain is unchanged either way (every record is
    still fsynced and acked individually), only epoch cadence changes.
    """

    gamma: Optional[float] = 0.85
    rho: float = 10.0
    tau: float = 0.98
    max_staleness: int = 8
    ingest_retries: int = 1
    ingest_deadline: Optional[float] = None
    allow_degrade: bool = True
    circuit_threshold: int = 3
    retry_interval: float = 0.05
    prune_every: int = 32
    batch_deltas: int = 1

    def __post_init__(self) -> None:
        if self.max_staleness < 1:
            raise ValueError("max_staleness must be >= 1")
        if self.batch_deltas < 1:
            raise ValueError("batch_deltas must be >= 1")
        if self.circuit_threshold < 1:
            raise ValueError("circuit_threshold must be >= 1")
        if self.retry_interval <= 0:
            raise ValueError("retry_interval must be positive")

    def ingest_policy(self) -> IngestPolicy:
        return IngestPolicy(
            max_retries=self.ingest_retries,
            deadline=self.ingest_deadline,
            allow_degrade=self.allow_degrade,
        )


def _core_nodes(graph, names: List[str]) -> np.ndarray:
    """Node ids of the core host ``names`` (:class:`DeltaError` naming
    the first missing one).  A named graph is scanned once against the
    set of core names, so no table of every host's name is built here;
    the epoch builds the one the daemon keeps."""
    lookup = None
    if graph.names is not None:
        wanted = set(names)
        lookup = {
            name: i for i, name in enumerate(graph.names) if name in wanted
        }
    core, missing = [], []
    for name in names:
        try:
            core.append(resolve_host(name, lookup, graph.num_nodes))
        except KeyError:
            missing.append(name)
    if missing:
        raise DeltaError(
            f"{len(missing)} core hosts are not in the graph "
            f"(first: {missing[0]!r})"
        )
    return np.asarray(core, dtype=np.int64)


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

            engine = PagerankEngine()
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
        self._applied_since_prune = 0
        self.applies = 0
        self.apply_failures = 0
        self.degraded_applies = 0

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
        the snapshot's stored fingerprint must be the bundle graph or
        reachable from it through the log's applied prefix
        (:class:`~repro.errors.SnapshotMismatchError` otherwise — the
        operator pointed the daemon at the wrong world).  The bundle
        graph is fast-forwarded through that prefix structurally (no
        re-estimation — the snapshot already has the scores), and the
        unapplied suffix is enqueued for the worker (or
        :meth:`apply_pending`).
        """
        config = config if config is not None else DaemonConfig()
        graph, _, _ = read_graph_bundle(world_dir)
        if core_path is None:
            core_path = Path(world_dir) / "core.hosts"
        core = _core_nodes(graph, read_host_list(core_path))
        snapshot = load_solution(checkpoint_dir)
        base_fp = graph.structural_fingerprint()
        stored_fp = str(snapshot.meta.get("fingerprint", "")) or base_fp
        wal = DeltaWAL(
            wal_dir if wal_dir is not None else Path(checkpoint_dir) / "wal"
        )
        records, dropped = wal.recover()
        todo = plan_replay(records, stored_fp)
        prefix = records[: len(records) - len(todo)]
        if stored_fp != base_fp:
            if not prefix or prefix[0].parent != base_fp:
                raise SnapshotMismatchError(
                    f"solution snapshot {snapshot.path} (fingerprint "
                    f"{stored_fp!r}) belongs to neither the world bundle "
                    f"(fingerprint {base_fp!r}) nor any delta chain the "
                    "wal can replay from it; the daemon is pointed at "
                    "the wrong world or the wal was pruned past its "
                    "base",
                    expected=base_fp,
                    actual=stored_fp,
                )
            # reconstruct the snapshot-point graph structurally
            for record in prefix:
                graph = record.delta().apply(graph).after
            if graph.structural_fingerprint() != stored_fp:
                raise WalError(
                    "wal prefix replays the bundle to fingerprint "
                    f"{graph.structural_fingerprint()!r}, but the "
                    f"snapshot claims {stored_fp!r}"
                )
        gamma = snapshot.meta.get("gamma", config.gamma)
        damping = float(snapshot.meta.get("damping", 0.85))
        estimates = MassEstimates(
            snapshot.scores[:, 0].copy(),
            snapshot.scores[:, 1].copy(),
            damping,
            gamma,
        )
        daemon = cls(
            graph,
            core,
            estimates,
            checkpoint_dir=checkpoint_dir,
            wal=wal,
            config=config,
            engine=engine,
            chaos=chaos,
            # the restored epoch sits at the end of the applied prefix;
            # stamp its true WAL position, not 0
            initial_wal_seq=(prefix[-1].seq if prefix else 0),
        )
        daemon._enqueue_replay(records, todo, dropped)
        return daemon

    def _enqueue_replay(self, records, todo, dropped: int) -> None:
        """Enqueue the unapplied suffix; catch the watermark up."""
        applied_prefix = len(records) - len(todo)
        if applied_prefix:
            # the snapshot already contains these (crash before the
            # watermark advanced); make the watermark catch up
            last_applied = records[applied_prefix - 1].seq
            if self.wal.applied_seq() < last_applied:
                self.wal.mark_applied(last_applied)
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
        ``explain_mass`` walks contribution paths over the whole graph,
        orders of magnitude above a score read.  The server runs it on
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
        """Readiness/liveness probe; auto-rolls-back a poisoned epoch."""
        epoch = self.store.current
        est = epoch.estimates
        poisoned = not (
            np.all(np.isfinite(est.pagerank))
            and np.all(np.isfinite(est.core_pagerank))
        )
        if poisoned:
            restored = self.store.rollback()
            tele = get_telemetry()
            if tele.enabled:
                tele.event(
                    "serve.poisoned_epoch",
                    epoch=epoch.seq,
                    rolled_back_to=(
                        restored.seq if restored is not None else None
                    ),
                )
            epoch = self.store.current
        return {
            "ready": True,
            "poisoned_epoch_rolled_back": poisoned,
            "circuit": "open" if self._breaker.is_open else "closed",
            "degraded_reason": self._degraded_reason,
            "applies": self.applies,
            "apply_failures": self.apply_failures,
            "swaps": self.store.swaps,
            "rollbacks": self.store.rollbacks,
            **self._meta(self.store.current),
        }

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def submit_delta(
        self,
        insertions: Optional[List[Tuple[int, int]]] = None,
        deletions: Optional[List[Tuple[int, int]]] = None,
    ) -> dict:
        """Accept one delta batch: validate, fsync to WAL, enqueue.

        The delta is validated (and its successor fingerprint derived)
        against the *tip* of the accepted chain — pending batches
        compose, and a duplicate submission fails validation the same
        way any conflicting delta does.  Acknowledged means durable:
        the WAL append fsyncs before this returns.
        """
        delta = GraphDelta(insertions or (), deletions or ())
        with self._lock:
            if self.degraded:
                raise WalError(
                    "ingest refused: serving is degraded "
                    f"({self._degraded_reason or 'circuit open'})"
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
                )
            else:
                record = self.wal.append(delta, parent=parent, after=after)
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
        graph, the breaker is healed, and the WAL watermark is advanced
        past the dropped records (then pruned) so a restart does not
        replay them.  The caller owns routing the dropped records to a
        dead-letter queue; the daemon just keeps serving its current
        epoch.

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
            # forget the poison suffix durably: the watermark jumps past
            # it and prune removes the records, so the next append's
            # parent (the current epoch's fingerprint) restarts a clean
            # chain that replay can anchor
            self.wal.mark_applied(dropped[-1].seq)
            self.wal.prune()
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
        warm (or degraded-cold) re-estimate covers them all.  The
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
        est = epoch.estimates
        tele = get_telemetry()
        try:
            if self.chaos is not None:
                self.chaos.before_apply(record.seq)

            def _warm():
                return estimate_spam_mass(
                    application,
                    self.core,
                    damping=est.damping,
                    gamma=est.gamma,
                    previous=est,
                    engine=self.engine,
                )

            def _cold():
                return estimate_spam_mass(
                    application.after,
                    self.core,
                    damping=est.damping,
                    gamma=est.gamma,
                    engine=self.engine,
                )

            started = self._clock()
            new_estimates, degraded = guarded_call(
                _warm,
                _cold,
                config.ingest_policy(),
                label=f"wal-seq-{record.seq}",
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

        # success: persist the solution, advance the watermark, dequeue
        if self.checkpoint_dir is not None:
            save_solution(
                self.checkpoint_dir,
                np.stack(
                    [new_estimates.pagerank, new_estimates.core_pagerank],
                    axis=1,
                ),
                fingerprint=candidate.fingerprint,
                extra={
                    "damping": new_estimates.damping,
                    "gamma": new_estimates.gamma,
                    "labels": ["pagerank", "core"],
                    "wal_seq": record.seq,
                },
            )
        if self.wal is not None:
            # the watermark is monotone: the last coalesced seq covers
            # every record the composed apply consumed
            self.wal.mark_applied(record.seq)
        with self._lock:
            if self._pending and self._pending[0] is item:
                for _ in items:
                    self._pending.popleft()
        self.applies += 1
        self._applied_since_prune += len(items)
        # any success heals the breaker (fresh instance: `opened` is
        # sticky by design inside one supervised run, but the daemon
        # outlives many)
        self._breaker = CircuitBreaker(config.circuit_threshold)
        self._degraded_reason = None
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
        if (
            self.wal is not None
            and self._applied_since_prune >= config.prune_every
        ):
            self.wal.prune()
            self._applied_since_prune = 0
        return True

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
