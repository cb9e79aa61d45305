"""Always-on scoring service: epochs, WAL, admission, re-estimation.

The batch pipeline (``build-world`` → ``estimate`` → ``detect``)
answers "what does the graph look like today"; this package answers it
*continuously*.  A :class:`~repro.serve.daemon.ScoringDaemon` loads a
solution snapshot, serves per-host spam-mass queries from epochs that
are read-only once published (:mod:`~repro.serve.epoch`), accepts
graph deltas through a crash-safe write-ahead log
(:mod:`~repro.serve.wal`), folds each one in with a warm re-estimate
that falls back once to a cold solve (:mod:`~repro.serve.ingest`), and
degrades explicitly under overload or ingest failure
(:mod:`~repro.serve.admission`).  The socket front-end and client live
in :mod:`~repro.serve.server`.  See ``docs/serving.md``.
"""

from .admission import (
    MODES,
    SLOW_OPS,
    AdmissionController,
    AdmissionRejected,
    AdmissionTicket,
)
from .daemon import DaemonConfig, ScoringDaemon
from .epoch import Epoch, EpochStore, score_from_epoch, top_from_epoch
from .ingest import reestimate
from .server import ScoringServer, ServeClient
from .stream import DeadLetterQueue, StreamConfig, StreamIngestor
from .wal import DeltaWAL, WalRecord, plan_replay

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AdmissionTicket",
    "MODES",
    "SLOW_OPS",
    "DaemonConfig",
    "ScoringDaemon",
    "Epoch",
    "EpochStore",
    "score_from_epoch",
    "top_from_epoch",
    "reestimate",
    "ScoringServer",
    "ServeClient",
    "DeadLetterQueue",
    "StreamConfig",
    "StreamIngestor",
    "DeltaWAL",
    "WalRecord",
    "plan_replay",
]
