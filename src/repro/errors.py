"""Exception taxonomy shared across the library.

A pipeline that a search engine re-runs continuously (Section 2.2's
deployment story) fails in a handful of recurring ways: the numerics
diverge, a checkpoint is unreadable, an edge file is truncated
mid-transfer.  Each failure mode gets its own exception type so callers
— the CLI in particular — can map them to distinct exit codes and
one-line messages instead of tracebacks.

The classes multiply-inherit from the builtin exceptions historically
raised at the same sites (``RuntimeError`` for non-convergence,
``ValueError`` for malformed files), so pre-existing ``except`` clauses
keep working.

This module imports nothing from the rest of the package and is safe to
import from any layer.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConvergenceError",
    "CheckpointError",
    "SnapshotMismatchError",
    "WalError",
    "GraphFormatError",
    "TruncatedFileError",
    "EmptyGraphError",
    "GraphIOError",
    "ShardMissingError",
    "ShardIntegrityError",
    "ShardTruncatedError",
    "ShardDigestMismatchError",
    "ManifestVersionError",
    "GraphIOWarning",
    "DeltaError",
    "StreamError",
    "StreamEventError",
    "InjectedFault",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the offending :class:`~repro.core.solvers.SolverResult` in
    ``result`` (when available) so callers can inspect the best-effort
    vector even after opting into strict checking.
    """

    def __init__(self, message: str, result=None) -> None:
        super().__init__(message)
        self.result = result


class CheckpointError(ReproError):
    """A checkpoint could not be written or restored."""


class SnapshotMismatchError(CheckpointError):
    """A stored snapshot belongs to a *different* problem or graph.

    Subclasses :class:`CheckpointError` so existing handlers (and the
    CLI's exit-3 mapping) keep working.  Raised when a solution
    snapshot is loaded against the wrong graph, and when the serving
    daemon's epoch store refuses to publish a re-estimate whose graph
    or scores do not check out.  Both sides of the comparison ride on
    the exception so operators can log what was expected against what
    was found.
    """

    def __init__(self, message: str, *, expected: str = "",
                 actual: str = "") -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class WalError(ReproError):
    """The serving write-ahead log is unreadable or diverged.

    A *torn tail* (crash mid-append) is not an error — recovery
    truncates it.  This type covers the cases recovery must not paper
    over: corruption in the middle of a segment, or a record whose
    parent fingerprint matches neither the current graph nor an
    already-applied state (the log and the snapshot tell different
    histories).
    """


class GraphFormatError(ReproError, ValueError):
    """An on-disk graph artifact violates its format.

    Subclasses ``ValueError`` because that is what the readers raised
    before the strict/lenient split; existing handlers stay valid.
    """


class TruncatedFileError(GraphFormatError):
    """A (gzip) file ended mid-stream — typically an interrupted copy."""


class EmptyGraphError(GraphFormatError):
    """A graph with zero nodes was requested.

    The model has no meaningful zero-node limit: the uniform jump vector
    ``v = 1/n`` is undefined, so solvers would fail deep inside the
    numerics with an opaque ``ZeroDivisionError``-shaped message.
    Constructors reject ``num_nodes == 0`` up front with this type
    instead of building a degenerate graph.
    """


class GraphIOError(ReproError, OSError):
    """Base class for failures reading persisted graph storage.

    Distinct from :class:`GraphFormatError` (a *parseable but invalid*
    artifact): this family covers storage-level faults — files missing,
    truncated, or failing their integrity digests.  Loaders raise these
    *before* handing out any graph object; a sharded store never
    returns a partially-loaded graph.
    """


class ShardMissingError(GraphIOError, FileNotFoundError):
    """A shard file named by the manifest does not exist on disk."""


class ShardIntegrityError(GraphIOError):
    """A shard file exists but its contents cannot be trusted."""


class ShardTruncatedError(ShardIntegrityError):
    """A shard ``.npz`` ends mid-stream — an interrupted copy or write."""


class ShardDigestMismatchError(ShardIntegrityError):
    """Shard contents disagree with the digest recorded in the manifest.

    Carries both sides of the comparison (hex strings) so operators can
    log what was expected against what was found.
    """

    def __init__(self, message: str, *, expected: str = "",
                 actual: str = "") -> None:
        super().__init__(message)
        self.expected = expected
        self.actual = actual


class ManifestVersionError(GraphIOError):
    """The shard manifest was written by an incompatible format version."""

    def __init__(self, message: str, *, found=None, supported=None) -> None:
        super().__init__(message)
        self.found = found
        self.supported = supported


class DeltaError(ReproError, ValueError):
    """An edge delta is malformed or inconsistent with its base graph.

    Raised for self-links or duplicates inside a delta, insertions of
    edges that already exist, and deletions of edges that do not —
    applying such a delta silently would desynchronize the incremental
    solver's residual bookkeeping from the actual graph mutation.
    """


class StreamError(ReproError):
    """Base class for streaming-ingestion failures.

    Covers the crawl-event pipeline (:mod:`repro.serve.stream`): a
    malformed event, a window whose compacted delta is poison, an event
    that falls in no window (a clock-skewed stream, or a source that no
    longer matches the WAL position a resume restored).  Individual
    malformed *records* are normally quarantined into the dead-letter
    queue rather than raised — this family surfaces only where the
    ingestor itself cannot continue.
    """


class StreamEventError(StreamError, ValueError):
    """A crawl event violates the stream schema.

    ``reason`` is a short machine-readable slug, also used verbatim as
    the dead-letter-queue entry's typed reason: ``"bad-json"``,
    ``"missing-field"``, ``"bad-type"``, ``"bad-op"``,
    ``"negative-id"``, ``"self-link"``, ``"out-of-range"``.
    """

    def __init__(self, reason: str, message: str = "") -> None:
        super().__init__(message or reason)
        self.reason = reason


class GraphIOWarning(UserWarning):
    """Lenient-mode readers emit this when they skip malformed input.

    The message always ends with a parenthesized per-category count
    summary, e.g. ``(skipped: 2 malformed, 1 out-of-range)``, and the
    warning instance carries the raw counts in ``counts``.
    """

    def __init__(self, message: str, counts=None) -> None:
        super().__init__(message)
        self.counts = dict(counts or {})


class InjectedFault(ReproError):
    """Raised by :mod:`repro.runtime.chaos` injectors — never in
    production code paths.  Distinct type so tests can assert that a
    failure was the planted one and not a genuine bug."""
