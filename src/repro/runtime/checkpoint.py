"""Converged-solution snapshots: ``<dir>/solution.npz``.

A cold ``repro-spam estimate --checkpoint-dir DIR`` saves its
converged ``p`` and ``p′`` here; ``update``, ``serve`` and ``stream
ingest`` load them as the base their incremental engine warm-starts
from, and write the advanced pair back after every applied delta.

Format
------
An uncompressed numpy archive with:

``scores``
    The ``(n, k)`` float64 solution, one column per jump vector.
``iterations``, ``residuals``
    Per-column solve diagnostics (zeros when the writer had none).
``meta``
    A JSON string: the graph's structural ``fingerprint``, the column
    count and whatever the writer adds (``damping``, ``gamma``,
    ``labels``), so a snapshot is never warm-started against a
    *different* graph.

Writes are atomic: the archive is written to a ``.tmp`` sibling and
``os.replace``-d into place, so a crash mid-write can never leave a
half-written snapshot — at worst a stale ``.tmp`` that is removed on
the way out.  Transient write failures are retried with backoff.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..errors import CheckpointError, SnapshotMismatchError
from ..obs import get_telemetry
from .retry import with_retries

__all__ = [
    "SolutionSnapshot",
    "save_solution",
    "load_solution",
]

SOLUTION_FILENAME = "solution.npz"


class SolutionSnapshot:
    """A restored *converged* multi-vector solution.

    The terminal state of a successful run, kept so the *next* run on a
    mutated graph can warm-start the incremental engine
    (:meth:`~repro.perf.engine.PagerankEngine.update_many`) instead of
    solving cold.
    """

    __slots__ = ("scores", "iterations", "residuals", "meta", "path")

    def __init__(
        self,
        scores: np.ndarray,
        iterations: np.ndarray,
        residuals: np.ndarray,
        meta: dict,
        path: Optional[Path] = None,
    ) -> None:
        self.scores = scores
        self.iterations = iterations
        self.residuals = residuals
        self.meta = meta
        self.path = path

    @property
    def fingerprint(self) -> str:
        """Structural fingerprint of the graph the solution solves."""
        return str(self.meta.get("fingerprint", ""))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SolutionSnapshot(shape={self.scores.shape}, "
            f"fingerprint={self.fingerprint!r})"
        )


def save_solution(
    directory: Union[str, Path],
    scores: np.ndarray,
    *,
    fingerprint: str,
    iterations: Optional[np.ndarray] = None,
    residuals: Optional[np.ndarray] = None,
    extra: Optional[dict] = None,
    retries: int = 3,
    backoff: float = 0.02,
) -> Path:
    """Atomically write ``solution.npz`` into ``directory``.

    ``fingerprint`` must be the graph's structural fingerprint
    (:meth:`~repro.graph.webgraph.WebGraph.structural_fingerprint`) so a
    later :func:`load_solution` can refuse to warm-start an update
    against the wrong base graph.

    Members are stored, not deflated: zlib shrinks float64 scores by
    only ~6%, and at 1M hosts it took ~25× as long as the stored
    write.  Stored members still carry a CRC-32 that
    :func:`load_solution` checks.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    final = directory / SOLUTION_FILENAME
    tmp = final.with_suffix(".npz.tmp")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("solution scores must be an (n, k) array")
    k = scores.shape[1]
    meta = {"fingerprint": fingerprint, "columns": k}
    if extra:
        meta.update(extra)

    def _write() -> None:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                scores=scores,
                iterations=np.asarray(
                    iterations if iterations is not None else np.zeros(k),
                    dtype=np.int64,
                ),
                residuals=np.asarray(
                    residuals if residuals is not None else np.zeros(k),
                    dtype=np.float64,
                ),
                meta=np.asarray(json.dumps(meta)),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)

    try:
        with_retries(_write, retries=retries, backoff=backoff)
    except OSError as exc:
        raise CheckpointError(
            f"could not write solution snapshot {final}: {exc}"
        ) from exc
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
    tele = get_telemetry()
    if tele.enabled:
        tele.inc("checkpoint.solution_writes")
        tele.event(
            "checkpoint.solution_write",
            columns=k,
            fingerprint=fingerprint,
        )
    return final


def load_solution(
    directory: Union[str, Path],
    *,
    fingerprint: str = "",
) -> SolutionSnapshot:
    """Read ``solution.npz`` back; guard against graph mismatch.

    When ``fingerprint`` is given and the snapshot was written for a
    different graph, raises :class:`~repro.errors.CheckpointError` —
    warm-starting a push update from the wrong base would silently
    converge to a wrong vector (the residual seeding assumes the stored
    scores solve the *before* graph exactly).  Stored and deflated
    members load alike, so snapshots written compressed by older
    versions still load.
    """
    path = Path(directory) / SOLUTION_FILENAME
    if not path.exists():
        raise CheckpointError(
            f"no solution snapshot at {path}; run a cold estimate with "
            "--checkpoint-dir first"
        )
    try:
        # own the handle: np.load leaks it when a file that looks like
        # an archive is not one
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            scores = np.asarray(data["scores"], dtype=np.float64)
            iterations = np.asarray(data["iterations"], dtype=np.int64)
            residuals = np.asarray(data["residuals"], dtype=np.float64)
            meta = json.loads(str(data["meta"]))
    except (OSError, ValueError, KeyError, zipfile.BadZipFile,
            json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"solution snapshot {path} is unreadable: {exc}"
        ) from exc
    if not np.all(np.isfinite(scores)):
        raise CheckpointError(
            f"solution snapshot {path} contains non-finite values"
        )
    stored = str(meta.get("fingerprint", ""))
    if fingerprint and stored not in ("", fingerprint):
        raise SnapshotMismatchError(
            f"solution snapshot {path} was computed on a different graph "
            f"(stored fingerprint {stored!r}, expected {fingerprint!r}); "
            "re-run the cold estimate",
            expected=fingerprint,
            actual=stored,
        )
    return SolutionSnapshot(scores, iterations, residuals, meta, path)
