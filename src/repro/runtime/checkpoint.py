"""Solver checkpointing: atomic snapshots of the PageRank iterate.

At the paper's deployment scale (a 73M-host graph re-ranked
continuously) a PageRank run that dies at iteration 80 of 100 wastes
hours if it must restart from the uniform vector.  Jacobi, Gauss-Seidel
and power iteration are memoryless in the iterate — ``p`` plus the
iteration number is a complete state — so a checkpoint is tiny and
resuming is exact.

Format
------
A checkpoint directory holds ``ckpt-<iteration:09d>.npz`` files, each a
compressed numpy archive with:

``p``
    The iterate (float64).
``residual_history``
    The residuals observed so far (may be empty when tracking is off).
``meta``
    A JSON string: ``iteration``, ``method``, ``residual``, ``damping``,
    ``tol`` and a ``fingerprint`` of the problem (size + checksums of
    the jump vector and matrix structure) so a checkpoint is never
    resumed against a *different* system.

Writes are atomic: the archive is written to a ``.tmp`` sibling and
``os.replace``-d into place, so a crash mid-write can never leave a
half-written *current* checkpoint — at worst a stale ``.tmp`` that is
ignored (and cleaned up) by readers.  Transient write failures are
retried with backoff.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from pathlib import Path
from typing import Callable, List, Optional, Union

import numpy as np

from ..errors import CheckpointError, SnapshotMismatchError
from ..obs import get_telemetry
from .retry import with_retries

__all__ = [
    "SolverCheckpoint",
    "CheckpointManager",
    "problem_fingerprint",
    "SolutionSnapshot",
    "save_solution",
    "load_solution",
]

_CKPT_RE = re.compile(r"^ckpt-(\d{9})\.npz$")


def problem_fingerprint(transition_t, v: np.ndarray) -> str:
    """Cheap structural fingerprint of a PageRank problem.

    Combines the dimension, edge count and low-cost checksums of the
    matrix structure and jump vector.  Not cryptographic — it exists to
    catch the operational mistake of resuming yesterday's checkpoint
    against today's graph, which would silently converge to garbage.
    """
    n = int(transition_t.shape[0])
    nnz = int(transition_t.nnz)
    indptr_sum = int(np.asarray(transition_t.indptr, dtype=np.int64).sum())
    indices_sum = int(np.asarray(transition_t.indices, dtype=np.int64).sum())
    v_sum = float(np.asarray(v, dtype=np.float64).sum())
    v_sq = float(np.square(np.asarray(v, dtype=np.float64)).sum())
    return f"n={n};nnz={nnz};ip={indptr_sum};ix={indices_sum};vs={v_sum:.12e};vq={v_sq:.12e}"


class SolverCheckpoint:
    """One restored snapshot: the iterate plus solve metadata."""

    __slots__ = ("p", "iteration", "residual", "residual_history", "method", "meta", "path")

    def __init__(
        self,
        p: np.ndarray,
        iteration: int,
        residual: float,
        residual_history: List[float],
        method: str,
        meta: dict,
        path: Optional[Path] = None,
    ) -> None:
        self.p = p
        self.iteration = iteration
        self.residual = residual
        self.residual_history = residual_history
        self.method = method
        self.meta = meta
        self.path = path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SolverCheckpoint(iteration={self.iteration}, "
            f"method={self.method!r}, residual={self.residual:.3e})"
        )


class CheckpointManager:
    """Reads and writes solver checkpoints in one directory.

    Parameters
    ----------
    directory:
        Checkpoint directory; created on first save.
    every:
        Snapshot cadence in iterations (used by the callback built via
        :meth:`callback`).
    keep:
        Number of most-recent checkpoints retained; older ones are
        deleted after a successful save.  Keeping ≥ 2 means a corrupt
        latest file still leaves a usable predecessor.
    retries, backoff:
        Retry policy for transient ``OSError`` during saves.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        every: int = 50,
        keep: int = 2,
        retries: int = 3,
        backoff: float = 0.02,
        sleep: Callable[[float], None] = None,
    ) -> None:
        if every <= 0:
            raise ValueError("checkpoint cadence 'every' must be positive")
        if keep <= 0:
            raise ValueError("must keep at least one checkpoint")
        self.directory = Path(directory)
        self.every = every
        self.keep = keep
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep
        self.saves = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def save(
        self,
        p: np.ndarray,
        iteration: int,
        residual: float,
        *,
        method: str = "",
        residual_history: Optional[List[float]] = None,
        fingerprint: str = "",
        extra: Optional[dict] = None,
    ) -> Path:
        """Atomically write one snapshot; returns the final path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self.directory / f"ckpt-{iteration:09d}.npz"
        tmp = final.with_suffix(".npz.tmp")
        meta = {
            "iteration": int(iteration),
            "residual": float(residual),
            "method": method,
            "fingerprint": fingerprint,
        }
        if extra:
            meta.update(extra)
        history = np.asarray(residual_history or [], dtype=np.float64)

        def _write() -> None:
            with open(tmp, "wb") as fh:
                np.savez_compressed(
                    fh,
                    p=np.asarray(p, dtype=np.float64),
                    residual_history=history,
                    meta=np.asarray(json.dumps(meta)),
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, final)

        kwargs = {"retries": self.retries, "backoff": self.backoff}
        if self._sleep is not None:
            kwargs["sleep"] = self._sleep
        try:
            with_retries(_write, **kwargs)
        except OSError as exc:
            raise CheckpointError(
                f"could not write checkpoint {final}: {exc}"
            ) from exc
        finally:
            if tmp.exists():  # failed replace or partial write
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - best effort
                    pass
        self.saves += 1
        tele = get_telemetry()
        if tele.enabled:
            tele.inc("checkpoint.writes")
            tele.event(
                "checkpoint.write",
                iteration=int(iteration),
                method=method,
                path=final.name,
            )
        self._prune()
        return final

    def _prune(self) -> None:
        paths = self._list()
        for path in paths[: -self.keep]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best effort
                pass

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def _list(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        entries = [
            p for p in self.directory.iterdir() if _CKPT_RE.match(p.name)
        ]
        return sorted(entries)  # zero-padded names sort by iteration

    def load_latest(
        self, *, fingerprint: str = "", strict_fingerprint: bool = True
    ) -> Optional[SolverCheckpoint]:
        """Restore the newest readable checkpoint, or ``None``.

        Corrupt archives are skipped (newest first) so one bad file
        never loses the run.  When ``fingerprint`` is given, snapshots
        from a *different* problem raise :class:`CheckpointError`
        (``strict_fingerprint=False`` downgrades that to a skip).
        """
        for path in reversed(self._list()):
            try:
                ckpt = self._read(path)
            except (
                OSError,
                ValueError,
                KeyError,
                zipfile.BadZipFile,
                json.JSONDecodeError,
            ):
                continue  # corrupt or truncated snapshot — try older
            stored = str(ckpt.meta.get("fingerprint", ""))
            if fingerprint and stored not in ("", fingerprint):
                if strict_fingerprint:
                    raise SnapshotMismatchError(
                        f"checkpoint {path} was written for a different "
                        f"problem (stored fingerprint {stored!r}, expected "
                        f"{fingerprint!r}); refusing to resume — pass a "
                        "fresh --checkpoint-dir or delete it",
                        expected=fingerprint,
                        actual=stored,
                    )
                continue
            return ckpt
        return None

    @staticmethod
    def _read(path: Path) -> SolverCheckpoint:
        with np.load(path, allow_pickle=False) as data:
            p = np.asarray(data["p"], dtype=np.float64)
            history = [float(x) for x in data["residual_history"]]
            meta = json.loads(str(data["meta"]))
        if not np.all(np.isfinite(p)):
            raise ValueError(f"checkpoint {path} contains non-finite values")
        return SolverCheckpoint(
            p,
            int(meta["iteration"]),
            float(meta.get("residual", float("inf"))),
            history,
            str(meta.get("method", "")),
            meta,
            path,
        )

    def clear(self) -> int:
        """Delete all checkpoints (after a successful run); returns the
        number removed."""
        removed = 0
        for path in self._list():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - best effort
                pass
        return removed

    # ------------------------------------------------------------------
    # solver integration
    # ------------------------------------------------------------------

    def callback(
        self,
        *,
        method: str = "",
        fingerprint: str = "",
        history: Optional[List[float]] = None,
    ) -> Callable[[int, np.ndarray, float], None]:
        """Build a solver iteration callback that snapshots every
        ``self.every`` iterations (see ``callback=`` on the solvers)."""

        def _on_iteration(iteration: int, p: np.ndarray, residual: float) -> None:
            if iteration % self.every == 0:
                self.save(
                    p,
                    iteration,
                    residual,
                    method=method,
                    residual_history=history,
                    fingerprint=fingerprint,
                )

        return _on_iteration


# ----------------------------------------------------------------------
# converged-solution snapshots (resume-as-previous)
# ----------------------------------------------------------------------

SOLUTION_FILENAME = "solution.npz"


class SolutionSnapshot:
    """A restored *converged* multi-vector solution.

    Unlike :class:`SolverCheckpoint` — a mid-flight iterate used to
    resume an interrupted solve — a solution snapshot is the terminal
    state of a successful run, kept so the *next* run on a mutated graph
    can warm-start the incremental engine
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
        with np.load(path, allow_pickle=False) as data:
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
