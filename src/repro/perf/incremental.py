"""Gauss–Southwell residual-push updates for evolving host graphs.

A cold batched solve treats every ranking as independent, but the
paper's deployment (Section 5) is a crawl that keeps moving: between
two rankings only a sparse edge delta changes.  Perturbation analysis
(Avrachenkov & Litvak; Fercoq's MaxRank formulation) makes the locality
precise — an edge delta perturbs the linear system

.. math:: p = c\\,T^T p + (1-c)\\,v

only in the columns of the touched sources, so the *previous* solution
is an excellent starting iterate whose residual is supported on the
out-neighbourhoods of the touched nodes.  This module exploits that:

1. **Seed.**  For every touched source ``s``, subtract
   ``(c/d_old)·p_s`` along the old out-row and add ``(c/d_new)·p_s``
   along the new one.  The result is exactly the residual
   ``R = (1-c)V + c T'^T P_old − P_old`` of the *new* system at the old
   solution (common neighbours net out to the weight difference), with
   ``‖R‖₁ ≈ Σ_s c·p_s·‖Δrow_s‖₁`` — tiny when churn hits low-PageRank
   or previously-isolated hosts, as spam-farm appearance does.
2. **Push.**  Gauss–Southwell sweeps: pick the frontier of rows whose
   residual mass exceeds a floor, absorb their residual into the
   iterate, and scatter ``c/outdeg`` of it along their out-edges (one
   CSR row-slice + one C-level sparse·dense product per sweep, both
   jump vectors in one pass).  Dangling rows absorb without
   scattering, so no dangling restriction is needed.  Each sweep
   contracts the global residual by at least ``1 − (1−c)·¾`` (rows
   below the floor hold < tol/4 in total), so termination at the cold
   solve's ``tol`` is guaranteed.
3. **Diffusion escape.**  When the frontier widens past
   ``n / DENSE_CROSSOVER`` rows, row-slicing costs more per sweep than
   a full iteration, so the kernel hands the *remaining correction* to
   the cold block kernel: the error ``e`` of the current iterate
   satisfies ``(I − c·Tᵀ)·e = R``, which is the PageRank system with
   jump vector ``R/(1−c)`` — solved by the same dangling-restricted
   block Jacobi the cold path uses, at the same ``tol``, but starting
   from a residual that is orders of magnitude smaller.  The
   warm-start advantage survives diffusion; only the locality
   advantage is lost.  **Early escape:** a seed frontier that is
   already wide *and* alive — enough frontier rows can scatter
   (non-dangling) to keep it wide — escapes before the first sweep
   instead of paying two full-frontier row-slicing sweeps to discover
   the diffusion.  A wide-but-dead seed (spam-farm churn lands on
   dangling leaves and collapses after one absorb) keeps the push
   path.
4. **Freeze.**  A column whose global L1 residual drops below ``tol``
   absorbs its remaining residual once (a free terminal push) and
   leaves the active set.

The stopping criterion — global L1 *residual* below ``tol`` for pushed
columns, the cold kernel's own criterion for escaped ones — matches or
exceeds the cold solve's; the differential tests pin agreement with a
cold solve to ``10·tol`` per node across the full solver zoo.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from ..errors import ConvergenceError
from ..graph.delta import DeltaApplication
from .cache import OperatorBundle
from .engine import BatchResult, _block_jacobi

__all__ = ["IncrementalResult", "PushStats", "push_update", "seed_residual"]

#: Rows whose residual mass stays below ``tol * FLOOR_FRACTION / n``
#: are never pushed; the total mass they can withhold is bounded by
#: ``tol * FLOOR_FRACTION``, which both preserves the convergence
#: guarantee and keeps the frontier local under sparse churn.
FLOOR_FRACTION = 0.25

#: When the frontier exceeds ``n / DENSE_CROSSOVER`` rows the residual
#: has diffused graph-wide and CSR row-slicing costs more per sweep
#: than a full iteration; the kernel then solves the remaining
#: correction with the cold block kernel instead (see the module
#: docstring, "Diffusion escape").
DENSE_CROSSOVER = 64


class PushStats:
    """Work accounting of one incremental update (telemetry payload)."""

    __slots__ = (
        "sweeps",
        "pushes",
        "max_frontier",
        "colwork",
        "seed_sources",
        "seed_norms",
        "seed_frontier",
        "live_seed_frontier",
        "escapes",
        "escape_sweeps",
        "cold_work_estimate",
        "speedup_estimate",
    )

    def __init__(self) -> None:
        self.sweeps = 0
        self.pushes = 0
        self.max_frontier = 0
        self.colwork = 0
        self.seed_sources = 0
        self.seed_norms: Optional[np.ndarray] = None
        self.seed_frontier = 0
        self.live_seed_frontier = 0
        self.escapes = 0
        self.escape_sweeps = 0
        self.cold_work_estimate = 0
        self.speedup_estimate = 0.0

    def as_dict(self) -> dict:
        return {
            "sweeps": self.sweeps,
            "pushes": self.pushes,
            "max_frontier": self.max_frontier,
            "colwork": self.colwork,
            "seed_sources": self.seed_sources,
            "seed_norms": (
                [float(x) for x in self.seed_norms]
                if self.seed_norms is not None
                else []
            ),
            "seed_frontier": self.seed_frontier,
            "live_seed_frontier": self.live_seed_frontier,
            "escapes": self.escapes,
            "escape_sweeps": self.escape_sweeps,
            "cold_work_estimate": self.cold_work_estimate,
            "speedup_estimate": self.speedup_estimate,
        }


class IncrementalResult(BatchResult):
    """A :class:`BatchResult` plus push-solver work accounting."""

    __slots__ = ("stats",)

    def __init__(self, *args, stats: PushStats, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = stats


def _gather_rows(graph, srcs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate the out-rows of ``srcs`` (counts = their degrees)."""
    starts = graph.indptr[srcs]
    offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return graph.indices[np.repeat(starts, counts) + offsets]


def seed_residual(
    application: DeltaApplication,
    previous_scores: np.ndarray,
    *,
    damping: float,
) -> np.ndarray:
    """Residual of the *new* system at the old solution, seeded sparsely.

    Only the touched sources' out-rows are visited, so the cost is
    O(Σ deg of touched nodes), independent of graph size.
    """
    touched = application.touched_sources
    residual = np.zeros_like(previous_scores)
    for graph, sign in ((application.before, -1.0), (application.after, 1.0)):
        deg = graph.out_degree()[touched]
        live = deg > 0
        srcs = touched[live]
        counts = deg[live]
        if len(srcs) == 0:
            continue
        targets = _gather_rows(graph, srcs, counts)
        weights = np.repeat(sign * damping / counts, counts)
        contribution = weights[:, None] * previous_scores[
            np.repeat(srcs, counts)
        ]
        np.add.at(residual, targets, contribution)
    return residual


def push_update(
    bundle: OperatorBundle,
    application: DeltaApplication,
    previous_scores: np.ndarray,
    vectors: np.ndarray,
    *,
    damping: float,
    tol: float,
    max_iter: int,
    labels: Sequence[str],
    check_every: int,
    prev_iterations: Optional[np.ndarray] = None,
) -> IncrementalResult:
    """Run the residual-push update; returns scores at the cold ``tol``.

    ``bundle`` must be the operator bundle of ``application.after``
    (typically from :meth:`OperatorCache.derive_for`);
    ``previous_scores`` is the ``(n, k)`` solution on
    ``application.before`` for the same stacked jump ``vectors``.
    ``check_every`` is the residual-check cadence of the diffusion
    escape's block kernel.
    """
    c = damping
    after = application.after
    n, k = previous_scores.shape
    stats = PushStats()
    stats.seed_sources = len(application.touched_sources)

    residual = seed_residual(application, previous_scores, damping=c)
    stats.seed_norms = np.abs(residual).sum(axis=0)

    # scatter operator: row s of cT' holds c/outdeg(s) on s's out-edges,
    # assembled directly from the mutated graph's CSR (no transpose).
    # Built lazily — an update that escapes before its first push sweep
    # (wide live seed) never pays the O(edges) assembly.
    out_deg = after.out_degree()
    ct_rows: Optional[sparse.csr_matrix] = None

    def _scatter_operator() -> sparse.csr_matrix:
        nonlocal ct_rows
        if ct_rows is None:
            inv = np.zeros(n)
            scattering = out_deg > 0
            inv[scattering] = c / out_deg[scattering]
            ct_rows = sparse.csr_matrix(
                (np.repeat(inv, out_deg), after.indices, after.indptr),
                shape=(n, n),
            )
        return ct_rows

    scores = previous_scores.astype(np.float64, copy=True)
    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.zeros(k, dtype=np.float64)
    converged = np.zeros(k, dtype=bool)
    floor = tol * FLOOR_FRACTION / max(n, 1)
    dense_cutoff = max(32, n // DENSE_CROSSOVER)

    cols = np.arange(k)
    totals = np.abs(residual).sum(axis=0)

    def _freeze(local: np.ndarray, sweep: int) -> None:
        frozen = cols[local]
        # terminal absorb: adding the sub-tol residual once is a free
        # push that tightens the iterate without another sweep
        scores[:, frozen] += residual[:, frozen]
        iterations[frozen] = sweep
        residuals[frozen] = totals[frozen]
        converged[frozen] = True

    sweep = 0
    prev_wide = False
    while len(cols):
        done = totals[cols] < tol
        if done.any():
            _freeze(done, sweep)
            cols = cols[~done]
            if len(cols) == 0:
                break
        if sweep >= max_iter:
            iterations[cols] = sweep
            residuals[cols] = totals[cols]
            break
        active_residual = residual[:, cols]
        row_mass = np.abs(active_residual).sum(axis=1)
        act = np.flatnonzero(row_mass > floor)
        if len(act) == 0:
            # every remaining row is below the floor: totals < tol/4,
            # handled by the freeze at the top of the next pass
            totals[cols] = np.abs(active_residual).sum(axis=0)
            continue
        # a single wide frontier is common even for shallow deltas (the
        # seed lands on every inserted target at once) and can collapse
        # after one absorb; two wide frontiers in a row mean the
        # residual is actually diffusing.  The one exception: a seed
        # frontier that is wide *and alive* — enough of its rows can
        # scatter — cannot collapse, so waiting the two sweeps only
        # pays two full-frontier row-slicing passes for nothing;
        # escape immediately (farm-style churn lands on dangling
        # leaves: wide but dead, and keeps the push path)
        wide = len(act) >= dense_cutoff
        live_rows = int(np.count_nonzero(out_deg[act] > 0))
        if sweep == 0:
            stats.seed_frontier = len(act)
            stats.live_seed_frontier = live_rows
        early = sweep == 0 and wide and live_rows >= dense_cutoff
        if (wide and prev_wide) or early:
            # diffusion escape: solve (I - cT')e = R for the remaining
            # correction with the cold restricted block kernel, warm
            # start intact (the jump R/(1-c) is orders of magnitude
            # smaller than a cold solve's)
            correction = _block_jacobi(
                bundle,
                np.ascontiguousarray(active_residual) / (1.0 - c),
                damping=c,
                tol=tol,
                max_iter=max(max_iter - sweep, 1),
                check_every=check_every,
                labels=[labels[j] for j in cols],
            )
            scores[:, cols] += correction.scores
            iterations[cols] = sweep + correction.iterations
            residuals[cols] = correction.residuals
            converged[cols] = correction.converged
            escape_iters = int(correction.iterations.max(initial=0))
            stats.sweeps = sweep + escape_iters
            stats.pushes += n * escape_iters
            stats.max_frontier = n
            stats.colwork += int(after.num_edges) * escape_iters
            stats.escapes = 1
            stats.escape_sweeps = escape_iters
            cols = cols[:0]
            break
        prev_wide = wide
        delta = active_residual[act]
        scores[np.ix_(act, cols)] += delta
        residual[np.ix_(act, cols)] = 0.0
        scatter = _scatter_operator()[act].T @ delta
        residual[:, cols] += scatter
        totals[cols] = np.abs(residual[:, cols]).sum(axis=0)
        sweep += 1
        stats.sweeps = sweep
        stats.pushes += len(act)
        stats.max_frontier = max(stats.max_frontier, len(act))
        stats.colwork += int(out_deg[act].sum())

    nnz = after.num_edges
    if prev_iterations is not None and len(prev_iterations):
        cold_iters = float(np.mean(prev_iterations))
    else:
        cold_iters = float(max(iterations.max(initial=1), 1))
    seed_work = int(
        application.before.out_degree()[application.touched_sources].sum()
        + out_deg[application.touched_sources].sum()
    )
    stats.cold_work_estimate = int(cold_iters * nnz)
    stats.speedup_estimate = stats.cold_work_estimate / max(
        stats.colwork + seed_work, 1
    )

    return IncrementalResult(
        scores,
        iterations,
        residuals,
        converged,
        "incremental_push",
        labels,
        stats=stats,
    )
