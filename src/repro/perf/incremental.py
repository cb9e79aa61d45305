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
   iterate, and scatter ``c/outdeg`` of it along their out-edges, both
   jump vectors in one pass.  A sweep's search and scatter cost
   O(frontier + its out-edges): the frontier is searched only among
   the rows the last sweep (or the seed) landed on, since a pushed row
   is zeroed and a row below the floor rises only by receiving
   scatter; the frontier's out-rows are read from the graph's CSR, and
   one C-level sparse·dense product sums what lands on each of those
   rows alone, in the order the whole-graph product would (no n×n
   scatter operator, no ``n``-row output).  The column L1 norms the
   stopping test reads are taken over the rows the seed and the sweeps
   have landed on (kept sorted), outside which the residual is zero:
   two or more columns are summed row by row, so that is the whole
   sum bit for bit; a single column keeps its whole pairwise sum, the
   one full-length pass left.  Dangling rows absorb without
   scattering, so no dangling restriction is needed.  Each sweep
   contracts the global residual by at least ``1 − (1−c)·¾`` (rows
   below the floor hold < tol/4 in total), so termination at the cold
   solve's ``tol`` is guaranteed.
3. **Diffusion escape.**  When the frontier widens past
   ``n / DENSE_CROSSOVER`` rows, row-slicing costs more per sweep than
   a full product, so the kernel hands the *window's own system*
   ``p = c·T'ᵀp + (1−c)·v`` to the cold block kernel, warm-started
   from the current iterate: the same dangling-restricted block
   BiCGSTAB the cold path uses, on the same jump vectors, at the same
   ``tol`` and with the same guarantee (every column within ``c·tol``
   of the window's exact solution), but starting orders of magnitude
   closer to it.  The warm-start advantage survives diffusion; only
   the locality advantage is lost.  The kernel writes its solution
   into the iterate, and the push residual is released before the
   kernel starts, so of the push phase's (n, k) arrays only the
   iterate lives through it.  ``PushStats.escape_sweeps`` counts the
   kernel's ``(Tᵀ)_SS`` products.
   **Early escape:** a frontier that is wide *and* alive — enough of
   its rows can scatter (non-dangling) to keep it wide — escapes at
   the sweep it appears, whichever sweep that is, instead of paying
   another full-frontier row-slicing sweep to discover the diffusion;
   so does a second wide frontier in a row.  A wide-but-dead frontier
   (spam-farm churn lands on dangling leaves and collapses after one
   absorb) keeps the push path.
4. **Freeze.**  A column whose global L1 residual drops below ``tol``
   absorbs its remaining residual once (a free terminal push) and
   leaves the active set.

The stopping criterion — global L1 *residual* below ``tol`` for pushed
columns, the cold kernel's own criterion for escaped ones — matches or
exceeds the cold solve's; the differential tests pin agreement with a
cold solve to ``10·tol`` per node across the full solver zoo.  An
escaping window lands within ``c·tol`` of its own system whatever
error it inherited, because the kernel solves that system from the
current scores.  A window that finishes by pushing does not: its seed
treats the previous epoch's scores as exact, so their error carries
into later windows until an escape resets it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..errors import ConvergenceError
from ..graph.delta import DeltaApplication
from ..graph.webgraph import sorted_unique
from .cache import OperatorBundle
from .engine import BatchResult, _block_bicgstab, _column_l1

__all__ = ["IncrementalResult", "PushStats", "push_update", "seed_residual"]

#: Rows whose residual mass stays below ``tol * FLOOR_FRACTION / n``
#: are never pushed; the total mass they can withhold is bounded by
#: ``tol * FLOOR_FRACTION``, which both preserves the convergence
#: guarantee and keeps the frontier local under sparse churn.
FLOOR_FRACTION = 0.25

#: When the frontier exceeds ``n / DENSE_CROSSOVER`` rows the residual
#: has diffused graph-wide and CSR row-slicing costs more per sweep
#: than a full iteration; the kernel then solves the window's system
#: with the cold block kernel instead, from the current iterate (see
#: the module docstring, "Diffusion escape").
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


def seed_residual(
    application: DeltaApplication,
    previous_scores: np.ndarray,
    *,
    damping: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Residual of the *new* system at the old solution, seeded sparsely.

    Only the touched sources' out-rows are visited, so the cost is
    O(Σ deg of touched nodes), independent of graph size.  Returns the
    ``(n, k)`` residual and the sorted rows the seed landed on; the
    residual is zero on every other row.
    """
    touched = application.touched_sources
    residual = np.zeros_like(previous_scores)
    landed = [np.empty(0, dtype=np.int64)]
    for graph, sign in ((application.before, -1.0), (application.after, 1.0)):
        deg = graph.out_degree()[touched]
        live = deg > 0
        srcs = touched[live]
        counts = deg[live]
        if len(srcs) == 0:
            continue
        targets = graph.out_rows(srcs)
        weights = np.repeat(sign * damping / counts, counts)
        contribution = weights[:, None] * previous_scores[
            np.repeat(srcs, counts)
        ]
        np.add.at(residual, targets, contribution)
        landed.append(targets)
    return residual, sorted_unique(np.concatenate(landed))


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
    prev_iterations: Optional[np.ndarray] = None,
) -> IncrementalResult:
    """Run the residual-push update; returns scores at the cold ``tol``.

    ``bundle`` must be the operator bundle of ``application.after``
    (typically from :meth:`OperatorCache.derive_for`);
    ``previous_scores`` is the ``(n, k)`` solution on
    ``application.before`` for the same stacked jump ``vectors``.
    """
    c = damping
    after = application.after
    n, k = previous_scores.shape
    stats = PushStats()
    stats.seed_sources = len(application.touched_sources)

    residual, candidates = seed_residual(
        application, previous_scores, damping=c
    )
    # the rows the residual can be non-zero on: the seed's and every
    # sweep's landing rows, ascending
    support = candidates
    in_support = np.zeros(n, dtype=bool)
    in_support[support] = True
    stats.seed_norms = _column_l1(residual if k == 1 else residual[support])

    out_deg = after.out_degree()
    # a row's position among the landing rows of the current sweep;
    # only the entries of those rows are ever written or read
    slot = np.empty(n, dtype=np.int64)

    def _scatter(rows: np.ndarray, pushed: np.ndarray):
        """The sorted rows that frontier ``rows`` scatters ``pushed``
        onto, and the sum landing on each.

        Row x of cT' holds c/outdeg(x) on x's out-edges, read from the
        mutated graph's CSR for the frontier alone, so no n×n operator
        is assembled.  The product has one row per landing row, not
        ``n``, but it is the CSC kernel of ``cT'[rows]ᵀ @ pushed``,
        which sums each row over the frontier in order: every landing
        row gets the bits the whole-graph product gives it.
        """
        counts = out_deg[rows]
        targets = after.out_rows(rows)
        landing = sorted_unique(targets)
        slot[landing] = np.arange(len(landing))
        live = counts > 0
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        scatter = sparse.csc_matrix(
            (np.repeat(c / counts[live], counts[live]), slot[targets], indptr),
            shape=(len(landing), len(rows)),
        )
        return landing, scatter @ pushed

    scores = previous_scores.astype(np.float64, copy=True)
    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.zeros(k, dtype=np.float64)
    converged = np.zeros(k, dtype=bool)
    floor = tol * FLOOR_FRACTION / max(n, 1)
    dense_cutoff = max(32, n // DENSE_CROSSOVER)

    cols = np.arange(k)
    totals = stats.seed_norms.copy()

    def _at(rows: np.ndarray):
        """Index of ``rows`` in the active columns: plain row indexing
        while every column is active."""
        return rows if len(cols) == k else np.ix_(rows, cols)

    def _active_norms() -> np.ndarray:
        """The active columns' L1 norms.  Two or more columns are
        summed row by row (:func:`_column_l1`), and a zero row adds
        nothing, so a sum over the support is the whole one bit for
        bit; a single column keeps its whole pairwise sum."""
        if len(cols) == 1:
            return _column_l1(residual if k == 1 else residual[:, cols])
        return _column_l1(
            residual[support] if len(cols) == k
            else residual[np.ix_(support, cols)]
        )

    def _freeze(local: np.ndarray, sweep: int) -> None:
        frozen = cols[local]
        # terminal absorb: adding the sub-tol residual once is a free
        # push that tightens the iterate without another sweep
        if len(frozen) == k:
            np.add(scores, residual, out=scores)
        else:
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
        # only rows above the floor are pushed, a pushed row is zeroed
        # and a row below the floor rises only by receiving scatter: the
        # frontier lies among the rows the last sweep (or the seed)
        # landed on
        pool = residual[_at(candidates)]
        above = np.abs(pool).sum(axis=1) > floor
        act = candidates[above]
        if len(act) == 0:
            # every remaining row is below the floor: totals < tol/4,
            # handled by the freeze at the top of the next pass
            totals[cols] = _active_norms()
            continue
        # a wide frontier is common even for shallow deltas (the seed
        # lands on every inserted target at once) and can collapse after
        # one absorb, unless it is *alive*: enough of its rows scatter to
        # keep it wide.  A live wide frontier, or a second wide one in a
        # row, means the residual is diffusing, and pushing it costs
        # more than a full sweep; farm-style churn lands on dangling
        # leaves (wide but dead) and keeps the push path
        wide = len(act) >= dense_cutoff
        live_rows = int(np.count_nonzero(out_deg[act] > 0))
        if sweep == 0:
            stats.seed_frontier = len(act)
            stats.live_seed_frontier = live_rows
        if wide and (prev_wide or live_rows >= dense_cutoff):
            # diffusion escape: the cold restricted block kernel on the
            # window's own system, warm-started from the current
            # iterate, which it overwrites.  The push residual and its
            # bookkeeping are dead from here on and go before the sweeps
            residual = pool = slot = support = in_support = None
            every = len(cols) == k
            escape = _block_bicgstab(
                bundle,
                vectors if every else vectors[:, cols],
                damping=c,
                tol=tol,
                max_iter=max(max_iter - sweep, 1),
                labels=[labels[j] for j in cols],
                x0=scores if every else scores[:, cols],
            )
            if not every:
                scores[:, cols] = escape.scores
            iterations[cols] = sweep + escape.iterations
            residuals[cols] = escape.residuals
            converged[cols] = escape.converged
            escape_iters = int(escape.iterations.max(initial=0))
            stats.sweeps = sweep + escape_iters
            stats.pushes += n * escape_iters
            stats.max_frontier = n
            stats.colwork += int(after.num_edges) * escape_iters
            stats.escapes = 1
            stats.escape_sweeps = escape_iters
            cols = cols[:0]
            break
        prev_wide = wide
        pushed = pool[above]
        scores[_at(act)] += pushed
        residual[_at(act)] = 0.0
        candidates, landed = _scatter(act, pushed)
        residual[_at(candidates)] += landed
        fresh = candidates[~in_support[candidates]]
        if len(fresh):
            in_support[fresh] = True
            support = np.insert(
                support, np.searchsorted(support, fresh), fresh
            )
        totals[cols] = _active_norms()
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
