"""The batched multi-vector PageRank engine.

Spam-mass estimation is a *multi-solve* workload: Algorithm 2 needs the
uniform-jump PageRank ``p`` and the core-jump PageRank ``p′`` over the
same operator, and the evaluation suites re-solve that operator dozens
of times (threshold sweeps, core-size ablations, γ studies).
:class:`PagerankEngine` amortizes everything the solves share:

* the CSR operator ``Tᵀ`` is built **once** per graph and held in a
  bounded LRU (:class:`~repro.perf.cache.OperatorCache`);
* :meth:`PagerankEngine.solve_many` runs stacked jump vectors as a
  single dense-block Jacobi iteration on the **dangling-restricted**
  subsystem (see :mod:`repro.perf.cache`), with per-column convergence
  freezing and periodic residual checks — one matrix traversal per
  iteration serves every column;
* Monte-Carlo endpoint sampling parallelizes across processes with
  deterministic per-worker RNG streams
  (:func:`~repro.perf.parallel.pagerank_montecarlo_parallel`).

The block iteration is algebraically the plain Jacobi of Algorithm 1:
columns of ``Tᵀ`` indexed by dangling nodes are zero, so the iterate
restricted to the non-dangling set ``S`` evolves autonomously,

.. math:: p_S^{(i)} = c\\,(T^T)_{SS}\\, p_S^{(i-1)} + (1-c)\\, v_S ,

and the dangling components follow in closed form once ``p_S`` has
converged: ``p_D = c (Tᵀ)_{DS} p_S + (1−c) v_D``.  The reported
residual is the *full-vector* L1 change ``‖p⁽ⁱ⁾ − p⁽ⁱ⁻¹⁾‖₁`` (the
restricted change plus the induced dangling change), i.e. exactly the
stopping criterion of :func:`repro.core.solvers.jacobi` — the batched
kernel converges to the same vectors within the same tolerance.

The loop is written once, in :func:`_block_jacobi`, against any
operator that exposes the index arrays ``non_dangling``/``dangling``,
its entry count ``nnz`` and ``row_blocks(parts)``: ``(Tᵀ)_SS`` and
``(Tᵀ)_DS`` as contiguous :class:`~repro.perf.cache.RowBlock` row
ranges.  An in-memory graph's :class:`~repro.perf.cache.OperatorBundle`
splits its two matrices into ``parts`` blocks of about equal entries
that point into the bundle's own arrays; a
:class:`~repro.graph.sharded.ShardedWebGraph`'s
:class:`~repro.perf.sharded.ShardedOperator` hands over its per-shard
blocks.  Every product writes each block's rows straight into one
output array with the kernel ``csr_matrix @ ndarray`` itself calls
(:func:`_block_product`).  For operators of
:data:`PARALLEL_MIN_NNZ` entries and more, the blocks run on a thread
pool that lives for one solve and has one thread per CPU this process
may run on; smaller ones sweep inline.  A CSR product
computes every output row on its own, in storage order, so the rows
are bitwise those of the whole-matrix product however the rows are
split and whichever thread runs them; the residual reductions run on
the calling thread over whole contiguous arrays.  Both backends, and
threaded or inline sweeps, therefore produce bitwise-identical solves.
The incremental engine's diffusion escape
(:func:`repro.perf.incremental.push_update`) runs the same loop.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import List, Optional, Sequence, Union

import numpy as np
from scipy.sparse import _sparsetools

from ..errors import ConvergenceError
from ..core.solvers import SolverResult, solve as dispatch_solve
from ..core.pagerank import _resolve_jump  # single source of jump semantics
from ..graph.sharded import ShardedWebGraph
from ..graph.webgraph import WebGraph
from ..obs import get_telemetry
from . import sharded as _sharded
from .cache import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_SHARD_CACHE_SIZE,
    OperatorBundle,
    OperatorCache,
    RowBlock,
)

__all__ = [
    "BatchResult",
    "PagerankEngine",
    "get_engine",
    "set_engine",
    "configure_engine",
]

#: Cadence of residual checks inside the block iteration.  Between
#: checks the loop performs pure fused update steps (one sparse matmul,
#: two in-place vector ops); the L1-change reduction — as expensive as
#: the matvec itself on thin blocks — runs only every ``CHECK_EVERY``-th
#: iteration, so reported iteration counts may exceed the sequential
#: solver's by up to ``CHECK_EVERY − 1``.
DEFAULT_CHECK_EVERY = 8

#: Operators with fewer stored entries than this sweep inline, on the
#: calling thread.  Measured on 2 vCPUs (docs/perf.md, "Parallel
#: sweeps"): up to ~250k entries handing blocks to threads made solves
#: slower, up to ~1M the two traded places from run to run, and from
#: ~2.4M on threads saved a fifth of the solve or more.
PARALLEL_MIN_NNZ = 1_000_000

JumpLike = Union[None, np.ndarray, Sequence[int]]


class BatchResult:
    """Outcome of a stacked multi-vector solve.

    Attributes
    ----------
    scores:
        ``(n, k)`` array; column ``j`` solves ``(I − c Tᵀ) p = (1−c) vⱼ``.
    iterations, residuals, converged:
        Per-column diagnostics (``int64`` / ``float64`` / ``bool``).
    method:
        ``"batched_jacobi"`` for the block kernel, ``"incremental_push"``
        for a warm update.
    labels:
        Per-column labels (named in convergence errors and telemetry).
    """

    __slots__ = (
        "scores",
        "iterations",
        "residuals",
        "converged",
        "method",
        "labels",
    )

    def __init__(
        self,
        scores: np.ndarray,
        iterations: np.ndarray,
        residuals: np.ndarray,
        converged: np.ndarray,
        method: str,
        labels: Sequence[str],
    ) -> None:
        self.scores = scores
        self.iterations = iterations
        self.residuals = residuals
        self.converged = converged
        self.method = method
        self.labels = list(labels)

    @property
    def num_columns(self) -> int:
        return self.scores.shape[1]

    def column(self, j: int) -> SolverResult:
        """View column ``j`` as a standard :class:`SolverResult`."""
        return SolverResult(
            self.scores[:, j].copy(),
            int(self.iterations[j]),
            float(self.residuals[j]),
            bool(self.converged[j]),
            self.method,
        )

    def columns(self) -> List[SolverResult]:
        """All columns as :class:`SolverResult` objects, in order."""
        return [self.column(j) for j in range(self.num_columns)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ok = int(self.converged.sum())
        return (
            f"BatchResult({self.method}, {ok}/{self.num_columns} columns "
            f"converged, max {int(self.iterations.max(initial=0))} iters)"
        )


def _validate_block(vectors: np.ndarray, damping: float, tol: float) -> None:
    if vectors.ndim != 2:
        raise ValueError("stacked jump vectors must form an (n, k) array")
    if vectors.shape[1] == 0:
        raise ValueError("solve_many needs at least one jump vector")
    if not (0.0 < damping < 1.0):
        raise ValueError(f"damping factor must be in (0, 1), got {damping}")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    # NaN passes every comparison below and would sweep to max_iter
    if not np.isfinite(vectors).all():
        raise ValueError("random-jump vectors must be finite")
    if np.any(vectors < 0):
        raise ValueError("random-jump vectors must be non-negative")
    norms = vectors.sum(axis=0)
    if np.any(norms <= 0.0):
        raise ValueError("every random-jump vector needs positive L1 norm")
    if np.any(norms > 1.0 + 1e-9):
        raise ValueError(
            "random-jump vector norms exceed 1 (paper requires "
            "0 < ||v|| <= 1 per column)"
        )


class PagerankEngine:
    """Caching, batching PageRank solver (see the module docstring).

    Parameters
    ----------
    cache_size:
        Bound of the operator LRU (graphs, not bytes).
    method:
        Default single-solve method (block solves are always Jacobi —
        the only iteration whose stacked form is a pure sparse matmul).
    check_every:
        Residual-check cadence of the block kernel, in cold solves and
        in the diffusion escape of :meth:`update_many` alike.
    workers:
        Default process count for Monte-Carlo sampling (``None`` =
        serial in-process execution).
    """

    def __init__(
        self,
        cache_size: int = DEFAULT_CACHE_SIZE,
        *,
        method: str = "jacobi",
        check_every: int = DEFAULT_CHECK_EVERY,
        workers: Optional[int] = None,
    ) -> None:
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self.cache = OperatorCache(cache_size)
        # per-shard operator blocks live in their own LRU: block keys
        # are ~2 per shard per graph, so sharing the (small) whole-graph
        # cache would thrash both
        self.shard_cache = OperatorCache(DEFAULT_SHARD_CACHE_SIZE)
        self.method = method
        self.check_every = check_every
        self.workers = workers

    # ------------------------------------------------------------------
    # operator access
    # ------------------------------------------------------------------

    def bundle(self, graph: WebGraph) -> OperatorBundle:
        """The graph's cached operator bundle (built on first sight)."""
        if isinstance(graph, ShardedWebGraph):
            raise TypeError(
                "a sharded graph has no assembled operator bundle — "
                "its operator exists only as per-shard blocks; use "
                "solve()/solve_many(), which run against those blocks "
                "automatically"
            )
        return self.cache.bundle_for(graph)

    def operator(self, graph: WebGraph):
        """The graph's ``Tᵀ`` in CSR form, from the cache."""
        return self.bundle(graph).transition_t

    # ------------------------------------------------------------------
    # single solves
    # ------------------------------------------------------------------

    def solve(
        self,
        graph: WebGraph,
        v: JumpLike = None,
        *,
        damping: float = 0.85,
        tol: float = 1e-12,
        max_iter: int = 10_000,
        method: Optional[str] = None,
        check: bool = False,
        **solver_options,
    ) -> SolverResult:
        """One PageRank solve against the cached operator.

        Semantically identical to
        :func:`repro.core.pagerank.pagerank`, minus the per-call
        operator rebuild.  Extra options go to
        :func:`repro.core.solvers.solve` (warm starts, residual tracking,
        callbacks).

        Sharded graphs route through the block kernel (only the Jacobi
        method exists out of core) and come back as the single column
        of a one-vector batch — bitwise the in-memory Jacobi result.
        """
        if isinstance(graph, ShardedWebGraph):
            chosen = method or self.method
            if chosen != "jacobi":
                raise ValueError(
                    f"method {chosen!r} is not available on the sharded "
                    "backend; only the Jacobi block iteration runs "
                    "shard-by-shard"
                )
            if solver_options:
                raise ValueError(
                    "solver options "
                    f"{sorted(solver_options)} are not supported on the "
                    "sharded backend"
                )
            batch = self.solve_many(
                graph,
                [v],
                damping=damping,
                tol=tol,
                max_iter=max_iter,
                check=check,
            )
            return batch.column(0)
        bundle = self.bundle(graph)
        jump = _resolve_jump(graph.num_nodes, v)
        return dispatch_solve(
            method or self.method,
            bundle.transition_t,
            jump,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
            check=check,
            **solver_options,
        )

    # ------------------------------------------------------------------
    # stacked solves
    # ------------------------------------------------------------------

    def solve_many(
        self,
        graph: WebGraph,
        vectors: Union[np.ndarray, Sequence[JumpLike]],
        *,
        damping: float = 0.85,
        tol: float = 1e-12,
        max_iter: int = 10_000,
        check: bool = True,
        labels: Optional[Sequence[str]] = None,
    ) -> BatchResult:
        """Solve ``k`` stacked jump vectors in one batched pass.

        Both backends run :func:`_block_jacobi`: an in-memory graph
        against its cached :class:`OperatorBundle`, a sharded graph
        against its :class:`~repro.perf.sharded.ShardedOperator`
        (per-shard blocks cached in ``shard_cache``).

        Parameters
        ----------
        vectors:
            An ``(n, k)`` array whose columns are jump vectors, or a
            sequence of jump specs (``None`` → uniform, arrays, node-id
            iterables — the same convention as
            :func:`~repro.core.pagerank.pagerank`).
        check:
            Raise :class:`~repro.errors.ConvergenceError` if any column
            fails to converge (the default — a silently unconverged
            column poisons the mass estimates downstream).
        labels:
            Per-column names, used in convergence errors and telemetry.
        """
        n = graph.num_nodes
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            stacked = np.array(vectors, dtype=np.float64, copy=True)
            if stacked.shape[0] != n:
                raise ValueError(
                    f"stacked vectors have {stacked.shape[0]} rows, "
                    f"expected {n}"
                )
        else:
            columns = [_resolve_jump(n, spec) for spec in vectors]
            stacked = np.stack(columns, axis=1).astype(np.float64)
        _validate_block(stacked, damping, tol)
        k = stacked.shape[1]
        if labels is None:
            labels = [f"col{j}" for j in range(k)]
        elif len(labels) != k:
            raise ValueError(
                f"{len(labels)} labels for {k} stacked vectors"
            )
        if isinstance(graph, ShardedWebGraph):
            op = _sharded.sharded_operator_for(self.shard_cache, graph)
        else:
            op = self.bundle(graph)

        tele = get_telemetry()
        if not tele.enabled:
            return self._run_batch(
                op, stacked, labels, damping, tol, max_iter, check,
            )
        with tele.span("solve:batch", columns=k) as sp:
            result = self._run_batch(
                op, stacked, labels, damping, tol, max_iter, check,
            )
            tele.inc("engine.batched_solves")
            tele.inc("engine.columns", k)
            for j, label in enumerate(labels):
                tele.event(
                    "solver.column",
                    label=label,
                    iterations=int(result.iterations[j]),
                    converged=bool(result.converged[j]),
                    method=result.method,
                )
            sp.set("method", result.method)
            sp.set("max_iterations", int(result.iterations.max(initial=0)))
            return result

    def _run_batch(
        self,
        op,
        stacked: np.ndarray,
        labels: Sequence[str],
        damping: float,
        tol: float,
        max_iter: int,
        check: bool,
    ) -> BatchResult:
        """The untraced core of :meth:`solve_many`."""
        result = _block_jacobi(
            op,
            stacked,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
            check_every=self.check_every,
            labels=labels,
        )
        if check and not bool(result.converged.all()):
            bad = [
                labels[j]
                for j in range(stacked.shape[1])
                if not result.converged[j]
            ]
            raise ConvergenceError(
                f"batched solve did not converge for column(s) "
                f"{', '.join(bad)} within {max_iter} iterations; pass "
                "check=False for best-effort vectors",
                result=result.column(labels.index(bad[0])),
            )
        return result

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------

    def update_many(
        self,
        application,
        previous: Union[BatchResult, np.ndarray],
        vectors: Union[np.ndarray, Sequence[JumpLike]],
        *,
        damping: float = 0.85,
        tol: float = 1e-12,
        max_iter: int = 10_000,
        check: bool = True,
        labels: Optional[Sequence[str]] = None,
    ):
        """Warm-start a batched solve from a previous solution.

        Instead of iterating from the jump vector, seed the residual of
        the mutated system at ``previous`` (supported only on the
        delta's touched out-rows) and run Gauss–Southwell residual
        pushes until the global residual meets the same ``tol`` as a
        cold solve — see :mod:`repro.perf.incremental`.

        Parameters
        ----------
        application:
            A :class:`~repro.graph.delta.DeltaApplication` pairing the
            previous graph with the mutated one — or a *sequence* of
            chained applications, which are coalesced into one composed
            splice and one warm solve
            (:func:`~repro.graph.delta.compose_applications`): the
            batch pays one operator derivation and one residual seed
            for the whole window, with net-cancelling edits dropping
            out entirely.  The operator bundle for the mutated graph is
            *derived* from the cached parent bundle when possible
            (touched columns respliced, child fingerprint derived in
            O(|delta|)).
        previous:
            The converged :class:`BatchResult` of the same ``vectors``
            on the (first) application's ``before`` graph, or a bare
            ``(n, k)`` score array.
        vectors:
            Same conventions as :meth:`solve_many`; must be the jump
            vectors the previous solution was computed with.
        """
        from ..graph.delta import compose_applications
        from .incremental import push_update

        if isinstance(application, (list, tuple)):
            application = compose_applications(application)
        n = application.after.num_nodes
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            stacked = np.array(vectors, dtype=np.float64, copy=True)
        else:
            stacked = np.stack(
                [_resolve_jump(n, spec) for spec in vectors], axis=1
            ).astype(np.float64)
        _validate_block(stacked, damping, tol)
        k = stacked.shape[1]
        prev_iterations = None
        if isinstance(previous, BatchResult):
            prev_scores = previous.scores
            prev_iterations = previous.iterations
        else:
            prev_scores = np.asarray(previous, dtype=np.float64)
        if prev_scores.shape != (n, k):
            raise ValueError(
                f"previous scores have shape {prev_scores.shape}, "
                f"expected {(n, k)}"
            )
        if labels is None:
            labels = [f"col{j}" for j in range(k)]
        elif len(labels) != k:
            raise ValueError(f"{len(labels)} labels for {k} stacked vectors")
        bundle = self.cache.derive_for(application)

        tele = get_telemetry()
        if tele.enabled:
            with tele.span(
                "solve:incremental",
                columns=k,
                touched=len(application.touched_sources),
                delta=len(application.delta),
            ) as sp:
                result = push_update(
                    bundle, application, prev_scores, stacked,
                    damping=damping, tol=tol, max_iter=max_iter,
                    labels=labels, prev_iterations=prev_iterations,
                    check_every=self.check_every,
                )
                tele.inc("engine.incremental_updates")
                tele.inc("incremental.pushes", result.stats.pushes)
                tele.inc("incremental.sweeps", result.stats.sweeps)
                if result.stats.escapes:
                    tele.inc("incremental.escapes", result.stats.escapes)
                tele.event(
                    "incremental.update",
                    sweeps=result.stats.sweeps,
                    pushes=result.stats.pushes,
                    max_frontier=result.stats.max_frontier,
                    escapes=result.stats.escapes,
                    speedup_estimate=round(
                        result.stats.speedup_estimate, 2
                    ),
                )
                sp.set("sweeps", result.stats.sweeps)
                sp.set("pushes", result.stats.pushes)
                sp.set("max_frontier", result.stats.max_frontier)
                sp.set("escapes", result.stats.escapes)
                sp.set(
                    "speedup_estimate",
                    round(result.stats.speedup_estimate, 2),
                )
        else:
            result = push_update(
                bundle, application, prev_scores, stacked,
                damping=damping, tol=tol, max_iter=max_iter,
                labels=labels, prev_iterations=prev_iterations,
                check_every=self.check_every,
            )
        if check and not bool(result.converged.all()):
            bad = [
                labels[j] for j in range(k) if not result.converged[j]
            ]
            raise ConvergenceError(
                f"incremental update did not converge for column(s) "
                f"{', '.join(bad)} within {max_iter} sweeps; re-run a "
                "cold solve_many on the mutated graph",
                result=result.column(labels.index(bad[0])),
            )
        return result

    # ------------------------------------------------------------------
    # Monte Carlo
    # ------------------------------------------------------------------

    def montecarlo(
        self,
        graph: WebGraph,
        v: Optional[np.ndarray] = None,
        *,
        damping: float = 0.85,
        num_walks: int = 100_000,
        workers: Optional[int] = None,
        seed: int = 0,
        max_walk_length: int = 1_000,
    ):
        """Parallel Monte-Carlo PageRank (deterministic in ``seed`` and
        ``workers``); see
        :func:`repro.perf.parallel.pagerank_montecarlo_parallel`."""
        from .parallel import pagerank_montecarlo_parallel

        return pagerank_montecarlo_parallel(
            graph,
            v,
            damping=damping,
            num_walks=num_walks,
            workers=workers if workers is not None else self.workers,
            seed=seed,
            max_walk_length=max_walk_length,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagerankEngine(cache={self.cache!r}, "
            f"method={self.method!r}, check_every={self.check_every})"
        )


# ----------------------------------------------------------------------
# the block kernel
# ----------------------------------------------------------------------


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (Linux), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_product(block: RowBlock, z: np.ndarray, out: np.ndarray) -> None:
    """Add ``block @ z`` into ``out[block.lo:block.hi]``, in place.

    ``z`` and ``out`` are C-contiguous, so the raveled arrays are views
    and the kernel writes straight into ``out``.  It is the one
    ``csr_matrix @ ndarray`` itself calls (``csr_matvec`` for a single
    column, ``csr_matvecs`` otherwise), so every row gets the bits of
    the whole-matrix product; it releases the GIL while it runs.
    """
    rows = block.hi - block.lo
    n_vecs = z.shape[1]
    x = z.reshape(-1)
    y = out[block.lo:block.hi].reshape(-1)
    if n_vecs == 1:
        _sparsetools.csr_matvec(
            rows, z.shape[0], block.indptr, block.indices, block.data, x, y,
        )
    else:
        _sparsetools.csr_matvecs(
            rows, z.shape[0], n_vecs, block.indptr, block.indices,
            block.data, x, y,
        )


def _product(
    blocks: Sequence[RowBlock],
    z: np.ndarray,
    rows: int,
    pool: Optional[ThreadPoolExecutor],
) -> np.ndarray:
    """``A @ z`` for the ``rows``-row operator ``blocks`` partition: one
    zeroed output, every block's rows written into it, on ``pool``'s
    threads when there is one."""
    z = np.ascontiguousarray(z)
    out = np.zeros((rows, z.shape[1]))
    if pool is None:
        for block in blocks:
            _block_product(block, z, out)
    else:
        futures = [pool.submit(_block_product, b, z, out) for b in blocks]
        for future in futures:
            future.result()
    return out


def _block_jacobi(
    op,
    vectors: np.ndarray,
    *,
    damping: float,
    tol: float,
    max_iter: int,
    check_every: int,
    labels: Sequence[str],
) -> BatchResult:
    """Dangling-restricted block Jacobi over stacked jump vectors.

    ``op`` is an :class:`~repro.perf.cache.OperatorBundle` or a
    :class:`~repro.perf.sharded.ShardedOperator`: anything with the
    index arrays ``non_dangling`` (``S``) and ``dangling`` (``D``), the
    entry count ``nnz`` and ``row_blocks(parts)``, which returns
    ``(Tᵀ)_SS`` and ``(Tᵀ)_DS`` as lists of :class:`RowBlock`.  The
    blocks' products run on a thread pool that exists only for this
    solve, one thread per CPU (:func:`_cpu_count`), or inline for an
    operator below :data:`PARALLEL_MIN_NNZ` entries.  Columns freeze
    individually once their full-vector L1 change drops below ``tol``.
    """
    c = damping
    n, k = vectors.shape
    jump = (1.0 - c) * vectors
    s = op.non_dangling
    d = op.dangling
    scores = np.empty_like(vectors)
    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.full(k, np.inf)
    converged = np.zeros(k, dtype=bool)

    if len(s) == 0:
        # edgeless graph: (I - cTᵀ) = I, the solution is the jump term,
        # reached exactly after one formal iteration
        scores[:] = jump
        iterations[:] = 1
        residuals[:] = 0.0
        converged[:] = True
        return BatchResult(
            scores, iterations, residuals, converged, "batched_jacobi",
            labels,
        )

    threads = _cpu_count() if op.nnz >= PARALLEL_MIN_NNZ else 1
    ss_blocks, ds_blocks = op.row_blocks(threads)
    b_s = np.ascontiguousarray(jump[s, :])
    z = np.array(vectors[s, :], dtype=np.float64)  # p⁽⁰⁾ = v, as in jacobi()
    active = np.arange(k)

    def _freeze(cols_in_active: np.ndarray, res: np.ndarray, it: int,
                ok: bool) -> None:
        cols = active[cols_in_active]
        z_cols = np.ascontiguousarray(z[:, cols_in_active])
        scores[np.ix_(s, cols)] = z_cols
        expanded = _product(ds_blocks, z_cols, len(d), pool)
        expanded *= c
        expanded += jump[np.ix_(d, cols)]
        scores[np.ix_(d, cols)] = expanded
        iterations[cols] = it
        residuals[cols] = res[cols_in_active]
        converged[cols] = ok

    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        it = 0
        while it < max_iter and len(active):
            # fused update steps, no residual bookkeeping
            plain_steps = min(check_every, max_iter - it) - 1
            for _ in range(plain_steps):
                z_next = _product(ss_blocks, z, len(s), pool)
                z_next *= c
                z_next += b_s
                z = z_next
                it += 1
            # measured step: full-vector L1 change = restricted change
            # plus the dangling change it induces through (Tᵀ)_DS
            z_prev = z
            z = _product(ss_blocks, z, len(s), pool)
            z *= c
            z += b_s
            it += 1
            dz = z - z_prev
            res = np.abs(dz).sum(axis=0)
            if len(d):
                res = res + c * np.abs(
                    _product(ds_blocks, dz, len(d), pool)
                ).sum(axis=0)
            done = res < tol
            if done.any():
                _freeze(np.flatnonzero(done), res, it, True)
                keep = ~done
                if not keep.any():
                    active = active[:0]
                    break
                active = active[keep]
                z = np.ascontiguousarray(z[:, keep])
                b_s = np.ascontiguousarray(b_s[:, keep])
            elif it >= max_iter:
                _freeze(np.arange(len(active)), res, it, False)
                active = active[:0]

        if len(active):  # pragma: no cover - defensive (loop always drains)
            _freeze(np.arange(len(active)), np.full(len(active), np.inf),
                    it, False)

    return BatchResult(
        scores, iterations, residuals, converged, "batched_jacobi", labels,
    )


# ----------------------------------------------------------------------
# the shared default engine
# ----------------------------------------------------------------------

_default_engine: Optional[PagerankEngine] = None
_engine_lock = threading.Lock()


def get_engine() -> PagerankEngine:
    """The process-wide shared engine (created on first use).

    Every internal caller — :func:`repro.core.pagerank.pagerank`,
    :func:`repro.core.mass.estimate_spam_mass`, the experiment runners,
    TrustRank — routes through this instance unless handed an explicit
    engine, so one graph's operator is built once per process.
    """
    global _default_engine
    with _engine_lock:
        if _default_engine is None:
            _default_engine = PagerankEngine()
        return _default_engine


def set_engine(engine: Optional[PagerankEngine]) -> Optional[PagerankEngine]:
    """Replace the shared engine; returns the previous one.

    Pass ``None`` to reset (a fresh default engine is created on the
    next :func:`get_engine` call).
    """
    global _default_engine
    with _engine_lock:
        previous = _default_engine
        _default_engine = engine
        return previous


def configure_engine(
    cache_size: int = DEFAULT_CACHE_SIZE,
    *,
    method: str = "jacobi",
    check_every: int = DEFAULT_CHECK_EVERY,
    workers: Optional[int] = None,
) -> PagerankEngine:
    """Build a fresh engine with the given knobs and install it as the
    shared default.  Returns the new engine."""
    engine = PagerankEngine(
        cache_size, method=method, check_every=check_every,
        workers=workers,
    )
    set_engine(engine)
    return engine
