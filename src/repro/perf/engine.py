"""The batched multi-vector PageRank engine.

Spam-mass estimation is a *multi-solve* workload: Algorithm 2 needs the
uniform-jump PageRank ``p`` and the core-jump PageRank ``p′`` over the
same operator, and the evaluation suites re-solve that operator dozens
of times (threshold sweeps, core-size ablations, γ studies).
:class:`PagerankEngine` amortizes everything the solves share:

* the operator is built **once** per graph, as ``(Tᵀ)_SS`` and
  ``(Tᵀ)_DS``, and held in a bounded LRU
  (:class:`~repro.perf.cache.OperatorCache`); ``Tᵀ`` whole is
  assembled only for :meth:`PagerankEngine.operator`, the matrix the
  scalar reference solvers of :mod:`repro.core.solvers` take;
* :meth:`PagerankEngine.solve_many` solves stacked jump vectors with
  one block BiCGSTAB on the **dangling-restricted** subsystem (see
  :mod:`repro.perf.cache`), with per-column scalars and per-column
  freezing — one matrix traversal per product serves every column.

Columns of ``Tᵀ`` indexed by dangling nodes are zero, so the solution
restricted to the non-dangling set ``S`` solves a system of its own,

.. math:: (I - c\\,(T^T)_{SS})\\, p_S = (1-c)\\, v_S ,

and the dangling components follow in closed form once ``p_S`` is
known: ``p_D = c (Tᵀ)_{DS} p_S + (1−c) v_D``.  The kernel solves the
restricted system by BiCGSTAB, the Krylov approach to the PageRank
linear system of Gleich, Zhukov & Berkhin ("Fast parallel PageRank: a
linear system approach", 2004), and stops on the quantity the plain
Jacobi of Algorithm 1 measures: the *full-vector* L1 change one more
Jacobi sweep would make, ``‖r_S‖₁ + c‖(Tᵀ)_DS r_S‖₁`` for the true
residual ``r_S``.  A column freezes once that change is below
``(1 − c)·tol`` and returns that sweep, so it lies within ``c·tol``
(L1) of the exact solution.  A column that breaks down, or that falls
behind Jacobi's own a-priori sweep count, finishes with Jacobi sweeps
(see :func:`_block_bicgstab`).

Both graph backends solve against one operator type, the
:class:`~repro.perf.cache.OperatorBundle`: an in-memory graph's is
built from its CSR, a :class:`~repro.graph.sharded.ShardedWebGraph`'s
gathered from its shards (:func:`repro.perf.sharded.sharded_operator_for`),
into the same arrays.  The kernel is written once, in
:func:`_block_bicgstab`: the bundle splits ``(Tᵀ)_SS`` and ``(Tᵀ)_DS``
into contiguous :class:`~repro.perf.cache.RowBlock` row ranges of
about equal entries that point into its own arrays, and every product
writes each block's rows straight into one output array with the
kernel ``csr_matrix @ ndarray`` itself calls (:func:`_block_product`).
For operators of :data:`PARALLEL_MIN_NNZ` entries and more, the blocks
run on a thread pool that lives for one solve and has one thread per
CPU this process may run on; smaller ones run inline.  A CSR product
computes every output row on its own, in storage order, so the rows
are bitwise those of the whole-matrix product however the rows are
split and whichever thread runs them.  The vector work runs per
fixed-size row chunk (:data:`CHUNK_ROWS`) on the same pool, and every
inner product and L1 norm adds the chunks' partial sums in chunk
order on the calling thread.  Both backends, and threaded or inline
runs, therefore produce bitwise-identical solves.  The incremental
engine's diffusion escape (:func:`repro.perf.incremental.push_update`)
runs the same kernel, started from the pushed scores instead of the
jump vectors.
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import _sparsetools

from ..errors import ConvergenceError
from ..core.solvers import SolverResult
from ..core.pagerank import _resolve_jump  # single source of jump semantics
from ..graph.sharded import ShardedWebGraph
from ..graph.webgraph import WebGraph
from ..obs import get_telemetry
from . import sharded as _sharded
from .cache import DEFAULT_CACHE_SIZE, OperatorBundle, OperatorCache, RowBlock

__all__ = [
    "BatchResult",
    "PagerankEngine",
    "get_engine",
    "set_engine",
]

#: Rows per chunk of the block kernel's vector work.  Every inner
#: product and L1 norm is summed chunk by chunk and the chunk sums are
#: added in chunk order on the calling thread, so this constant, not
#: the thread count, fixes their bits; it is not a tuning knob.
CHUNK_ROWS = 1 << 15

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
        ``"batched_bicgstab"`` for the block kernel,
        ``"incremental_push"`` for a warm update.
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


def _validate_block(
    vectors: np.ndarray, damping: float, tol: float, *, scan: bool = True
) -> None:
    """Check the stacked jump vectors and the solve parameters;
    ``scan=False`` skips the O(n·k) checks of the entries."""
    if vectors.ndim != 2:
        raise ValueError("stacked jump vectors must form an (n, k) array")
    if vectors.shape[1] == 0:
        raise ValueError("solve_many needs at least one jump vector")
    if not (0.0 < damping < 1.0):
        raise ValueError(f"damping factor must be in (0, 1), got {damping}")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if not scan:
        return
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

    Block solves validate their stacked jump vectors, an O(n·k) scan.
    A read-only block that owns its data cannot change between calls,
    so the engine remembers the last one it validated and does not
    scan it again: a caller that solves with the same block every
    time (the scoring daemon, window after window) pays the scan once.
    """

    def __init__(self, cache_size: int = DEFAULT_CACHE_SIZE) -> None:
        self.cache = OperatorCache(cache_size)
        self._validated: Optional[weakref.ref] = None

    def _jump_block(
        self,
        n: int,
        vectors: Union[np.ndarray, Sequence[JumpLike]],
        damping: float,
        tol: float,
        labels: Optional[Sequence[str]],
    ) -> Tuple[np.ndarray, Sequence[str]]:
        """The prologue of :meth:`solve_many` and :meth:`update_many`:
        stack ``vectors`` into an ``(n, k)`` block, check it and the
        solve parameters, and resolve the column labels.

        An ``(n, k)`` array is used as it is: the kernel only reads it.
        :func:`_validate_block` scans the entries of any block but the
        read-only one this engine last validated.
        """
        if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
            stacked = np.asarray(vectors, dtype=np.float64)
            if stacked.shape[0] != n:
                raise ValueError(
                    f"stacked vectors have {stacked.shape[0]} rows, "
                    f"expected {n}"
                )
        else:
            stacked = np.stack(
                [_resolve_jump(n, spec) for spec in vectors], axis=1
            ).astype(np.float64)
        known = self._validated is not None and self._validated() is stacked
        _validate_block(stacked, damping, tol, scan=not known)
        if (
            not known
            and stacked.flags.owndata
            and not stacked.flags.writeable
        ):
            self._validated = weakref.ref(stacked)
        k = stacked.shape[1]
        if labels is None:
            labels = [f"col{j}" for j in range(k)]
        elif len(labels) != k:
            raise ValueError(f"{len(labels)} labels for {k} stacked vectors")
        return stacked, labels

    # ------------------------------------------------------------------
    # operator access
    # ------------------------------------------------------------------

    def bundle(self, graph: WebGraph) -> OperatorBundle:
        """The graph's cached operator bundle (built on first sight; a
        shard store's is gathered from its shards)."""
        if isinstance(graph, ShardedWebGraph):
            return _sharded.sharded_operator_for(self.cache, graph)
        return self.cache.bundle_for(graph)

    def operator(self, graph: WebGraph):
        """The graph's ``Tᵀ`` in CSR form, from the cache (assembled from
        the bundle's two blocks on first use)."""
        return self.bundle(graph).transition_t

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

        Both backends run :func:`_block_bicgstab` against the graph's
        cached :class:`OperatorBundle`; every column lands within
        ``c·tol`` (L1) of its exact solution.

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
        stacked, labels = self._jump_block(
            graph.num_nodes, vectors, damping, tol, labels
        )
        k = stacked.shape[1]
        bundle = self.bundle(graph)

        tele = get_telemetry()
        if not tele.enabled:
            return self._run_batch(
                bundle, stacked, labels, damping, tol, max_iter, check,
            )
        with tele.span("solve:batch", columns=k) as sp:
            result = self._run_batch(
                bundle, stacked, labels, damping, tol, max_iter, check,
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
        bundle: OperatorBundle,
        stacked: np.ndarray,
        labels: Sequence[str],
        damping: float,
        tol: float,
        max_iter: int,
        check: bool,
    ) -> BatchResult:
        """The untraced core of :meth:`solve_many`."""
        result = _block_bicgstab(
            bundle,
            stacked,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
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
        cold solve — see :mod:`repro.perf.incremental`.  Once the
        pushes' frontier turns wide and alive, at whichever sweep, the
        update escapes into the cold block kernel on the mutated
        system itself, started from the pushed scores: such a window
        lands within ``c·tol`` of its own system, whatever error
        ``previous`` carried.  A window that finishes by pushing takes
        ``previous`` as exact, so its error carries forward until a
        later window escapes.

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
        stacked, labels = self._jump_block(n, vectors, damping, tol, labels)
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PagerankEngine(cache={self.cache!r})"


# ----------------------------------------------------------------------
# the block kernel
# ----------------------------------------------------------------------


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (Linux), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(pool: Optional[ThreadPoolExecutor], fn, tasks) -> list:
    """``[fn(*task) for task in tasks]``, on ``pool``'s threads when
    there is one; the results come back in task order."""
    if pool is None:
        return [fn(*task) for task in tasks]
    futures = [pool.submit(fn, *task) for task in tasks]
    return [future.result() for future in futures]


def _column_l1(x: np.ndarray) -> np.ndarray:
    """``np.abs(x).sum(axis=0)`` of a C-contiguous ``(m, k)`` block,
    bit for bit.

    For ``k ≥ 2`` numpy reduces such a block one row at a time, adding
    each row into the ``k`` running sums; ``einsum("ij->j")`` adds in
    the same order without the per-row loop overhead (6.2 against
    21.3 ms on a 1M×2 block, 2-vCPU x86, numpy 2.4).  A single column
    is contiguous, so its sum is pairwise, which einsum's is not: that
    case keeps the plain sum.
    """
    if x.shape[1] == 1:
        return np.abs(x).sum(axis=0)
    return np.einsum("ij->j", np.abs(x))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column inner products ``Σᵢ a[i, j]·b[i, j]`` of two row chunks:
    every inner product of the kernel, one chunk's share."""
    return np.array([
        np.einsum("i,i->", a[:, j], b[:, j]) for j in range(a.shape[1])
    ])


def _l1(a: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Column L1 norms of a row chunk: every L1 norm of the kernel, one
    chunk's share (``|a[:, j]|`` goes to ``scratch`` when given)."""
    return np.array([
        np.abs(a[:, j], out=scratch).sum() for j in range(a.shape[1])
    ])


def _chunk_sum(partials: Sequence[np.ndarray]) -> np.ndarray:
    """Per-chunk partial sums added in chunk order."""
    total = partials[0].copy()
    for part in partials[1:]:
        total += part
    return total


def _chunks(rows: int) -> List[Tuple[int, int]]:
    """``rows`` split into :data:`CHUNK_ROWS`-row ranges, in order."""
    return [
        (lo, min(lo + CHUNK_ROWS, rows)) for lo in range(0, rows, CHUNK_ROWS)
    ]


def _sweep_bound(q0: np.ndarray, damping: float, bar: float) -> np.ndarray:
    """Jacobi's a-priori product count from an iterate whose Jacobi
    quantity is ``q0``: each sweep shrinks that quantity by at least
    ``c``, so ``⌈log(bar / q0) / log c⌉`` sweeps after the first
    product bring it below ``bar`` (float: NaN never compares)."""
    return 1.0 + np.ceil(np.log(bar / q0) / np.log(damping))


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


def _apply_block(block: RowBlock, z: np.ndarray, out: np.ndarray,
                 c: float) -> None:
    """``out = z − c·(Tᵀ)_SS z`` on one row block of ``(Tᵀ)_SS``: that
    block's rows of ``A z``, product and epilogue in one task."""
    rows = out[block.lo:block.hi]
    rows.fill(0.0)
    _block_product(block, z, out)
    rows *= -c
    rows += z[block.lo:block.hi]


# The vector work of the kernel, one row chunk per call.  A per-column
# scalar is applied one strided column at a time: broadcast over a
# thin (rows, m) block, numpy runs its inner loop once per row, ~5x
# slower.  Products go through the chunk's rows of the solve's scratch
# column ``w``: glibc serves a fresh chunk-sized temporary by mmap
# until a larger free raises its threshold, and with temporaries a
# pool's first solve ran its threads one at a time.  The (Tᵀ)_DS
# products of :func:`_dangling_chunk` go through D-row scratch the
# same way.  ``r`` holds ``s`` between the half step and the update.


def _direction_chunk(lo, hi, p, r, beta) -> None:
    """``p ← r + β·p`` (``p`` already holds ``p − ω·v``)."""
    for j, scalar in enumerate(beta):
        column = p[lo:hi, j]
        column *= scalar
        column += r[lo:hi, j]


def _dot_chunk(lo, hi, a, b) -> np.ndarray:
    return _dot(a[lo:hi], b[lo:hi])


def _half_step_chunk(lo, hi, r, v, alpha, w) -> None:
    """``s = r − α·v``, into ``r``."""
    product = w[lo:hi]
    for j, scalar in enumerate(alpha):
        np.multiply(v[lo:hi, j], scalar, out=product)
        r[lo:hi, j] -= product


def _omega_chunk(lo, hi, t, s):
    """The partial ``tᵀs`` and ``tᵀt``."""
    rows = t[lo:hi]
    return _dot(rows, s[lo:hi]), _dot(rows, rows)


def _update_chunk(lo, hi, x, p, r, rh, v, t, alpha, omega, w):
    """``x ← x + α·p + ω·s``, ``p ← p − ω·v`` (the half of the next
    direction that needs no new scalar) and ``r ← s − ω·t``; returns
    the partial ``‖r‖₁`` and ``r̂ᵀr``."""
    product = w[lo:hi]
    for j, (a, o) in enumerate(zip(alpha, omega)):
        s = r[lo:hi, j]
        column = x[lo:hi, j]
        column += np.multiply(p[lo:hi, j], a, out=product)
        column += np.multiply(s, o, out=product)
        p[lo:hi, j] -= np.multiply(v[lo:hi, j], o, out=product)
        s -= np.multiply(t[lo:hi, j], o, out=product)
    return _l1(r[lo:hi], product), _dot(rh[lo:hi], r[lo:hi])


def _add_chunk(lo, hi, x, r) -> None:
    """``x ← x + r``: one Jacobi sweep, given ``r = b − A x``."""
    x[lo:hi] += r[lo:hi]


def _jump_rows(vectors, rows, cols) -> np.ndarray:
    """``vectors[rows]`` for columns ``cols`` (``None``: all of them)."""
    return vectors[rows] if cols is None else vectors[np.ix_(rows, cols)]


def _residual_chunk(lo, hi, out, vectors, s, cols, c, w) -> np.ndarray:
    """``out ← b − out`` for ``b = (1 − c)·v_S`` (``out`` holds
    ``A x``); returns the partial ``‖·‖₁``."""
    rows = out[lo:hi]
    b = _jump_rows(vectors, s[lo:hi], cols)
    b *= 1.0 - c
    np.subtract(b, rows, out=rows)
    return _l1(rows, w[lo:hi])


def _dangling_chunk(lo, block, z, c, vectors, d, cols, scores, flat, w):
    """``(Tᵀ)_DS z`` on one chunk of D rows (``block`` numbers them
    from 0, ``lo`` places them): with ``scores``, writes them as the
    solution's D rows ``c·(Tᵀ)_DS z + (1−c)·v_D``; without, returns
    their partial ``‖·‖₁``.  The product goes through the chunk's share
    of the solve's D-row scratch ``flat`` (from ``lo·k`` on, for ``k``
    stacked vectors), its absolute values through ``w``'s rows."""
    rows, m, k = block.hi, z.shape[1], vectors.shape[1]
    out = flat[lo * k:lo * k + rows * m].reshape(rows, m)
    out.fill(0.0)
    _block_product(block, z, out)
    if scores is None:
        return _l1(out, w[lo:lo + rows])
    rows = d[lo:lo + block.hi]
    out *= c
    out += (1.0 - c) * _jump_rows(vectors, rows, cols)
    if cols is None:
        scores[rows] = out
    else:
        scores[np.ix_(rows, cols)] = out
    return None


class _BlockSolve:
    """One :func:`_block_bicgstab` solve: its operator blocks and pool,
    its Krylov vectors and its per-column bookkeeping.

    Every Krylov vector is one ``(|S|, k)`` buffer allocated here; the
    ``m`` columns still iterating are the first ``|S|·m`` entries of
    each, viewed as ``(|S|, m)``, and a column that leaves is
    compacted out.  Columns are named by their index in ``vectors``
    (``cols``); ``None`` stands for all ``k`` of them, in order.
    """

    #: the vectors that carry over from one iteration to the next (``v``
    #: and ``t`` are free between iterations)
    LIVE = ("x", "r", "rh", "p")

    def __init__(self, bundle, vectors, scores, *, damping, tol, max_iter,
                 threads, pool) -> None:
        self.c = damping
        self.bar = (1.0 - damping) * tol
        self.max_iter = max_iter
        self.vectors = vectors
        self.scores = scores
        self.s = bundle.non_dangling
        self.d = bundle.dangling
        self.pool = pool
        rows, k = len(self.s), vectors.shape[1]
        self.chunks = _chunks(rows)
        # (Tᵀ)_SS as row blocks of about equal entries, one per thread;
        # (Tᵀ)_DS as chunks of D rows, whose L1 partials add in order
        self.ss_blocks, _ = bundle.row_blocks(threads)
        ds = bundle.tt_ds
        self.d_blocks = [
            (lo, RowBlock(0, hi - lo, ds.indptr[lo:hi + 1], ds.indices,
                          ds.data))
            for lo, hi in _chunks(len(self.d))
        ]
        self.flat = {
            name: np.empty(rows * k) for name in (*self.LIVE, "v", "t")
        }
        self.w = np.empty(rows)
        # (Tᵀ)_DS products and their absolute values, per chunk of D rows
        self.d_flat = np.empty(len(self.d) * k)
        self.d_w = np.empty(len(self.d))
        self.iterations = np.zeros(k, dtype=np.int64)
        self.residuals = np.full(k, np.inf)
        self.converged = np.zeros(k, dtype=bool)
        #: columns that finish with Jacobi sweeps, their iterates parked
        #: in their S rows of ``scores``
        self.pending: List[int] = []

    # -- building blocks ---------------------------------------------

    def view(self, name: str, m: int) -> np.ndarray:
        return self.flat[name][: len(self.s) * m].reshape(len(self.s), m)

    def each_chunk(self, fn, *args) -> list:
        return _run(self.pool, fn, [(lo, hi, *args) for lo, hi in self.chunks])

    def each_d_chunk(self, z, cols, scores) -> list:
        return _run(self.pool, _dangling_chunk, [
            (lo, block, z, self.c, self.vectors, self.d, cols, scores,
             self.d_flat, self.d_w)
            for lo, block in self.d_blocks
        ])

    def dots(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _chunk_sum(self.each_chunk(_dot_chunk, a, b))

    def apply(self, z: np.ndarray, out: np.ndarray) -> None:
        """``out = A z``: one ``(Tᵀ)_SS`` product per column of ``z``."""
        _run(self.pool, _apply_block,
             [(block, z, out, self.c) for block in self.ss_blocks])

    def residual(self, x, cols, out) -> np.ndarray:
        """``out = b − A x`` for the columns ``cols``, and Jacobi's
        quantity for one more sweep from ``x``, ``q = ‖r‖₁ +
        c·‖(Tᵀ)_DS r‖₁``: the full-vector L1 change that sweep makes."""
        self.apply(x, out)
        q = _chunk_sum(self.each_chunk(
            _residual_chunk, out, self.vectors, self.s, cols, self.c, self.w,
        ))
        if self.d_blocks:
            q += self.c * _chunk_sum(self.each_d_chunk(out, cols, None))
        return q

    def freeze(self, cols, z, q, ok) -> None:
        """Write columns ``cols`` of the solution: their S rows ``z``,
        their D rows ``c (Tᵀ)_DS z + (1−c) v_D``."""
        z = np.ascontiguousarray(z)
        if len(cols) == self.vectors.shape[1]:
            # every column at once: whole rows, no np.ix_ gathers
            self.scores[self.s] = z
            self.each_d_chunk(z, None, self.scores)
        else:
            self.scores[np.ix_(self.s, cols)] = z
            self.each_d_chunk(z, cols, self.scores)
        self.residuals[cols] = q
        self.converged[cols] = ok

    def settle(self, cols, xs, rt, q) -> np.ndarray:
        """Book a check of the columns ``cols`` at ``xs`` (true residual
        ``rt``, Jacobi quantity ``q``) and freeze each column whose
        ``q`` passes at ``xs + rt``, that very sweep; returns which."""
        self.iterations[cols] += 1
        self.residuals[cols] = q
        done = q < self.bar
        if done.all():
            rt += xs
            self.freeze(cols, rt, q, True)
        elif done.any():
            self.freeze(cols[done], (xs + rt)[:, done], q[done], True)
        return done

    def keep(self, names, m: int, mask: np.ndarray) -> None:
        """Compact the columns ``mask`` picks out of the first ``m`` of
        each buffer ``names`` to the front, in order."""
        kept = int(mask.sum())
        for name in names:
            self.view(name, kept)[...] = self.view(name, m)[:, mask]

    # -- the solve ---------------------------------------------------

    def run(self, start: np.ndarray) -> None:
        c, bar, k = self.c, self.bar, self.vectors.shape[1]
        x = self.view("x", k)
        np.take(start, self.s, axis=0, out=x, mode="clip")
        self.cols = np.arange(k)
        if self.max_iter < 1:
            self.freeze(self.cols, x, np.inf, False)
            return
        # one Jacobi check of the start: a column already within reach
        # freezes at its next sweep, ``x + r``
        r = self.view("r", k)
        q = self.residual(x, None, r)
        self.gone = self.settle(self.cols, x, r, q)
        self.broken = np.zeros(k, dtype=bool)
        self.bound = _sweep_bound(np.maximum(q, bar), c, bar)
        rh, p = self.view("rh", k), self.view("p", k)
        rh[...] = r
        p.fill(0.0)
        self.rho = self.dots(rh, r)
        self.rho_prev = np.ones(k)
        self.alpha = np.ones(k)
        self.omega = np.ones(k)
        self.krylov()
        if self.pending:
            self.jacobi()

    def krylov(self) -> None:
        """BiCGSTAB iterations until every column has frozen or left
        for the Jacobi finish."""
        while True:
            m = len(self.cols)
            used = self.iterations[self.cols]
            healthy = np.isfinite(self.rho) & (self.rho != 0.0)
            fall = ~self.gone & (
                self.broken
                | ~healthy
                | (self.max_iter - used < 3)
                | (used > self.bound)
            )
            if fall.any():
                cols = self.cols[fall]
                self.scores[np.ix_(self.s, cols)] = self.view("x", m)[:, fall]
                self.pending.extend(cols.tolist())
            leave = self.gone | fall
            if leave.any():
                stay = ~leave
                self.keep(self.LIVE, m, stay)
                for name in ("cols", "rho", "rho_prev", "alpha", "omega",
                             "bound"):
                    setattr(self, name, getattr(self, name)[stay])
                m = len(self.cols)
                self.gone = self.broken = np.zeros(m, dtype=bool)
            if m == 0:
                return
            self.iterate(m)
            self.verify(m)

    def iterate(self, m: int) -> None:
        """One BiCGSTAB step of every column: two ``(Tᵀ)_SS``
        products, per-column scalars."""
        x, r, rh, p = (self.view(name, m) for name in self.LIVE)
        v, t = self.view("v", m), self.view("t", m)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            beta = (self.rho / self.rho_prev) * (self.alpha / self.omega)
            self.each_chunk(_direction_chunk, p, r, beta)
            self.apply(p, v)
            sigma = self.dots(rh, v)
            alpha = self.rho / sigma
            broken = ~np.isfinite(alpha) | (sigma == 0.0)
            alpha[broken] = 0.0
            self.each_chunk(_half_step_chunk, r, v, alpha, self.w)
            self.apply(r, t)
            self.iterations[self.cols] += 2
            parts = self.each_chunk(_omega_chunk, t, r)
            omega = (_chunk_sum([ts for ts, _ in parts])
                     / _chunk_sum([tt for _, tt in parts]))
            # s = 0 (a half step that lands exactly) makes ω = 0/0
            broken |= ~np.isfinite(omega) | (omega == 0.0)
            omega[broken] = 0.0
        parts = self.each_chunk(
            _update_chunk, x, p, r, rh, v, t, alpha, omega, self.w,
        )
        self.rnorm = _chunk_sum([l1 for l1, _ in parts])
        self.rho_prev, self.rho = self.rho, _chunk_sum([d for _, d in parts])
        self.alpha, self.omega, self.broken = alpha, omega, broken

    def verify(self, m: int) -> None:
        """Confirm on the true residual every column whose recurrence
        residual dropped below the bar: one product each.  A column
        whose Jacobi quantity passes freezes; any other carries on
        from its true residual."""
        sub = np.flatnonzero((self.rnorm < self.bar) & ~self.broken)
        if not len(sub):
            return
        xs = self.view("x", m)
        if len(sub) < m:
            xs = np.take(xs, sub, axis=1, out=self.view("t", len(sub)),
                         mode="clip")
        cols = self.cols[sub]
        which = None if len(cols) == self.vectors.shape[1] else cols
        rt = self.view("v", len(sub))
        q = self.residual(xs, which, rt)
        done = self.settle(cols, xs, rt, q)
        self.gone[sub[done]] = True
        again = ~done
        if again.any():
            r = self.view("r", m)
            r[:, sub[again]] = rt[:, again]
            self.rho = self.dots(self.view("rh", m), r)

    def jacobi(self) -> None:
        """Plain Jacobi sweeps, checked every sweep, for the columns
        that left the Krylov iteration: from any iterate they converge,
        shrinking the Jacobi quantity by ``c`` a sweep."""
        cols = np.sort(np.asarray(self.pending, dtype=np.int64))
        m = len(cols)
        self.view("x", m)[...] = self.scores[np.ix_(self.s, cols)]
        spent = self.iterations[cols] >= self.max_iter
        if spent.any():
            # no product left: the parked iterate as it stands
            self.freeze(cols[spent], self.view("x", m)[:, spent],
                        self.residuals[cols[spent]], False)
            self.keep(("x",), m, ~spent)
            cols = cols[~spent]
            m = len(cols)
        while m:
            x, r = self.view("x", m), self.view("t", m)
            which = None if m == self.vectors.shape[1] else cols
            q = self.residual(x, which, r)
            self.iterations[cols] += 1
            self.each_chunk(_add_chunk, x, r)
            done = q < self.bar
            stop = done | (self.iterations[cols] >= self.max_iter)
            if stop.any():
                self.freeze(cols[stop], x[:, stop], q[stop], done[stop])
                self.keep(("x",), m, ~stop)
                cols = cols[~stop]
                m = len(cols)


def _block_bicgstab(
    bundle: OperatorBundle,
    vectors: np.ndarray,
    *,
    damping: float,
    tol: float,
    max_iter: int,
    labels: Sequence[str],
    x0: Optional[np.ndarray] = None,
) -> BatchResult:
    """Block BiCGSTAB on the dangling-restricted system over stacked
    jump vectors.

    Solves ``(I − c(Tᵀ)_SS) z = (1 − c)·v_S`` for every column of
    ``vectors`` at once, with per-column scalars, and expands each
    column's D rows once it freezes, ``p_D = c (Tᵀ)_DS z + (1−c) v_D``.
    ``bundle.row_blocks(parts)`` hands over ``(Tᵀ)_SS`` as
    :class:`RowBlock` row ranges of about equal entries, one task each
    per product, on a thread pool that exists only for this solve (one
    thread per CPU, :func:`_cpu_count`), or inline for an operator
    below :data:`PARALLEL_MIN_NNZ` entries; each task applies ``z −
    c·(Tᵀ)_SS z`` to its own rows.  ``(Tᵀ)_DS`` products run one task
    per chunk of D rows, and the vector work one task per
    :data:`CHUNK_ROWS`-row chunk of S, on the same pool.  Every inner
    product and L1 norm is the chunks' partial sums added in chunk
    order, so neither the thread count nor the backend changes a bit.

    **Stopping.**  A column freezes once Jacobi's own quantity for one
    more sweep, ``q = ‖r‖₁ + c·‖(Tᵀ)_DS r‖₁`` of its true residual
    ``r = b − A z`` (taken whenever the recurrence residual's L1 drops
    below the bar), is below ``(1 − c)·tol``; it returns ``z + r``,
    that very sweep, at no product.  Its error ``e`` then satisfies
    ``A e = −c (Tᵀ)_SS r``, and with the D rows in closed form the
    full-vector error is ``(I − cTᵀ)⁻¹`` applied to ``[A e; 0]``: at
    most ``c‖r‖₁ / (1 − c) < c·tol`` (L1).

    **Fallback.**  A column that breaks down (``ρ``, ``r̂ᵀv`` or ``ω``
    zero or not finite; an exact half step, ``s = 0``, makes ``ω =
    0/0``), that has used more products than Jacobi's a-priori count
    from its start (:func:`_sweep_bound`), or that has fewer than three
    products left finishes with plain Jacobi sweeps checked every
    sweep.  ``iterations`` counts ``(Tᵀ)_SS`` products per column and
    ``max_iter`` caps them exactly; a column cut off there keeps the
    iterate of its last sweep.

    The iteration starts from ``z⁽⁰⁾ = x0[S]``, or from ``v[S]`` as
    :func:`repro.core.solvers.jacobi` does when ``x0`` is ``None``.  A
    given ``x0`` (``(n, k)``, float64) is read once, before the first
    product, and the solution is then written into it: the result's
    ``scores`` *is* ``x0``.
    """
    c = damping
    k = vectors.shape[1]
    scores = np.empty_like(vectors) if x0 is None else x0

    if len(bundle.non_dangling) == 0:
        # edgeless graph: (I - cTᵀ) = I, the solution is the jump term,
        # reached exactly after one formal iteration
        np.multiply(1.0 - c, vectors, out=scores)
        return BatchResult(
            scores, np.ones(k, dtype=np.int64), np.zeros(k),
            np.ones(k, dtype=bool), "batched_bicgstab", labels,
        )

    threads = _cpu_count() if bundle.nnz >= PARALLEL_MIN_NNZ else 1
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        solve = _BlockSolve(
            bundle, vectors, scores, damping=c, tol=tol, max_iter=max_iter,
            threads=threads, pool=pool,
        )
        solve.run(vectors if x0 is None else x0)
    return BatchResult(
        scores, solve.iterations, solve.residuals, solve.converged,
        "batched_bicgstab", labels,
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

