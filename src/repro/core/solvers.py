"""Numerical solvers for the linear PageRank system (Section 2.2).

The paper adopts the *linear system* formulation of PageRank,

.. math::

    (I - c T^T)\\, p = (1 - c)\\, v ,

where ``T`` is the substochastic transition matrix (rows of dangling
nodes are zero) and ``v`` is a — possibly unnormalized — random-jump
distribution with ``0 < ‖v‖₁ ≤ 1``.  A key property is linearity in
``v``: ``PR(v₁ + v₂) = PR(v₁) + PR(v₂)``, which is what makes core-based
PageRank and mass estimation cheap.

This module provides interchangeable solvers:

``jacobi``
    Algorithm 1 of the paper: ``p⁽ⁱ⁾ = c Tᵀ p⁽ⁱ⁻¹⁾ + (1 − c) v`` until
    the L1 change drops below ``tol``.
``gauss_seidel``
    In-place sweeps; typically converges in fewer iterations than
    Jacobi (mentioned in Section 2.2 as a regular speed-up).
``power``
    Power iteration on the *stochastic, ergodic* matrix ``T''`` of
    equation (1) — the classical eigenvector formulation.  Requires a
    normalized ``v``; its fixed point is the linear solution rescaled to
    unit norm.
``direct``
    Sparse LU solve of the linear system (small/medium graphs; exact up
    to floating point, handy as a test oracle).
``bicgstab``
    Krylov iterative solve via SciPy, stopped on the same L1 residual
    bound.  The batched engine (:mod:`repro.perf.engine`) solves its
    stacked systems with a block BiCGSTAB of its own.

All solvers return a :class:`SolverResult` carrying the solution,
iteration count, final residual and convergence flag — failures never
pass silently.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from ..errors import ConvergenceError

__all__ = [
    "SolverResult",
    "ConvergenceError",
    "IterationCallback",
    "jacobi",
    "gauss_seidel",
    "power_iteration",
    "direct",
    "bicgstab",
    "SOLVERS",
    "solve",
]

#: Signature of the per-iteration hook accepted by the iterative
#: solvers: ``callback(iteration, p, residual)``.  Raising from the
#: callback aborts the solve.
IterationCallback = Callable[[int, np.ndarray, float], None]


class SolverResult:
    """Outcome of a PageRank solve.

    Attributes
    ----------
    scores:
        The solution vector ``p``.
    iterations:
        Number of iterations performed (0 for direct solves).
    residual:
        Final L1 change between successive iterates (or the linear-system
        residual for direct/Krylov solvers).
    converged:
        ``True`` when the stopping criterion was met.
    method:
        Name of the solver that produced the result.
    """

    __slots__ = (
        "scores",
        "iterations",
        "residual",
        "converged",
        "method",
        "residual_history",
    )

    def __init__(
        self,
        scores: np.ndarray,
        iterations: int,
        residual: float,
        converged: bool,
        method: str,
        residual_history: Optional[List[float]] = None,
    ) -> None:
        self.scores = scores
        self.iterations = iterations
        self.residual = residual
        self.converged = converged
        self.method = method
        self.residual_history = residual_history

    def convergence_rate(self) -> float:
        """Empirical per-iteration residual contraction (geometric mean
        over the tracked history; ``nan`` without tracking).

        Classical theory predicts a rate of ``c`` for Jacobi on the
        PageRank system and roughly ``c²`` for Gauss-Seidel.
        """
        history = self.residual_history
        if not history or len(history) < 2:
            return float("nan")
        ratios = [
            b / a
            for a, b in zip(history, history[1:])
            if a > 0 and b > 0
        ]
        if not ratios:
            return float("nan")
        log_sum = sum(np.log(r) for r in ratios)
        return float(np.exp(log_sum / len(ratios)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "converged" if self.converged else "NOT converged"
        return (
            f"SolverResult({self.method}, {status} in {self.iterations} "
            f"iterations, residual={self.residual:.3e})"
        )


def _validate_inputs(
    transition_t: sparse.csr_matrix, v: np.ndarray, damping: float, tol: float
) -> None:
    n = transition_t.shape[0]
    if transition_t.shape != (n, n):
        raise ValueError("transition matrix must be square")
    if v.shape != (n,):
        raise ValueError(
            f"random-jump vector has shape {v.shape}, expected ({n},)"
        )
    if not (0.0 < damping < 1.0):
        raise ValueError(f"damping factor must be in (0, 1), got {damping}")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if np.any(v < 0):
        raise ValueError("random-jump vector must be non-negative")
    norm = float(v.sum())
    if norm <= 0.0:
        raise ValueError("random-jump vector must have positive L1 norm")
    if norm > 1.0 + 1e-9:
        raise ValueError(
            f"random-jump vector norm {norm} exceeds 1 (paper requires "
            "0 < ||v|| <= 1)"
        )


def _initial_iterate(
    v: np.ndarray, x0: Optional[np.ndarray], start_iteration: int
) -> np.ndarray:
    """Resolve the warm-start iterate (``x0`` after ``start_iteration``)."""
    if start_iteration < 0:
        raise ValueError("start_iteration must be non-negative")
    if x0 is None:
        if start_iteration != 0:
            raise ValueError("start_iteration > 0 requires an x0 iterate")
        return v.astype(np.float64, copy=True)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != v.shape:
        raise ValueError(
            f"warm-start iterate has shape {x0.shape}, expected {v.shape}"
        )
    return x0.copy()


def jacobi(
    transition_t: sparse.csr_matrix,
    v: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    track_residuals: bool = False,
    x0: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    callback: Optional[IterationCallback] = None,
) -> SolverResult:
    """Algorithm 1 of the paper (Jacobi iteration).

    Parameters
    ----------
    transition_t:
        The *transposed* substochastic transition matrix ``Tᵀ`` in CSR
        form (transposed once up front so every iteration is a plain
        CSR mat-vec).
    v:
        Random-jump vector, ``0 < ‖v‖₁ ≤ 1`` (may be unnormalized).
    damping:
        The damping factor ``c`` (paper uses 0.85).
    tol:
        Stop when ``‖p⁽ⁱ⁾ − p⁽ⁱ⁻¹⁾‖₁ < tol``.
    max_iter:
        Safety bound on the number of iterations (absolute — a
        warm-started solve continues counting from ``start_iteration``).
    x0, start_iteration:
        Warm start: continue from an iterate ``x0`` taken after
        ``start_iteration`` iterations.  Jacobi is memoryless in the
        iterate, so a continued run reproduces the uninterrupted one
        exactly.
    callback:
        Optional per-iteration hook ``callback(iteration, p, residual)``;
        raising from it aborts the solve.
    """
    _validate_inputs(transition_t, v, damping, tol)
    p = _initial_iterate(v, x0, start_iteration)
    jump = (1.0 - damping) * v
    residual = np.inf
    history: Optional[List[float]] = [] if track_residuals else None
    iteration = start_iteration
    for iteration in range(start_iteration + 1, max_iter + 1):
        p_next = damping * (transition_t @ p) + jump
        residual = float(np.abs(p_next - p).sum())
        if history is not None:
            history.append(residual)
        p = p_next
        if callback is not None:
            callback(iteration, p, residual)
        if residual < tol:
            return SolverResult(
                p, iteration, residual, True, "jacobi", history
            )
    return SolverResult(p, iteration, residual, False, "jacobi", history)


def gauss_seidel(
    transition_t: sparse.csr_matrix,
    v: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    track_residuals: bool = False,
    x0: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    callback: Optional[IterationCallback] = None,
) -> SolverResult:
    """Gauss–Seidel sweeps on ``(I − c Tᵀ) p = (1 − c) v``.

    Because ``T`` has a zero diagonal (no self-links), the update for
    node ``y`` is ``p_y ← c · (Tᵀ p)_y + (1 − c) v_y`` using the
    freshest available values of ``p``.  Converges in roughly half the
    iterations of Jacobi on typical web graphs.

    Implemented as one sparse *lower-triangular solve* per sweep:
    splitting the system matrix ``A = I − cTᵀ`` into its lower part
    ``Λ`` (diagonal included) and strict upper part ``Υ``, the
    sequential natural-order update is exactly
    ``Λ p⁽ⁱ⁾ = (1 − c)v − Υ p⁽ⁱ⁻¹⁾`` — which SciPy performs in
    compiled code.
    """
    _validate_inputs(transition_t, v, damping, tol)
    n = transition_t.shape[0]
    system = sparse.identity(n, format="csr") - damping * transition_t.tocsr()
    lower = sparse.tril(system, k=0, format="csr")
    upper = sparse.triu(system, k=1, format="csr")
    p = _initial_iterate(v, x0, start_iteration)
    jump = (1.0 - damping) * v
    residual = np.inf
    history: Optional[List[float]] = [] if track_residuals else None
    iteration = start_iteration
    for iteration in range(start_iteration + 1, max_iter + 1):
        rhs = jump - upper @ p
        p_next = sparse_linalg.spsolve_triangular(
            lower, rhs, lower=True, unit_diagonal=True
        )
        p_next = np.asarray(p_next, dtype=np.float64).ravel()
        residual = float(np.abs(p_next - p).sum())
        if history is not None:
            history.append(residual)
        p = p_next
        if callback is not None:
            callback(iteration, p, residual)
        if residual < tol:
            return SolverResult(
                p, iteration, residual, True, "gauss_seidel", history
            )
    return SolverResult(
        p, iteration, residual, False, "gauss_seidel", history
    )


def power_iteration(
    transition_t: sparse.csr_matrix,
    v: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    dangling_mask: Optional[np.ndarray] = None,
    track_residuals: bool = False,
    x0: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    callback: Optional[IterationCallback] = None,
) -> SolverResult:
    """Power iteration on the augmented matrix ``T''`` of equation (1).

    This is the classical eigenvector PageRank: dangling rows are patched
    with ``v`` and a ``(1 − c)`` teleport is added, keeping iterates on
    the probability simplex.  Requires ``‖v‖₁ = 1``.  The fixed point is
    the linear-system solution normalized to unit L1 norm.

    ``dangling_mask`` marks nodes with zero out-degree; when omitted it
    is derived from the column sums of ``Tᵀ``.
    """
    _validate_inputs(transition_t, v, damping, tol)
    if abs(float(v.sum()) - 1.0) > 1e-9:
        raise ValueError(
            "power iteration requires a normalized random-jump vector "
            "(the eigenvector formulation is probabilistic); use the "
            "linear solvers for unnormalized v"
        )
    if dangling_mask is None:
        column_sums = np.asarray(
            transition_t.sum(axis=0)
        ).ravel()  # col x of T^T == row x of T
        dangling_mask = column_sums < 1e-12
    p = _initial_iterate(v, x0, start_iteration)
    residual = np.inf
    history: Optional[List[float]] = [] if track_residuals else None
    iteration = start_iteration
    for iteration in range(start_iteration + 1, max_iter + 1):
        dangling_weight = float(p[dangling_mask].sum())
        p_next = (
            damping * (transition_t @ p)
            + damping * dangling_weight * v
            + (1.0 - damping) * v
        )
        # guard against floating-point drift off the simplex
        p_next /= p_next.sum()
        residual = float(np.abs(p_next - p).sum())
        if history is not None:
            history.append(residual)
        p = p_next
        if callback is not None:
            callback(iteration, p, residual)
        if residual < tol:
            return SolverResult(p, iteration, residual, True, "power", history)
    return SolverResult(p, iteration, residual, False, "power", history)


def direct(
    transition_t: sparse.csr_matrix,
    v: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 0,
    track_residuals: bool = False,
    x0: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    callback: Optional[IterationCallback] = None,
) -> SolverResult:
    """Sparse LU solve of ``(I − c Tᵀ) p = (1 − c) v`` (test oracle).

    ``track_residuals``/``x0``/``start_iteration``/``callback`` are
    accepted for signature uniformity with the iterative solvers (the
    fallback chain dispatches blindly) and ignored — a direct solve has
    no iterations to hook into.
    """
    _validate_inputs(transition_t, v, damping, tol)
    n = transition_t.shape[0]
    system = sparse.identity(n, format="csc") - damping * transition_t.tocsc()
    rhs = (1.0 - damping) * v
    p = sparse_linalg.spsolve(system, rhs)
    p = np.asarray(p, dtype=np.float64).ravel()
    residual = float(np.abs(system @ p - rhs).sum())
    return SolverResult(p, 0, residual, residual < max(tol, 1e-8), "direct")


def bicgstab(
    transition_t: sparse.csr_matrix,
    v: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    track_residuals: bool = False,
    x0: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    callback: Optional[IterationCallback] = None,
) -> SolverResult:
    """BiCGSTAB Krylov solve of the linear PageRank system.

    ``x0`` warm-starts the Krylov iteration; the remaining uniformity
    parameters are ignored (SciPy owns the iteration loop).  SciPy
    stops on the L2 norm of its residual, so the solve passes it
    ``atol = tol / √n``: since ``‖r‖₁ ≤ √n·‖r‖₂``, that stop implies
    the L1 bound the other solvers use.  ``iterations`` counts SciPy's
    iterations (two products each) through its callback, and
    ``converged`` is read from the final L1 residual
    ``‖(I − cTᵀ)p − (1 − c)v‖₁ < tol`` itself.
    """
    _validate_inputs(transition_t, v, damping, tol)
    n = transition_t.shape[0]
    system = sparse.identity(n, format="csr") - damping * transition_t.tocsr()
    rhs = (1.0 - damping) * v
    iterations = 0
    last = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    def _count(xk: np.ndarray) -> None:
        nonlocal iterations, last
        iterations += 1
        last = xk.copy()

    # note: seeding x0 = v invites an exact BiCGSTAB breakdown (rho = 0)
    # on symmetric-ish tiny systems; the default zero start is robust
    p, _info = sparse_linalg.bicgstab(
        system, rhs, x0=x0, rtol=0.0, atol=tol / np.sqrt(n),
        maxiter=max_iter, callback=_count,
    )
    p = np.asarray(p, dtype=np.float64).ravel()
    # SciPy returns from a half step that meets atol without calling back
    iterations += int(not np.array_equal(p, last))
    residual = float(np.abs(system @ p - rhs).sum())
    return SolverResult(p, iterations, residual, residual < tol, "bicgstab")


SOLVERS: Dict[str, Callable[..., SolverResult]] = {
    "jacobi": jacobi,
    "gauss_seidel": gauss_seidel,
    "power": power_iteration,
    "direct": direct,
    "bicgstab": bicgstab,
}


def solve(
    method: str,
    transition_t: sparse.csr_matrix,
    v: np.ndarray,
    damping: float = 0.85,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    *,
    check: bool = False,
    track_residuals: bool = False,
    x0: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    callback: Optional[IterationCallback] = None,
) -> SolverResult:
    """Dispatch to a solver by name (see :data:`SOLVERS`).

    check:
        Raise :class:`~repro.errors.ConvergenceError` (carrying the
        best-effort result) when the stopping criterion was not met —
        the exhaust-path otherwise returns ``converged=False`` silently
        and nothing downstream is forced to look at the flag.
    x0, start_iteration, callback:
        Warm start and per-iteration hook, forwarded to the solver.
    """
    try:
        solver = SOLVERS[method]
    except KeyError:
        raise ValueError(
            f"unknown solver {method!r}; available: {sorted(SOLVERS)}"
        ) from None

    result = solver(
        transition_t,
        v,
        damping=damping,
        tol=tol,
        max_iter=max_iter,
        track_residuals=track_residuals,
        x0=x0,
        start_iteration=start_iteration,
        callback=callback,
    )
    if check and not result.converged:
        raise ConvergenceError(
            f"solver {method!r} did not converge: residual "
            f"{result.residual:.3e} after {result.iterations} iterations "
            f"(tol {tol:g}); pass check=False for the best-effort vector",
            result=result,
        )
    return result
