"""High-level linear PageRank API (Section 2.2 of the paper).

The paper writes ``p = PR(v)`` for the unique solution of the linear
system ``(I − c Tᵀ) p = (1 − c) v`` and deliberately allows
*unnormalized* random-jump vectors ``0 < ‖v‖₁ ≤ 1`` — this is what makes
core-based PageRank (the jump restricted to the good core) a
first-class citizen.  This module exposes that notation directly:

>>> from repro.datasets import figure2_graph
>>> from repro.core import pagerank, uniform_jump_vector
>>> world = figure2_graph()
>>> p = pagerank(world.graph).scores

Scaled scores
-------------
Throughout its experimental sections the paper reports PageRank scores
scaled by ``n / (1 − c)`` so the minimum score (a node with no inlinks)
reads as 1.  :func:`scale_scores` applies that convention.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from ..errors import ConvergenceError
from ..graph.webgraph import WebGraph
from .solvers import SolverResult, solve

__all__ = [
    "pagerank",
    "pagerank_from_matrix",
    "uniform_jump_vector",
    "core_jump_vector",
    "scaled_core_jump_vector",
    "indicator_jump_vector",
    "scale_scores",
    "unscale_scores",
    "DEFAULT_DAMPING",
]

#: The damping factor used throughout the paper's examples/experiments.
DEFAULT_DAMPING = 0.85

JumpSpec = Union[None, np.ndarray, Sequence[int]]


def uniform_jump_vector(num_nodes: int) -> np.ndarray:
    """The uniform random-jump distribution ``v = (1/n)ₙ``."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    return np.full(num_nodes, 1.0 / num_nodes, dtype=np.float64)


def core_jump_vector(num_nodes: int, core: Iterable[int]) -> np.ndarray:
    """The core-based jump vector ``v^{Ṽ⁺}`` of Section 3.4.

    Entries are ``1/n`` on core nodes and 0 elsewhere; the vector is
    deliberately left unnormalized (``‖v^{Ṽ⁺}‖ = |Ṽ⁺|/n``).
    """
    core_arr = _core_array(num_nodes, core)
    v = np.zeros(num_nodes, dtype=np.float64)
    v[core_arr] = 1.0 / num_nodes
    return v


def scaled_core_jump_vector(
    num_nodes: int, core: Iterable[int], gamma: float
) -> np.ndarray:
    """The γ-scaled core jump vector ``w`` of Section 3.5.

    ``w_x = γ / |Ṽ⁺|`` for core members and 0 elsewhere, so
    ``‖w‖ = γ ≈ ‖v^{V⁺}‖`` — the total good random-jump weight the full
    (unknown) good set would receive.  The paper's experiments use
    ``γ = 0.85`` (at least 15% of hosts assumed spam).
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    core_arr = _core_array(num_nodes, core)
    if len(core_arr) == 0:
        raise ValueError("core must contain at least one node")
    v = np.zeros(num_nodes, dtype=np.float64)
    v[core_arr] = gamma / len(core_arr)
    return v


def indicator_jump_vector(
    num_nodes: int, nodes: Iterable[int], base: Optional[np.ndarray] = None
) -> np.ndarray:
    """Restriction ``v^U`` of a jump vector to a node subset ``U``.

    Per Theorem 2 and its corollary, ``PR(v^U)`` is the total PageRank
    contribution of the nodes of ``U``.  ``base`` defaults to the
    uniform distribution.
    """
    nodes_arr = _core_array(num_nodes, nodes)
    if base is None:
        base = uniform_jump_vector(num_nodes)
    elif base.shape != (num_nodes,):
        raise ValueError("base jump vector has the wrong length")
    v = np.zeros(num_nodes, dtype=np.float64)
    v[nodes_arr] = base[nodes_arr]
    return v


def _core_array(num_nodes: int, core: Iterable[int]) -> np.ndarray:
    arr = np.unique(np.asarray(list(core), dtype=np.int64))
    if len(arr) and (arr.min() < 0 or arr.max() >= num_nodes):
        raise ValueError("core contains node ids out of range")
    return arr


def _resolve_jump(graph_size: int, v: JumpSpec) -> np.ndarray:
    if v is None:
        return uniform_jump_vector(graph_size)
    if isinstance(v, np.ndarray):
        if v.shape != (graph_size,):
            raise ValueError(
                f"jump vector has shape {v.shape}, expected ({graph_size},)"
            )
        return v.astype(np.float64, copy=False)
    # sequence of node ids → unnormalized core vector
    return core_jump_vector(graph_size, v)


def pagerank(
    graph: WebGraph,
    v: JumpSpec = None,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    method: str = "jacobi",
    raise_on_divergence: bool = True,
) -> SolverResult:
    """Compute ``p = PR(v)`` for a web graph.

    Parameters
    ----------
    graph:
        The web graph.
    v:
        ``None`` for the uniform distribution, a dense vector, or an
        iterable of node ids (treated as the core-based vector
        ``v^{core}`` with ``1/n`` entries).
    damping:
        The damping factor ``c`` (paper default 0.85).
    tol, max_iter, method:
        Solver controls; see :mod:`repro.core.solvers`.
    raise_on_divergence:
        Raise :class:`~repro.errors.ConvergenceError` (a
        ``RuntimeError`` subclass) when the solver fails to converge
        instead of returning a non-converged result.

    The transition operator ``Tᵀ`` comes from the process-wide
    :class:`~repro.perf.OperatorCache` (built once per graph, shared by
    every caller), on either graph backend.
    """
    from ..perf import get_engine  # deferred: perf imports this module

    return pagerank_from_matrix(
        get_engine().operator(graph),
        _resolve_jump(graph.num_nodes, v),
        damping=damping,
        tol=tol,
        max_iter=max_iter,
        method=method,
        raise_on_divergence=raise_on_divergence,
    )


def pagerank_from_matrix(
    transition_t: sparse.csr_matrix,
    v: np.ndarray,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    method: str = "jacobi",
    raise_on_divergence: bool = True,
) -> SolverResult:
    """Compute PageRank from a pre-built ``Tᵀ`` (for instance
    ``engine.operator(graph)``, to solve one graph's operator on an
    engine of the caller's choosing).

    Non-convergence raises :class:`~repro.errors.ConvergenceError`
    unless ``raise_on_divergence=False``.
    """
    try:
        return solve(
            method,
            transition_t,
            v,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
            check=raise_on_divergence,
        )
    except ConvergenceError as exc:
        residual = (
            f"{exc.result.residual:.3e}" if exc.result is not None else "n/a"
        )
        raise ConvergenceError(
            f"PageRank solver {method!r} failed to converge within "
            f"{max_iter} iterations (residual {residual})",
            result=exc.result,
        ) from None


def scale_scores(
    scores: np.ndarray, num_nodes: int, damping: float = DEFAULT_DAMPING
) -> np.ndarray:
    """Scale scores by ``n / (1 − c)`` (paper's readability convention).

    Under this scaling a node with no inlinks has score exactly 1 when
    the uniform jump vector is used.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    return np.asarray(scores, dtype=np.float64) * (
        num_nodes / (1.0 - damping)
    )


def unscale_scores(
    scores: np.ndarray, num_nodes: int, damping: float = DEFAULT_DAMPING
) -> np.ndarray:
    """Inverse of :func:`scale_scores`."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    return np.asarray(scores, dtype=np.float64) * (
        (1.0 - damping) / num_nodes
    )
