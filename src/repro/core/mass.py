"""Spam mass: definitions and estimators (Sections 3.3–3.5).

Given a partitioning of the web into good nodes ``V⁺`` and spam nodes
``V⁻``, the **absolute spam mass** of ``x`` is the PageRank contribution
it receives from spam,

.. math:: M_x = q_x^{V^-},

and the **relative spam mass** is the spam fraction of its PageRank,
``m_x = M_x / p_x``.  Perfect knowledge of the partition is
unrealistic; Section 3.4 estimates mass from a known *good core*
``Ṽ⁺`` via two PageRank vectors:

.. math::

    \\tilde M = p - p', \\qquad
    \\tilde m = 1 - p'_x / p_x,

where ``p = PR(v)`` (uniform jump) and ``p' = PR(w)`` is a *core-based*
PageRank.  Section 3.5 observes that an unscaled core vector
``v^{Ṽ⁺}`` makes ``‖p'‖ ≪ ‖p‖`` (all mass estimates collapse onto the
PageRank scores), and fixes it by scaling the core jump to
``w_x = γ/|Ṽ⁺|`` so ``‖w‖ = γ``, the estimated good fraction of the
web.  A consequence embraced by the paper: core members and nodes
heavily supported by the core get *negative* estimated mass.

When a spam core ``Ṽ⁻`` is available instead (or additionally),
``M̂ = PR(v^{Ṽ⁻})`` estimates mass directly; combination schemes live
in :mod:`repro.core.combined`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..graph.delta import DeltaApplication
from ..graph.webgraph import WebGraph
from ..obs import get_telemetry
from .contribution import contribution_vector
from .pagerank import (
    DEFAULT_DAMPING,
    core_jump_vector,
    pagerank_from_matrix,
    scale_scores,
    scaled_core_jump_vector,
    uniform_jump_vector,
)

__all__ = [
    "MassEstimates",
    "true_spam_mass",
    "true_relative_mass",
    "estimate_spam_mass",
    "mass_jump_block",
    "blacklist_mass",
    "DEFAULT_GAMMA",
]

#: The paper's conservative good-fraction estimate for the 2004 Yahoo!
#: host graph: "at least 15% of the hosts are spam", hence ``γ = 0.85``.
DEFAULT_GAMMA = 0.85


class MassEstimates:
    """Bundle of the vectors produced by a mass-estimation run.

    Attributes
    ----------
    pagerank:
        ``p = PR(v)``, the regular PageRank (uniform jump), unscaled.
    core_pagerank:
        ``p' = PR(w)``, the core-based PageRank, unscaled.
    absolute:
        Estimated absolute mass ``M̃ = p − p'`` (may be negative).
    relative:
        Estimated relative mass ``m̃ = 1 − p'/p``; defined as 0 where
        ``p`` is 0 (a node with no PageRank has no mass of any kind).
    damping, gamma:
        The parameters the estimates were produced with (``gamma`` is
        ``None`` for the unscaled Section 3.4 variant).
    """

    __slots__ = (
        "pagerank",
        "core_pagerank",
        "absolute",
        "relative",
        "damping",
        "gamma",
    )

    def __init__(
        self,
        pagerank: np.ndarray,
        core_pagerank: np.ndarray,
        damping: float,
        gamma: Optional[float],
    ) -> None:
        if pagerank.shape != core_pagerank.shape:
            raise ValueError("score vectors must have identical shapes")
        self.pagerank = pagerank
        self.core_pagerank = core_pagerank
        self.damping = damping
        self.gamma = gamma
        self.absolute = pagerank - core_pagerank
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = 1.0 - core_pagerank / pagerank
        rel[~np.isfinite(rel)] = 0.0
        self.relative = rel

    @property
    def num_nodes(self) -> int:
        """Number of nodes the estimates cover."""
        return len(self.pagerank)

    def scaled_pagerank(self) -> np.ndarray:
        """PageRank scaled by ``n/(1 − c)`` (paper's convention)."""
        return scale_scores(self.pagerank, self.num_nodes, self.damping)

    def scaled_core_pagerank(self) -> np.ndarray:
        """Core-based PageRank under the same scaling."""
        return scale_scores(self.core_pagerank, self.num_nodes, self.damping)

    def scaled_absolute(self) -> np.ndarray:
        """Absolute mass under the same scaling (Table 1 / Figure 6)."""
        return scale_scores(self.absolute, self.num_nodes, self.damping)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MassEstimates(n={self.num_nodes}, c={self.damping}, "
            f"gamma={self.gamma})"
        )


def true_spam_mass(
    graph: WebGraph,
    spam_nodes: Iterable[int],
    v: Optional[np.ndarray] = None,
    damping: float = DEFAULT_DAMPING,
    *,
    tol: float = 1e-12,
    method: str = "jacobi",
) -> np.ndarray:
    """Actual absolute mass ``M = q^{V⁻}`` given full knowledge of
    ``V⁻`` (Definition 1) — the oracle quantity estimators target.
    """
    return contribution_vector(
        graph, spam_nodes, v, damping, tol=tol, method=method
    )


def true_relative_mass(
    graph: WebGraph,
    spam_nodes: Iterable[int],
    v: Optional[np.ndarray] = None,
    damping: float = DEFAULT_DAMPING,
    *,
    tol: float = 1e-12,
    method: str = "jacobi",
) -> np.ndarray:
    """Actual relative mass ``m = M/p`` (Definition 2)."""
    from .pagerank import pagerank  # local import to avoid cycle noise

    mass = true_spam_mass(
        graph, spam_nodes, v, damping, tol=tol, method=method
    )
    scores = pagerank(graph, v, damping=damping, tol=tol, method=method).scores
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = mass / scores
    rel[~np.isfinite(rel)] = 0.0
    return rel


def mass_jump_block(
    n: int, good_core: Sequence[int], gamma: Optional[float]
) -> np.ndarray:
    """The ``(n, 2)`` jump vectors ``[v, w]`` of a mass estimate: the
    uniform ``v`` of ``p`` and the core vector ``w`` of ``p′``, scaled
    to ``‖w‖ = γ`` (unscaled for ``gamma=None``).

    The block is read-only: it depends only on ``n``, the core and γ,
    so a caller that re-estimates one graph size with one core builds
    it once and passes it as ``estimate_spam_mass(jumps=...)``, and
    the engine scans its entries once (see
    :class:`~repro.perf.engine.PagerankEngine`).
    """
    if gamma is None:
        w = core_jump_vector(n, good_core)
    else:
        w = scaled_core_jump_vector(n, good_core, gamma)
    block = np.stack([uniform_jump_vector(n), w], axis=1)
    block.setflags(write=False)
    return block


def estimate_spam_mass(
    graph: WebGraph,
    good_core: Sequence[int],
    *,
    damping: float = DEFAULT_DAMPING,
    gamma: Optional[float] = DEFAULT_GAMMA,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    method: str = "jacobi",
    transition_t=None,
    check: bool = True,
    engine=None,
    previous: Optional[MassEstimates] = None,
    jumps: Optional[np.ndarray] = None,
) -> MassEstimates:
    """Estimate spam mass from a good core (Definition 3 + Section 3.5).

    Parameters
    ----------
    graph:
        The web graph — or, for incremental re-estimation, a
        :class:`~repro.graph.delta.DeltaApplication` pairing the graph
        the ``previous`` estimates were computed on with its mutated
        successor.
    good_core:
        Node ids of the known-good core ``Ṽ⁺``.  The paper's guidance:
        as large as possible and as broad as possible (orders of
        magnitude larger than a TrustRank seed).
    gamma:
        The estimated fraction of good nodes; the core jump vector is
        scaled to ``‖w‖ = γ``.  Pass ``None`` to reproduce the *unscaled*
        Section 3.4 estimator (useful to demonstrate the ``‖p'‖ ≪ ‖p‖``
        failure mode; see the γ-scaling ablation).
    transition_t:
        Optional pre-built ``Tᵀ`` in CSR form.  Rarely needed anymore:
        without it the solves go through the perf engine, whose
        operator cache already builds ``Tᵀ`` once per graph, and whose
        ``solve_many`` computes ``p`` and ``p'`` in a single batched
        block iteration.  Passing an explicit matrix opts out of both.
    engine:
        Optional :class:`~repro.perf.PagerankEngine`; defaults to the
        process-wide shared engine (:func:`repro.perf.get_engine`).
    check:
        Raise :class:`~repro.errors.ConvergenceError` if either
        PageRank solve fails to converge — mass estimates computed from
        an unconverged vector are garbage, so treating that silently is
        opt-*out* (``check=False``), never the default.
    previous:
        Optional :class:`MassEstimates` from the graph *before* the
        delta.  Requires ``graph`` to be a
        :class:`~repro.graph.delta.DeltaApplication`; the two PageRank
        vectors are then *updated* by Gauss–Southwell residual pushes
        seeded at the touched nodes
        (:meth:`~repro.perf.engine.PagerankEngine.update_many`) instead
        of re-solved from scratch, converging to the same ``tol``.
    jumps:
        Optional ``mass_jump_block(n, good_core, gamma)`` of this
        graph's ``n`` and these ``good_core`` and ``gamma``, built once
        by a caller that re-estimates with them repeatedly; without it
        the block is built per call.
    """
    core_list = list(good_core)
    if not core_list:
        raise ValueError("good core must not be empty")
    application = None
    if isinstance(graph, DeltaApplication):
        application = graph
        graph = application.after
    if jumps is not None and jumps.shape != (graph.num_nodes, 2):
        raise ValueError(
            f"jumps has shape {jumps.shape}, expected "
            f"{(graph.num_nodes, 2)}"
        )
    if previous is not None:
        if application is None:
            raise ValueError(
                "previous= needs a DeltaApplication (pairing the old "
                "graph with the mutated one), not a bare WebGraph"
            )
        if transition_t is not None:
            raise ValueError(
                "previous= uses the incremental engine path and cannot "
                "be combined with transition_t="
            )
        if previous.num_nodes != graph.num_nodes:
            raise ValueError(
                f"previous estimates cover {previous.num_nodes} nodes, "
                f"graph has {graph.num_nodes}"
            )
        if previous.damping != damping or previous.gamma != gamma:
            raise ValueError(
                "previous estimates were computed with different "
                f"parameters (c={previous.damping}, γ={previous.gamma}) "
                f"than requested (c={damping}, γ={gamma})"
            )
    tele = get_telemetry()
    if not tele.enabled:
        return _estimate_spam_mass(
            graph, core_list, damping=damping, gamma=gamma, tol=tol,
            max_iter=max_iter, method=method, transition_t=transition_t,
            check=check, engine=engine, tele=tele,
            application=application, previous=previous,
            jumps=jumps,
        )
    with tele.span(
        "mass-estimate",
        core_size=len(core_list),
        gamma=gamma,
        method=method,
        incremental=previous is not None,
    ):
        return _estimate_spam_mass(
            graph, core_list, damping=damping, gamma=gamma, tol=tol,
            max_iter=max_iter, method=method, transition_t=transition_t,
            check=check, engine=engine, tele=tele,
            application=application, previous=previous,
            jumps=jumps,
        )


def _estimate_spam_mass(
    graph: WebGraph,
    core_list: list,
    *,
    damping: float,
    gamma: Optional[float],
    tol: float,
    max_iter: int,
    method: str,
    transition_t,
    check: bool,
    engine,
    tele,
    application=None,
    previous: Optional[MassEstimates] = None,
    jumps: Optional[np.ndarray] = None,
) -> MassEstimates:
    """The untraced core of :func:`estimate_spam_mass`."""
    if jumps is None:
        jumps = mass_jump_block(graph.num_nodes, core_list, gamma)

    if previous is not None:
        if engine is None:
            from ..perf import get_engine

            engine = get_engine()
        batch = engine.update_many(
            application,
            np.stack([previous.pagerank, previous.core_pagerank], axis=1),
            jumps,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
            check=check,
            labels=("pagerank", "core"),
        )
        return MassEstimates(
            batch.scores[:, 0].copy(),
            batch.scores[:, 1].copy(),
            damping,
            gamma,
        )

    if transition_t is None:
        # the engine path: shared cached operator, and (for the default
        # Jacobi) both vectors solved in one batched block iteration
        if engine is None:
            from ..perf import get_engine

            engine = get_engine()
        if method == "jacobi":
            batch = engine.solve_many(
                graph,
                jumps,
                damping=damping,
                tol=tol,
                max_iter=max_iter,
                check=check,
                labels=("pagerank", "core"),
            )
            return MassEstimates(
                batch.scores[:, 0].copy(),
                batch.scores[:, 1].copy(),
                damping,
                gamma,
            )
        # non-default solver: sequential solves, cached operator
        transition_t = engine.operator(graph)

    # sequential path: two separate solves, spanned apart so traces
    # distinguish p from p′
    u = np.ascontiguousarray(jumps[:, 0])
    w = np.ascontiguousarray(jumps[:, 1])
    with tele.span("solve:p", method=method):
        p = pagerank_from_matrix(
            transition_t,
            u,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
            method=method,
            raise_on_divergence=check,
        ).scores
    with tele.span("solve:p_prime", method=method):
        p_core = pagerank_from_matrix(
            transition_t,
            w,
            damping=damping,
            tol=tol,
            max_iter=max_iter,
            method=method,
            raise_on_divergence=check,
        ).scores
    return MassEstimates(p, p_core, damping, gamma)


def blacklist_mass(
    graph: WebGraph,
    spam_core: Sequence[int],
    *,
    damping: float = DEFAULT_DAMPING,
    gamma: Optional[float] = None,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    method: str = "jacobi",
) -> np.ndarray:
    """Estimate absolute mass from a known spam core: ``M̂ = PR(v^{Ṽ⁻})``.

    ``gamma`` optionally scales the spam-core jump vector to total
    weight ``1 − γ`` (the estimated *spam* fraction), mirroring the
    Section 3.5 scaling of the good core.  Unscaled by default, as in
    the paper's formula.
    """
    core_list = list(spam_core)
    if not core_list:
        raise ValueError("spam core must not be empty")
    n = graph.num_nodes
    if gamma is None:
        v = core_jump_vector(n, core_list)
    else:
        if not (0.0 <= gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {gamma}")
        v = scaled_core_jump_vector(n, core_list, 1.0 - gamma)
    from ..perf import get_engine

    transition_t = get_engine().operator(graph)
    return pagerank_from_matrix(
        transition_t,
        v,
        damping=damping,
        tol=tol,
        max_iter=max_iter,
        method=method,
    ).scores
