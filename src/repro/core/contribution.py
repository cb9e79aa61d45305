"""PageRank contributions (Section 3.2, Theorems 1 and 2).

The contribution of node ``x`` to node ``y`` over a walk
``W = x₀ … x_k`` is

.. math::

    q_y^W = c^k\\, \\pi(W)\\, (1 - c)\\, v_x ,
    \\qquad \\pi(W) = \\prod_{i=0}^{k-1} 1/\\mathrm{out}(x_i),

the total contribution ``q_y^x`` sums over all walks in ``W_{xy}``
(plus, for ``x = y``, a virtual zero-length circuit of weight 1).  The
two theorems give the practical handles:

* **Theorem 1** — ``p_y = Σ_x q_y^x``: PageRank decomposes exactly into
  per-source contributions.
* **Theorem 2** — the vector ``qˣ`` of ``x``'s contributions to every
  node equals ``PR(vˣ)`` where ``vˣ`` zeroes the jump everywhere but at
  ``x``; by linearity this extends to any subset ``U``:
  ``q^U = PR(v^U)``.

This module provides both the *linear-system* computation (used by the
mass estimators) and a *walk-enumeration* computation (exponential, for
small graphs) so the theorems can be verified against each other in
tests.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.webgraph import WebGraph
from .pagerank import (
    DEFAULT_DAMPING,
    indicator_jump_vector,
    pagerank,
    uniform_jump_vector,
)

__all__ = [
    "walk_weight",
    "walk_contribution",
    "enumerate_walks",
    "contribution_by_enumeration",
    "contribution_vector",
    "contribution_matrix",
    "link_contribution_exact",
    "link_contribution_first_order",
]


# ----------------------------------------------------------------------
# walk-level definitions (exact, exponential — for small graphs/tests)
# ----------------------------------------------------------------------


def walk_weight(graph: WebGraph, walk: Sequence[int]) -> float:
    """The weight ``π(W) = Π 1/out(xᵢ)`` of a walk.

    ``walk`` is the node sequence ``x₀, …, x_k``; every consecutive pair
    must be an edge of the graph.
    """
    if len(walk) < 1:
        raise ValueError("a walk must contain at least one node")
    weight = 1.0
    for i in range(len(walk) - 1):
        u, w = walk[i], walk[i + 1]
        if not graph.has_edge(u, w):
            raise ValueError(f"({u}, {w}) is not an edge; not a walk")
        weight *= 1.0 / graph.out_degree(u)
    return weight


def walk_contribution(
    graph: WebGraph,
    walk: Sequence[int],
    v: Optional[np.ndarray] = None,
    damping: float = DEFAULT_DAMPING,
) -> float:
    """The contribution ``q_y^W = c^k π(W) (1 − c) v_x`` of one walk."""
    if v is None:
        v = uniform_jump_vector(graph.num_nodes)
    k = len(walk) - 1
    return (
        damping**k
        * walk_weight(graph, walk)
        * (1.0 - damping)
        * float(v[walk[0]])
    )


def enumerate_walks(
    graph: WebGraph, source: int, target: int, max_length: int
) -> Iterator[Tuple[int, ...]]:
    """Yield every walk from ``source`` to ``target`` of length 1..max.

    Walks may revisit nodes (they are walks, not paths), so cyclic
    graphs have infinitely many — ``max_length`` truncates.  The virtual
    zero-length circuit of Section 3.2 is *not* yielded; callers add its
    ``(1 − c) v_x`` term when ``source == target``.
    """
    if max_length < 1:
        return
    # simple DFS over walk prefixes
    prefixes: List[Tuple[int, ...]] = [(source,)]
    while prefixes:
        prefix = prefixes.pop()
        last = prefix[-1]
        for nxt in graph.out_neighbors(last):
            extended = prefix + (int(nxt),)
            if int(nxt) == target:
                yield extended
            if len(extended) - 1 < max_length:
                prefixes.append(extended)


def contribution_by_enumeration(
    graph: WebGraph,
    source: int,
    target: int,
    v: Optional[np.ndarray] = None,
    damping: float = DEFAULT_DAMPING,
    max_length: int = 60,
) -> float:
    """Approximate ``q_y^x`` by summing walks up to ``max_length``.

    Because each extra edge multiplies a walk's term by at most ``c``,
    the truncation error after length ``L`` is ``O(c^L)``; the default
    ``L = 60`` puts it near 1e-5 of the total for ``c = 0.85``.  Exact
    on acyclic graphs once ``max_length`` exceeds the longest path.
    """
    if v is None:
        v = uniform_jump_vector(graph.num_nodes)
    total = 0.0
    if source == target:
        total += (1.0 - damping) * float(v[source])  # virtual circuit Z_x
    for walk in enumerate_walks(graph, source, target, max_length):
        total += walk_contribution(graph, walk, v, damping)
    return total


# ----------------------------------------------------------------------
# linear-system computation (Theorem 2)
# ----------------------------------------------------------------------


def contribution_vector(
    graph: WebGraph,
    sources: Iterable[int],
    v: Optional[np.ndarray] = None,
    damping: float = DEFAULT_DAMPING,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> np.ndarray:
    """Total contribution ``q^U`` of a source set ``U`` to every node.

    Computed as ``PR(v^U)`` per Theorem 2 and the linearity corollary.
    ``v`` is the underlying jump distribution (uniform by default); the
    restriction ``v^U`` is built internally.
    """
    v_u = indicator_jump_vector(graph.num_nodes, sources, v)
    return pagerank(
        graph, v_u, damping=damping, tol=tol, max_iter=max_iter
    ).scores


def contribution_matrix(
    graph: WebGraph,
    v: Optional[np.ndarray] = None,
    damping: float = DEFAULT_DAMPING,
) -> np.ndarray:
    """Dense matrix ``Q`` with ``Q[x, y] = q_y^x`` (small graphs only).

    Derivation: Theorem 2 gives ``qˣ = (1 − c)(I − c Tᵀ)⁻¹ vˣ``, so the
    stacked matrix is ``Q = (1 − c) · diag(v) · (I − c T)⁻¹``.  Columns
    of ``Q`` sum to PageRank scores (Theorem 1) — asserted in tests.
    """
    n = graph.num_nodes
    if n > 4000:
        raise ValueError(
            "contribution_matrix densifies an n x n matrix; "
            f"n={n} is too large (limit 4000)"
        )
    if v is None:
        v = uniform_jump_vector(n)
    from ..graph.ops import transition_matrix  # local import, avoids cycle

    t_dense = transition_matrix(graph).toarray()
    resolvent = np.linalg.inv(np.eye(n) - damping * t_dense)
    return (1.0 - damping) * (v[:, None] * resolvent)


# ----------------------------------------------------------------------
# link contributions (the second naive scheme of Section 3.1)
# ----------------------------------------------------------------------


def link_contribution_exact(
    graph: WebGraph,
    source: int,
    target: int,
    v: Optional[np.ndarray] = None,
    damping: float = DEFAULT_DAMPING,
    *,
    tol: float = 1e-12,
) -> float:
    """Contribution of the link ``(source, target)`` to ``target``'s
    PageRank, defined (Section 3.1) as the change in PageRank induced by
    removing the link.

    Recomputes PageRank on the graph without the edge — exact but one
    full solve per link; meant for the naive-scheme baseline and small
    analyses.
    """
    if not graph.has_edge(source, target):
        raise ValueError(f"({source}, {target}) is not an edge")
    if v is None:
        v = uniform_jump_vector(graph.num_nodes)
    edges = [(u, w) for (u, w) in graph.edges() if (u, w) != (source, target)]
    pruned = WebGraph.from_edges(graph.num_nodes, edges, graph.names)
    p_full = pagerank(graph, v, damping=damping, tol=tol).scores
    p_pruned = pagerank(pruned, v, damping=damping, tol=tol).scores
    return float(p_full[target] - p_pruned[target])


def link_contribution_first_order(
    graph: WebGraph,
    source: int,
    target: int,
    scores: np.ndarray,
    damping: float = DEFAULT_DAMPING,
) -> float:
    """First-order link contribution ``c · p_source / out(source)``.

    The one-step approximation of the exact removal-based contribution;
    exact when ``source`` lies on no circuit through ``target``.
    """
    if not graph.has_edge(source, target):
        raise ValueError(f"({source}, {target}) is not an edge")
    return damping * float(scores[source]) / graph.out_degree(source)
