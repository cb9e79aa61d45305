"""Explaining mass estimates: who contributes to a node's PageRank.

Section 3.2 defines the contribution ``q_y^x`` of every source ``x`` to
a target ``y``; Theorem 2 computes the *forward* direction (one source,
all targets) as ``PR(vˣ)``.  For manual review of a flagged candidate
the operator needs the *backward* direction — one target, all sources —
which Jeh & Widom's inverse-P-distance formulation (the paper's basis
for Section 3.2) provides: from ``Q = (1 − c)·diag(v)·(I − cT)⁻¹``,
the column of contributions *to* ``y`` is

.. math::

    q_y^{\\cdot} = (1 - c)\\, v \\odot z, \\qquad (I - cT)\\, z = e_y ,

one linear solve on the *untransposed* system per explained node.  It
is the PageRank solve with ``T`` in place of ``Tᵀ`` and ``e_y`` as the
jump vector: ``(1 − c) z = PR_T(e_y)``, so ``q = v ⊙ PR_T(e_y)``.  The
Jacobi iteration answers it in under 60 sweeps over the edges on
graphs shaped like the synthetic ``huge`` world (48–59 sweeps, 8 ms to
0.34 s, at 10k–200k hosts), bounded by the edge count.  A sparse LU
factorization of ``I − cT``, which the tests keep as their oracle,
fills in superlinearly on such graphs (14–16 s at 10k hosts, no answer
at 50k).  On top of that, :func:`explain_mass` produces the review sheet
a search-engine editor would want for an Algorithm 2 candidate: the
top contributing sources with their shares, split into known-good
(core), suspected-spam and unknown.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..graph.ops import transition_matrix
from ..graph.webgraph import WebGraph
from .pagerank import (
    DEFAULT_DAMPING,
    pagerank_from_matrix,
    uniform_jump_vector,
)

__all__ = ["contributions_to", "MassExplanation", "explain_mass"]


def contributions_to(
    graph: WebGraph,
    target: int,
    v: Optional[np.ndarray] = None,
    damping: float = DEFAULT_DAMPING,
) -> np.ndarray:
    """The vector ``q_target^x`` of every node's contribution to
    ``target`` (sums to the target's PageRank, per Theorem 1).

    One Jacobi solve of ``(I − cT) z = e_target`` to the library's
    default tolerance, a few dozen sweeps over the edges; suitable for
    explaining individual candidates, not for all-pairs work (use
    :func:`~repro.core.contribution.contribution_matrix` on small
    graphs for that).
    """
    graph._check_node(target)
    n = graph.num_nodes
    if v is None:
        v = uniform_jump_vector(n)
    elif v.shape != (n,):
        raise ValueError(f"jump vector has shape {v.shape}, expected ({n},)")
    unit = np.zeros(n, dtype=np.float64)
    unit[target] = 1.0
    # T in the place of Tᵀ: the solve's p is (1 − c) z
    walk = pagerank_from_matrix(
        transition_matrix(graph), unit, damping=damping
    )
    return v * walk.scores


class MassExplanation:
    """Review sheet for one detection candidate.

    Attributes
    ----------
    node:
        The explained node id.
    pagerank:
        Its PageRank (unscaled).
    contributions:
        Full per-source contribution vector (sums to ``pagerank``).
    core_share, spam_share, unknown_share:
        Fractions of the node's PageRank contributed by core members,
        by known/suspected spam nodes, and by everything else
        (including the node itself).
    top_sources:
        ``(source_id, contribution, kind)`` rows, largest first, where
        ``kind`` ∈ {"core", "spam", "other", "self"}.
    """

    __slots__ = (
        "node",
        "pagerank",
        "contributions",
        "core_share",
        "spam_share",
        "unknown_share",
        "top_sources",
    )

    def __init__(
        self,
        node: int,
        pagerank: float,
        contributions: np.ndarray,
        core_share: float,
        spam_share: float,
        unknown_share: float,
        top_sources: List[tuple],
    ) -> None:
        self.node = node
        self.pagerank = pagerank
        self.contributions = contributions
        self.core_share = core_share
        self.spam_share = spam_share
        self.unknown_share = unknown_share
        self.top_sources = top_sources

    def render(self, graph: WebGraph) -> str:
        """Human-readable review sheet."""
        lines = [
            f"node {graph.name_of(self.node)} — PageRank contribution "
            "breakdown:",
            f"  core (known good): {self.core_share:6.1%}",
            f"  suspected spam:    {self.spam_share:6.1%}",
            f"  other/unknown:     {self.unknown_share:6.1%}",
            "  top sources:",
        ]
        for source, contribution, kind in self.top_sources:
            share = contribution / self.pagerank if self.pagerank else 0.0
            lines.append(
                f"    {graph.name_of(int(source)):<40} "
                f"{share:6.1%}  [{kind}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MassExplanation(node={self.node}, core={self.core_share:.2f}, "
            f"spam={self.spam_share:.2f})"
        )


def explain_mass(
    graph: WebGraph,
    node: int,
    core: Sequence[int],
    *,
    suspected_spam: Optional[Sequence[int]] = None,
    damping: float = DEFAULT_DAMPING,
    top: int = 10,
) -> MassExplanation:
    """Explain where a candidate's PageRank comes from.

    ``suspected_spam`` is whatever black-list/candidate set the
    operator has (possibly a previous detection run); sources in
    neither set are "other".  The explained node's own jump
    contribution is labelled "self".
    """
    if top < 1:
        raise ValueError("top must be positive")
    contributions = contributions_to(graph, node, damping=damping)
    total = float(contributions.sum())
    core_mask = np.zeros(graph.num_nodes, dtype=bool)
    core_arr = np.asarray(list(core), dtype=np.int64)
    if len(core_arr):
        core_mask[core_arr] = True
    spam_mask = np.zeros(graph.num_nodes, dtype=bool)
    if suspected_spam is not None:
        spam_arr = np.asarray(list(suspected_spam), dtype=np.int64)
        if len(spam_arr):
            spam_mask[spam_arr] = True
    spam_mask &= ~core_mask  # white-list wins on conflict

    def share(mask: np.ndarray) -> float:
        return float(contributions[mask].sum()) / total if total else 0.0

    core_share = share(core_mask)
    spam_share = share(spam_mask)
    order = np.argsort(-contributions, kind="stable")[:top]
    top_sources = []
    for source in order:
        source = int(source)
        if contributions[source] <= 0:
            break
        if source == node:
            kind = "self"
        elif core_mask[source]:
            kind = "core"
        elif spam_mask[source]:
            kind = "spam"
        else:
            kind = "other"
        top_sources.append((source, float(contributions[source]), kind))
    return MassExplanation(
        node,
        total,
        contributions,
        core_share,
        spam_share,
        1.0 - core_share - spam_share,
        top_sources,
    )
