"""TrustRank (Gyöngyi, Garcia-Molina, Pedersen; VLDB 2004).

The paper's own prior work, reimplemented here because Section 3.4 and
Section 5 position spam mass *against* it: TrustRank biases the random
jump to a **small, highly selective seed** of superior-quality good
pages and *demotes* spam (good pages float up), whereas mass estimation
uses a core that is orders of magnitude larger and *detects* spam.

The full TrustRank pipeline:

1. **Seed selection** by inverse PageRank — PageRank on the transposed
   graph ranks nodes by how many nodes they (transitively) reach, i.e.
   by how useful their trust would be;
2. an **oracle** (here: ground-truth labels) inspects the top-``L``
   candidates and keeps the good ones as the seed ``S⁺``;
3. **trust propagation**: ``t = PR(v^{S⁺})`` with the jump uniform over
   the seed and normalized to 1 (the classical TrustRank uses a
   normalized distribution, unlike the deliberately unnormalized core
   vector of mass estimation).

For the baseline comparison we also provide a *detection* adaptation
(TrustRank itself only demotes): flag high-PageRank nodes whose
trust-to-PageRank ratio falls below a threshold.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..core.pagerank import DEFAULT_DAMPING, pagerank, scale_scores
from ..graph.webgraph import WebGraph

__all__ = [
    "inverse_pagerank",
    "select_seed",
    "trustrank",
    "TrustRankResult",
    "trustrank_detector",
]


class TrustRankResult:
    """Outcome of a TrustRank computation.

    Attributes
    ----------
    trust:
        The trust score vector ``t`` (unscaled, sums to ≤ 1).
    seed:
        The node ids of the good seed ``S⁺`` actually used.
    inspected:
        The ids the oracle inspected (top-``L`` by inverse PageRank).
    """

    __slots__ = ("trust", "seed", "inspected")

    def __init__(
        self, trust: np.ndarray, seed: np.ndarray, inspected: np.ndarray
    ) -> None:
        self.trust = trust
        self.seed = seed
        self.inspected = inspected

    def ranked(self) -> np.ndarray:
        """Node ids sorted by decreasing trust."""
        return np.argsort(-self.trust, kind="stable")


def inverse_pagerank(
    graph: WebGraph,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
) -> np.ndarray:
    """PageRank of the transposed graph (seed-desirability score).

    High inverse PageRank means trust placed on the node would flow to
    many other nodes quickly.
    """
    return pagerank(graph.transpose(), damping=damping, tol=tol).scores


def select_seed(
    graph: WebGraph,
    oracle: Callable[[int], bool],
    seed_budget: int,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
) -> TrustRankResult:
    """Run seed selection only (steps 1–2); trust vector is left empty.

    ``oracle(node) -> bool`` answers "is this node good?" — in the
    synthetic worlds this is ground truth; in the paper it was a human
    editor.  ``seed_budget`` is ``L``, the number of oracle invocations.
    """
    if seed_budget <= 0:
        raise ValueError("seed_budget must be positive")
    desirability = inverse_pagerank(graph, damping=damping, tol=tol)
    order = np.argsort(-desirability, kind="stable")
    inspected = order[:seed_budget]
    seed = np.asarray(
        [node for node in inspected if oracle(int(node))], dtype=np.int64
    )
    return TrustRankResult(
        np.zeros(graph.num_nodes), seed, np.asarray(inspected, dtype=np.int64)
    )


def trustrank(
    graph: WebGraph,
    oracle: Callable[[int], bool],
    seed_budget: int = 200,
    *,
    damping: float = DEFAULT_DAMPING,
    tol: float = 1e-12,
    seed: Optional[Sequence[int]] = None,
) -> TrustRankResult:
    """Full TrustRank: seed selection + trust propagation.

    Pass an explicit ``seed`` to skip selection (then ``oracle`` and
    ``seed_budget`` are ignored).
    """
    if seed is not None:
        seed_arr = np.unique(np.asarray(list(seed), dtype=np.int64))
        inspected = seed_arr
    else:
        selection = select_seed(
            graph, oracle, seed_budget, damping=damping, tol=tol
        )
        seed_arr = selection.seed
        inspected = selection.inspected
    if len(seed_arr) == 0:
        raise ValueError("TrustRank seed is empty (oracle rejected all)")
    n = graph.num_nodes
    v = np.zeros(n, dtype=np.float64)
    v[seed_arr] = 1.0 / len(seed_arr)  # normalized, unlike the mass core
    trust = pagerank(graph, v, damping=damping, tol=tol).scores
    return TrustRankResult(trust, seed_arr, inspected)


def trustrank_detector(
    graph: WebGraph,
    trust: np.ndarray,
    scores: np.ndarray,
    *,
    rho: float = 10.0,
    trust_ratio_threshold: float = 0.02,
    damping: float = DEFAULT_DAMPING,
) -> np.ndarray:
    """Detection adaptation of TrustRank for the baseline comparison.

    Flags nodes with scaled PageRank ≥ ``rho`` whose trust-to-PageRank
    ratio is below ``trust_ratio_threshold`` — i.e. high-ranking nodes
    the seed's trust conspicuously fails to reach.  (TrustRank proper
    performs demotion, not detection; the paper stresses this gap.
    This adaptation is the natural detection read-out, included so the
    methods can be compared on equal footing.)

    Returns a boolean candidate mask.
    """
    if trust.shape != scores.shape:
        raise ValueError("trust and scores must have identical shapes")
    scaled = scale_scores(scores, graph.num_nodes, damping)
    eligible = scaled >= rho
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = trust / scores
    ratio[~np.isfinite(ratio)] = 0.0
    return eligible & (ratio < trust_ratio_threshold)
