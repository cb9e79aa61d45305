"""Combined mass estimators using both a white-list and a black-list.

Section 3.4 sketches the situation where, besides the good core
``Ṽ⁺``, a spam core ``Ṽ⁻`` (black-list) is also available.  Then the
absolute mass can be estimated from both sides:

* white-list estimate ``M̃ = p − p'`` (what the paper's experiments
  use), and
* black-list estimate ``M̂ = PR(v^{Ṽ⁻})`` — the known spam nodes'
  direct PageRank contribution.

The paper proposes the simple average ``(M̃ + M̂)/2`` and mentions more
sophisticated schemes, "e.g., a weighted average where the weights
depend on the relative sizes of ``Ṽ⁻`` and ``Ṽ⁺`` with respect to the
estimated sizes of ``V⁻`` and ``V⁺``".  Both are implemented here:
:func:`combine_average` and :func:`combine_weighted` (which weights each
estimate by the coverage of its core, so a tiny black-list contributes
little).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph.webgraph import WebGraph
from .mass import (
    DEFAULT_GAMMA,
    MassEstimates,
    blacklist_mass,
    estimate_spam_mass,
)
from .pagerank import DEFAULT_DAMPING

__all__ = [
    "CombinedEstimates",
    "combine_average",
    "combine_weighted",
    "estimate_combined_mass",
]


class CombinedEstimates:
    """Absolute/relative mass estimates fused from both cores.

    Attributes
    ----------
    whitelist:
        The good-core :class:`MassEstimates` (provides ``p`` and ``M̃``).
    blacklist_absolute:
        The black-list estimate ``M̂``.
    absolute:
        The fused absolute-mass estimate.
    relative:
        The fused estimate divided by PageRank (0 where PageRank is 0),
        clipped to at most 1 — no node's mass can exceed its PageRank.
    weight_white:
        The weight that was applied to the white-list estimate
        (``0.5`` for the plain average).
    """

    __slots__ = (
        "whitelist",
        "blacklist_absolute",
        "absolute",
        "relative",
        "weight_white",
    )

    def __init__(
        self,
        whitelist: MassEstimates,
        blacklist_absolute: np.ndarray,
        absolute: np.ndarray,
        weight_white: float,
    ) -> None:
        self.whitelist = whitelist
        self.blacklist_absolute = blacklist_absolute
        self.absolute = absolute
        self.weight_white = weight_white
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = absolute / whitelist.pagerank
        rel[~np.isfinite(rel)] = 0.0
        self.relative = np.minimum(rel, 1.0)


def combine_average(
    whitelist: MassEstimates, blacklist_absolute: np.ndarray
) -> CombinedEstimates:
    """The paper's simple combination ``(M̃ + M̂) / 2``."""
    if blacklist_absolute.shape != whitelist.absolute.shape:
        raise ValueError("estimate vectors must have identical shapes")
    fused = 0.5 * (whitelist.absolute + blacklist_absolute)
    return CombinedEstimates(whitelist, blacklist_absolute, fused, 0.5)


def combine_weighted(
    whitelist: MassEstimates,
    blacklist_absolute: np.ndarray,
    *,
    good_core_size: int,
    spam_core_size: int,
    est_good_size: int,
    est_spam_size: int,
) -> CombinedEstimates:
    """Coverage-weighted combination (the paper's suggested refinement).

    Each estimate is weighted by how much of its underlying set the core
    covers: ``cov⁺ = |Ṽ⁺| / |V⁺|`` for the white-list and
    ``cov⁻ = |Ṽ⁻| / |V⁻|`` for the black-list, then normalized.  With
    equal coverages this reduces to the plain average; with an empty
    black-list it degenerates to the white-list estimate alone.
    """
    if blacklist_absolute.shape != whitelist.absolute.shape:
        raise ValueError("estimate vectors must have identical shapes")
    for name, value in (
        ("good_core_size", good_core_size),
        ("spam_core_size", spam_core_size),
    ):
        if value < 0:
            raise ValueError(f"{name} must be non-negative")
    if est_good_size <= 0 or est_spam_size <= 0:
        raise ValueError("estimated set sizes must be positive")
    coverage_white = min(good_core_size / est_good_size, 1.0)
    coverage_black = min(spam_core_size / est_spam_size, 1.0)
    total = coverage_white + coverage_black
    if total == 0.0:
        raise ValueError("at least one core must be non-empty")
    weight_white = coverage_white / total
    fused = (
        weight_white * whitelist.absolute
        + (1.0 - weight_white) * blacklist_absolute
    )
    return CombinedEstimates(
        whitelist, blacklist_absolute, fused, weight_white
    )


def estimate_combined_mass(
    graph: WebGraph,
    good_core: Sequence[int],
    spam_core: Sequence[int],
    *,
    damping: float = DEFAULT_DAMPING,
    gamma: Optional[float] = DEFAULT_GAMMA,
    weighted: bool = False,
    est_good_size: Optional[int] = None,
    est_spam_size: Optional[int] = None,
    tol: float = 1e-12,
) -> CombinedEstimates:
    """End-to-end combined estimation from both cores.

    With ``weighted=False`` (default) uses the plain average; with
    ``weighted=True`` the coverage-weighted scheme, for which the
    estimated true set sizes must be supplied (defaults: ``γ·n`` good,
    ``(1 − γ)·n`` spam, consistent with the γ convention).
    """
    whitelist = estimate_spam_mass(
        graph, good_core, damping=damping, gamma=gamma, tol=tol
    )
    black = blacklist_mass(graph, spam_core, damping=damping, tol=tol)
    if not weighted:
        return combine_average(whitelist, black)
    n = graph.num_nodes
    g = gamma if gamma is not None else DEFAULT_GAMMA
    if est_good_size is None:
        est_good_size = max(int(round(g * n)), 1)
    if est_spam_size is None:
        est_spam_size = max(int(round((1.0 - g) * n)), 1)
    return combine_weighted(
        whitelist,
        black,
        good_core_size=len(list(good_core)),
        spam_core_size=len(list(spam_core)),
        est_good_size=est_good_size,
        est_spam_size=est_spam_size,
    )
