"""Mass-based spam detection — Algorithm 2 of the paper (Section 3.6).

The detector takes a good core ``Ṽ⁺``, a **relative-mass threshold**
``τ`` and a **PageRank threshold** ``ρ``; a node ``x`` is labeled a spam
candidate when

* ``p_x ≥ ρ`` — it has enough PageRank to be a boosting beneficiary at
  all (and enough contributing evidence for the estimate to be stable:
  the paper gives three reasons for the PageRank filter), and
* ``m̃_x ≥ τ`` — a τ-fraction or more of that PageRank is estimated to
  come from spam.

The paper applies ``ρ`` on *scaled* PageRank (``ρ = 10`` in the
experiments, i.e. ten times the minimum score); :class:`MassDetector`
follows that convention by default.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..graph.webgraph import WebGraph
from ..obs import get_telemetry
from .mass import DEFAULT_GAMMA, MassEstimates, estimate_spam_mass
from .pagerank import DEFAULT_DAMPING

__all__ = [
    "DetectionResult",
    "DetectionUpdate",
    "MassDetector",
    "detect_spam",
]


class DetectionResult:
    """Outcome of a detection run.

    Attributes
    ----------
    candidates:
        Sorted array of node ids labeled spam candidates (the set ``S``
        of Algorithm 2).
    candidate_mask:
        Boolean per-node mask of the same labeling.
    eligible_mask:
        Boolean mask of nodes that passed the PageRank filter
        (``p_x ≥ ρ``) and therefore had their mass estimate inspected.
    tau, rho:
        The thresholds used.
    estimates:
        The :class:`~repro.core.mass.MassEstimates` the decision was
        based on.
    """

    __slots__ = ("candidates", "candidate_mask", "eligible_mask", "tau", "rho", "estimates")

    def __init__(
        self,
        candidate_mask: np.ndarray,
        eligible_mask: np.ndarray,
        tau: float,
        rho: float,
        estimates: MassEstimates,
    ) -> None:
        self.candidate_mask = candidate_mask
        self.eligible_mask = eligible_mask
        self.candidates = np.flatnonzero(candidate_mask)
        self.tau = tau
        self.rho = rho
        self.estimates = estimates

    @property
    def num_candidates(self) -> int:
        """Size of the spam-candidate set ``S``."""
        return len(self.candidates)

    @property
    def num_eligible(self) -> int:
        """Number of nodes that passed the PageRank filter."""
        return int(self.eligible_mask.sum())

    def is_candidate(self, node: int) -> bool:
        """Whether ``node`` was labeled a spam candidate."""
        return bool(self.candidate_mask[node])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DetectionResult(candidates={self.num_candidates}, "
            f"eligible={self.num_eligible}, tau={self.tau}, rho={self.rho})"
        )


class DetectionUpdate:
    """Result of an incremental re-labeling pass.

    Attributes
    ----------
    result:
        The post-update :class:`DetectionResult` — identical, node for
        node, to a fresh :meth:`MassDetector.detect` on the new
        estimates.
    newly_flagged:
        Node ids that crossed *into* the candidate set.
    newly_cleared:
        Node ids that crossed *out* of it.
    relabeled:
        Total number of label flips (``len(newly_flagged) +
        len(newly_cleared)``).
    """

    __slots__ = ("result", "newly_flagged", "newly_cleared")

    def __init__(
        self,
        result: DetectionResult,
        newly_flagged: np.ndarray,
        newly_cleared: np.ndarray,
    ) -> None:
        self.result = result
        self.newly_flagged = newly_flagged
        self.newly_cleared = newly_cleared

    @property
    def relabeled(self) -> int:
        return len(self.newly_flagged) + len(self.newly_cleared)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DetectionUpdate(+{len(self.newly_flagged)}, "
            f"-{len(self.newly_cleared)}, "
            f"candidates={self.result.num_candidates})"
        )


class MassDetector:
    """Algorithm 2: label spam candidates by estimated relative mass.

    Parameters
    ----------
    tau:
        Relative-mass threshold ``τ`` in ``(-inf, 1]``.  The paper finds
        ``τ = 0.98`` gives near-perfect precision on the Yahoo! graph.
    rho:
        PageRank threshold ``ρ``.  Interpreted on the *scaled* score
        axis (min score = 1) when ``scaled_rho`` is true — the paper
        uses ``ρ = 10`` that way — otherwise on raw scores.
    scaled_rho:
        See above; default ``True``.
    """

    def __init__(
        self, tau: float, rho: float, *, scaled_rho: bool = True
    ) -> None:
        if tau > 1.0:
            raise ValueError(
                f"tau={tau} can never fire: relative mass is at most 1"
            )
        if rho < 0.0:
            raise ValueError("rho must be non-negative")
        self.tau = tau
        self.rho = rho
        self.scaled_rho = scaled_rho

    def detect(self, estimates: MassEstimates) -> DetectionResult:
        """Apply the thresholds to precomputed mass estimates."""
        tele = get_telemetry()
        with tele.span("detect", tau=self.tau, rho=self.rho) as sp:
            if self.scaled_rho:
                scores = estimates.scaled_pagerank()
            else:
                scores = estimates.pagerank
            eligible = scores >= self.rho
            candidates = eligible & (estimates.relative >= self.tau)
            result = DetectionResult(
                candidates, eligible, self.tau, self.rho, estimates
            )
            if tele.enabled:
                sp.set("candidates", result.num_candidates)
                sp.set("eligible", result.num_eligible)
                tele.set_gauge("detect.candidates", result.num_candidates)
            return result

    def update(
        self, previous: DetectionResult, estimates: MassEstimates
    ) -> DetectionUpdate:
        """Re-label only the nodes whose thresholds were crossed.

        Starts from ``previous``'s labeling and flips exactly the nodes
        whose eligibility (``p ≥ ρ``) or relative mass (``m̃ ≥ τ``)
        crossed a threshold under the new ``estimates`` — the usual
        case after an incremental mass update, where the vast majority
        of nodes kept their labels.  The produced labeling is identical
        to a fresh :meth:`detect` (the update tests pin this), but the
        result also reports *which* nodes flipped, which is the signal
        a deployment actually acts on between crawls.
        """
        if estimates.num_nodes != len(previous.candidate_mask):
            raise ValueError(
                f"estimates cover {estimates.num_nodes} nodes, previous "
                f"labeling covers {len(previous.candidate_mask)}"
            )
        tele = get_telemetry()
        with tele.span(
            "detect:update", tau=self.tau, rho=self.rho
        ) as sp:
            if self.scaled_rho:
                scores = estimates.scaled_pagerank()
            else:
                scores = estimates.pagerank
            eligible = scores >= self.rho
            should_flag = eligible & (estimates.relative >= self.tau)
            crossed = should_flag != previous.candidate_mask
            candidate_mask = previous.candidate_mask.copy()
            candidate_mask[crossed] = should_flag[crossed]
            newly_flagged = np.flatnonzero(
                crossed & ~previous.candidate_mask
            )
            newly_cleared = np.flatnonzero(
                crossed & previous.candidate_mask
            )
            result = DetectionResult(
                candidate_mask, eligible, self.tau, self.rho, estimates
            )
            update = DetectionUpdate(result, newly_flagged, newly_cleared)
            if tele.enabled:
                sp.set("candidates", result.num_candidates)
                sp.set("newly_flagged", len(newly_flagged))
                sp.set("newly_cleared", len(newly_cleared))
                tele.set_gauge("detect.candidates", result.num_candidates)
                tele.inc("detect.relabeled", update.relabeled)
            return update

    def detect_on_graph(
        self,
        graph: WebGraph,
        good_core: Sequence[int],
        *,
        damping: float = DEFAULT_DAMPING,
        gamma: Optional[float] = DEFAULT_GAMMA,
        tol: float = 1e-12,
    ) -> DetectionResult:
        """End-to-end Algorithm 2: estimate mass, then threshold."""
        estimates = estimate_spam_mass(
            graph, good_core, damping=damping, gamma=gamma, tol=tol
        )
        return self.detect(estimates)


def detect_spam(
    graph: WebGraph,
    good_core: Sequence[int],
    *,
    tau: float = 0.98,
    rho: float = 10.0,
    damping: float = DEFAULT_DAMPING,
    gamma: Optional[float] = DEFAULT_GAMMA,
    tol: float = 1e-12,
) -> DetectionResult:
    """One-call convenience wrapper around :class:`MassDetector`.

    Defaults follow the paper's experimental choices: ``τ = 0.98``
    (near-perfect precision), scaled ``ρ = 10``, ``c = 0.85``,
    ``γ = 0.85``.
    """
    detector = MassDetector(tau, rho)
    return detector.detect_on_graph(
        graph, good_core, damping=damping, gamma=gamma, tol=tol
    )
