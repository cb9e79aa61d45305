"""One warm re-estimate, one cold fallback.

Both consumers of the incremental engine — the serving daemon's ingest
worker and the ``repro-spam update`` command — re-estimate mass after
a delta the same way.  The estimate is two linear PageRank solves
(Section 2.2, Algorithm 1), a deterministic function of the graph, the
delta and the previous scores, so a warm push update that raised once
raises again on the same inputs: it runs once, and on failure the
mutated graph is solved cold once.  The cold solve does not depend on
the previous scores, which is what makes it a fallback at all.

Damping and γ are not inputs: they are read from the solution snapshot
the chain starts from (:func:`snapshot_estimates`), so a re-estimate
can never mix parameters with the scores it warm-starts from.  The
snapshot is written by :func:`save_estimates`, next to its reader: the
column order (``p``, ``p′``) and the meta keys live in this module.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from ..core import estimate_spam_mass
from ..core.mass import DEFAULT_GAMMA, MassEstimates
from ..errors import ReproError
from ..obs import get_telemetry
from ..runtime.checkpoint import save_solution

__all__ = ["reestimate", "save_estimates", "snapshot_estimates"]


def save_estimates(
    directory: Union[str, Path],
    estimates: MassEstimates,
    *,
    fingerprint: str,
    wal_seq: Optional[int] = None,
) -> Path:
    """Write ``estimates`` as the solution snapshot
    :func:`snapshot_estimates` reads: ``p`` and ``p′`` as two columns,
    damping and γ in the meta, and ``wal_seq`` when a daemon apply
    wrote it.  ``fingerprint`` is the scored graph's structural
    fingerprint.  Returns the snapshot's path."""
    extra = {
        "damping": estimates.damping,
        "gamma": estimates.gamma,
        "labels": ["pagerank", "core"],
    }
    if wal_seq is not None:
        extra["wal_seq"] = wal_seq
    return save_solution(
        directory,
        np.stack([estimates.pagerank, estimates.core_pagerank], axis=1),
        fingerprint=fingerprint,
        extra=extra,
    )


def snapshot_estimates(snapshot) -> MassEstimates:
    """The :class:`MassEstimates` a solution snapshot stores, with the
    damping and γ recorded in its meta (0.85 and
    :data:`~repro.core.mass.DEFAULT_GAMMA` for a snapshot that records
    none; a stored γ of ``None`` is the unscaled estimator)."""
    return MassEstimates(
        snapshot.scores[:, 0].copy(),
        snapshot.scores[:, 1].copy(),
        float(snapshot.meta.get("damping", 0.85)),
        snapshot.meta.get("gamma", DEFAULT_GAMMA),
    )


def reestimate(
    application, core, previous: MassEstimates, *, engine, jumps=None
) -> Tuple[MassEstimates, bool]:
    """``(estimates, degraded)`` for ``application.after``.

    Runs the warm ``estimate_spam_mass(application, …, previous=…)``
    once, with ``previous``'s damping and γ.  When it raises
    :class:`~repro.errors.ReproError` or ``FloatingPointError``, the
    cold solve of ``application.after`` runs once and ``degraded`` is
    true.  An error from the cold solve propagates unchanged.
    ``jumps`` is the caller's
    :func:`~repro.core.mass.mass_jump_block` for ``core`` and that γ,
    passed to both solves.
    """
    params = dict(
        damping=previous.damping, gamma=previous.gamma, jumps=jumps
    )
    try:
        return (
            estimate_spam_mass(
                application, core, previous=previous, engine=engine,
                **params,
            ),
            False,
        )
    except (ReproError, FloatingPointError) as exc:
        error = type(exc).__name__
    tele = get_telemetry()
    if tele.enabled:
        tele.inc("serve.ingest.degraded")
        tele.event("serve.ingest_degraded", error=error)
    return (
        estimate_spam_mass(application.after, core, engine=engine, **params),
        True,
    )
