"""Deterministic parallel Monte-Carlo PageRank.

Random-walk simulation is embarrassingly parallel — walks never
interact — but naive parallelization trades away reproducibility: the
estimate would depend on how walks were sharded and which worker drew
which random numbers.  This module keeps the estimator exactly
reproducible by fixing both degrees of freedom *before* any process
starts:

* the walk budget is split into a **fixed chunk plan** that depends only
  on ``num_walks`` (never on the worker count), and
* each chunk gets its own :class:`numpy.random.SeedSequence` child
  spawned from the caller's seed, so chunk ``i`` simulates the same
  walks no matter which process runs it or in what order chunks finish.

Chunk estimates combine linearly: each chunk of ``Rᵢ`` walks returns
``scoresᵢ = (1−c)·visitsᵢ/Rᵢ``, and the pooled estimator over
``R = ΣRᵢ`` walks is ``Σ scoresᵢ·Rᵢ/R`` (accumulated in chunk order, so
even float rounding is fixed).  Consequently

``pagerank_montecarlo_parallel(graph, v, num_walks=N, seed=s)``

returns **bitwise-identical** scores for ``workers=1``, ``workers=8``,
or the in-process fallback — the worker count only changes wall time.

With ``workers > 1`` the plan is a plain ``ProcessPoolExecutor.map``,
whose results come back in plan order.  When no pool can be built (a
sandbox without process support) the plan runs in-process with a
:class:`RuntimeWarning`.  A worker that dies mid-plan is not salvaged:
the pool raises :class:`~concurrent.futures.process.BrokenProcessPool`.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from ..core.montecarlo import MonteCarloResult, pagerank_montecarlo
from ..core.pagerank import DEFAULT_DAMPING
from ..graph.webgraph import WebGraph
from ..obs import get_telemetry

__all__ = ["plan_chunks", "pagerank_montecarlo_parallel"]

#: Number of independent walk chunks the budget is split into.  Fixed —
#: deliberately NOT derived from the worker count — so the estimate is a
#: pure function of ``(graph, v, damping, num_walks, seed)``.  Eight
#: chunks keep any sensible local worker count busy while adding
#: negligible per-chunk overhead.
DEFAULT_CHUNKS = 8


def plan_chunks(num_walks: int, chunks: int = DEFAULT_CHUNKS) -> List[int]:
    """Split a walk budget into a deterministic chunk plan.

    Near-equal integer shares; the first ``num_walks % chunks`` chunks
    take one extra walk.  Chunks never exceed the budget (small budgets
    produce fewer, single-walk chunks).
    """
    if num_walks < 1:
        raise ValueError("num_walks must be positive")
    if chunks < 1:
        raise ValueError("chunks must be positive")
    chunks = min(chunks, num_walks)
    base, extra = divmod(num_walks, chunks)
    return [base + (1 if i < extra else 0) for i in range(chunks)]


def _simulate_chunk(
    graph: WebGraph,
    v: Optional[np.ndarray],
    damping: float,
    max_walk_length: int,
    chunk_walks: int,
    seed_seq: np.random.SeedSequence,
) -> Tuple[np.ndarray, int, int]:
    """One chunk's walks (module-level so process pools can pickle it)."""
    result = pagerank_montecarlo(
        graph,
        v,
        damping=damping,
        num_walks=chunk_walks,
        rng=np.random.default_rng(seed_seq),
        max_walk_length=max_walk_length,
    )
    return result.scores, result.num_walks, result.total_steps


def pagerank_montecarlo_parallel(
    graph: WebGraph,
    v: Optional[np.ndarray] = None,
    *,
    damping: float = DEFAULT_DAMPING,
    num_walks: int = 100_000,
    workers: Optional[int] = None,
    seed: int = 0,
    chunks: int = DEFAULT_CHUNKS,
    max_walk_length: int = 1_000,
) -> MonteCarloResult:
    """Monte-Carlo PageRank over a process pool, reproducibly.

    Parameters
    ----------
    workers:
        Process count.  ``None``, ``0`` or ``1`` runs the chunk plan
        in-process (no pool); higher values map chunks over a
        :class:`~concurrent.futures.ProcessPoolExecutor`.  The returned
        scores are identical either way.
    seed:
        Root of the per-chunk RNG streams
        (``SeedSequence(seed).spawn(...)``).
    chunks:
        Chunk-plan width; leave at the default unless you need more
        than :data:`DEFAULT_CHUNKS`-way parallelism.  Changing it
        changes the (equally valid) estimate.

    See :func:`repro.core.montecarlo.pagerank_montecarlo` for the
    estimator itself and the remaining parameters.
    """
    plan = plan_chunks(num_walks, chunks)
    streams = np.random.SeedSequence(seed).spawn(len(plan))
    simulate = partial(_simulate_chunk, graph, v, damping, max_walk_length)
    results = None
    if workers is not None and workers > 1:
        # the errors of a sandbox without process support: no
        # semaphores (NotImplementedError), no /dev/shm (OSError), no
        # _multiprocessing (ImportError)
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, NotImplementedError, ImportError) as exc:
            warnings.warn(
                f"Monte Carlo: no process pool ({exc!r}); running the "
                f"{len(plan)}-chunk plan sequentially in-process; results "
                "are unaffected, only wall time.",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            with pool:
                results = list(pool.map(simulate, plan, streams))
    if results is None:
        results = list(map(simulate, plan, streams))

    # pooled estimator: Σ scoresᵢ·Rᵢ/R, accumulated in chunk order so
    # float rounding is scheduling-independent
    scores = np.zeros(graph.num_nodes, dtype=np.float64)
    total_steps = 0
    for chunk_scores, chunk_walks, chunk_steps in results:
        scores += chunk_scores * (chunk_walks / num_walks)
        total_steps += chunk_steps
    tele = get_telemetry()
    if tele.enabled:
        tele.inc("mc.walks", num_walks)
        tele.event(
            "mc.run",
            walks=num_walks,
            chunks=len(plan),
            steps=total_steps,
            workers=workers or 0,
        )
    return MonteCarloResult(scores, num_walks, total_steps)
