"""Performance engine: operator caching, batched solves, parallel MC.

The hot path of every experiment in this repository is repeated
PageRank solves against one graph's transition operator.  This package
makes that path fast without changing any numerical semantics:

* :mod:`repro.perf.cache` — build ``Tᵀ`` once per graph (gathered
  shard by shard for a shard store), keep it in a bounded LRU keyed by
  a structural fingerprint;
* :mod:`repro.perf.engine` — :class:`PagerankEngine`, whose
  ``solve_many`` solves stacked jump vectors with one dangling-restricted
  block BiCGSTAB (``p`` and ``p′`` in a single pass);
* :mod:`repro.perf.parallel` — process-parallel Monte-Carlo sampling
  with deterministic, scheduling-independent results (a fixed chunk
  plan mapped over a process pool).

``get_engine()`` returns the process-wide shared engine that the core
APIs (:func:`repro.core.pagerank.pagerank`,
:func:`repro.core.mass.estimate_spam_mass`, the experiment runners)
route through by default.
"""

from .cache import (
    DEFAULT_CACHE_SIZE,
    OperatorBundle,
    OperatorCache,
    graph_fingerprint,
)
from .engine import (
    BatchResult,
    PagerankEngine,
    get_engine,
    set_engine,
)
from .incremental import (
    IncrementalResult,
    PushStats,
    push_update,
    seed_residual,
)
from .parallel import (
    DEFAULT_CHUNKS,
    pagerank_montecarlo_parallel,
    plan_chunks,
)
from .sharded import sharded_operator_for

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "DEFAULT_CHUNKS",
    "sharded_operator_for",
    "BatchResult",
    "IncrementalResult",
    "OperatorBundle",
    "OperatorCache",
    "PagerankEngine",
    "PushStats",
    "push_update",
    "seed_residual",
    "get_engine",
    "graph_fingerprint",
    "pagerank_montecarlo_parallel",
    "plan_chunks",
    "set_engine",
]
