"""The operator of a shard store: the in-memory bundle, gathered.

A :class:`~repro.graph.sharded.ShardedWebGraph` solves against the same
:class:`~repro.perf.cache.OperatorBundle` an in-memory graph does,
filled shard by shard by :meth:`~repro.perf.cache.OperatorBundle.gather`
and cached in the engine's one :class:`~repro.perf.cache.OperatorCache`
under the structural fingerprint.  A store and the in-memory graph of
the same edges therefore share one cache entry, and every solver runs
on both backends with the same code.

**The parity argument** (what the differential harness enforces
bitwise): the shard files store in-edges sorted by ``(destination,
source)``, exactly the ascending-column order of the canonical
in-memory ``Tᵀ``, and the column remap into ``S`` positions is
monotone, so the gathered ``(Tᵀ)_SS``/``(Tᵀ)_DS`` are the arrays
:meth:`~repro.perf.cache.OperatorBundle.build` makes from the same
edges, dtypes included.  Every solve on a store is then bitwise the
in-memory solve, whichever solver runs it.

The store bounds the build's memory: shards are read through its LRU,
one at a time.  The solve holds the gathered operator in memory, as the
in-memory path does.
"""

from __future__ import annotations

from ..graph.sharded import ShardedWebGraph
from .cache import OperatorBundle, OperatorCache

__all__ = ["sharded_operator_for"]


def sharded_operator_for(
    cache: OperatorCache, graph: ShardedWebGraph
) -> OperatorBundle:
    """The store's operator bundle: ``cache``'s entry for its structural
    fingerprint, gathered from the shards on a miss."""
    return cache.bundle_for(graph)
