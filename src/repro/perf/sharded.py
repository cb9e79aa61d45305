"""The out-of-core operator: per-shard row blocks of ``(Tᵀ)_SS``.

The batched kernel (:func:`repro.perf.engine._block_jacobi`) iterates
``z ← c·(Tᵀ)_SS z + (1−c) v_S`` against any operator that hands it
``(Tᵀ)_SS`` and ``(Tᵀ)_DS`` as :class:`~repro.perf.cache.RowBlock`
row ranges (``row_blocks``).  In memory those are slices of the two
whole-graph matrices.  Against a
:class:`~repro.graph.sharded.ShardedWebGraph`, ``(Tᵀ)_SS`` never
exists as one matrix: :class:`ShardedOperator` holds, for each shard
``k``, the row block of ``(Tᵀ)_SS`` indexed by its non-dangling nodes,
built straight from the shard's transpose CSR, and gives the kernel
one block per shard.  The kernel writes each block's product into its
rows of one output array, on a thread pool when the operator is large
enough.  The same loop then runs on both backends.

**The parity argument** (what the differential harness enforces
bitwise): CSR × dense-block multiplication computes every output row
independently — ``y[i, :]`` starts at zero and accumulates
``data[jj] · z[col[jj], :]`` in storage order.  Row-partitioning the
matrix therefore changes *nothing* about the floating-point operations
of any row, as long as each block keeps the same within-row storage
order as the assembled operator; nor does the thread a block runs on.
The shard files store in-edges sorted by ``(destination, source)`` —
exactly the ascending-column order of the canonical in-memory ``Tᵀ`` —
and the column remap into ``S`` positions is monotone, so every block
is the *identical* sub-array of the in-memory operator and every
iterate, residual and score matches bit for bit.  Two details matter
and are preserved deliberately:

* the iterate stays *compact* (restricted to ``S``) — padding with
  zero rows would change numpy's pairwise-summation grouping in the
  residual reduction;
* per-shard dangling products are written into one contiguous
  ``(|D|, k)`` array *before* the ``np.abs(...).sum(axis=0)``
  reduction, which runs on the calling thread, again so the
  pairwise-summation tree is the in-memory one.

Blocks are built on the calling thread, before any product runs, and
cached in an :class:`~repro.perf.cache.OperatorCache` under composite
keys (``<fingerprint>#ss:<k>``, ``<fingerprint>#ds:<k>``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from ..graph.sharded import ShardedWebGraph
from .cache import OperatorCache, RowBlock, _csr, _index_dtype

__all__ = [
    "ShardedOperator",
    "sharded_operator_for",
]


class ShardedOperator:
    """Per-shard row blocks of the dangling-restricted operator.

    Holds the ``O(n)`` global vectors (out-degrees, dangling mask, the
    ``S``-position map) and builds the per-shard sparse blocks lazily,
    caching them in the supplied :class:`OperatorCache` keyed by the
    graph fingerprint and shard index — so repeated solves on the same
    store rebuild nothing, and an LRU bound caps resident blocks.
    """

    __slots__ = (
        "graph",
        "fingerprint",
        "key_base",
        "cache",
        "dangling_mask",
        "non_dangling",
        "dangling",
        "_s_pos",
        "_inv_outdeg",
        "_s_bounds",
        "_d_bounds",
        "_local",
    )

    def __init__(
        self,
        graph: ShardedWebGraph,
        cache: Optional[OperatorCache] = None,
    ) -> None:
        self.graph = graph
        self.fingerprint = graph.structural_fingerprint()
        # the fingerprint names the edge set only; the partition key
        # keeps 2-way and 32-way stores of the same graph apart
        self.key_base = f"{self.fingerprint}@{graph.partition_key}"
        self.cache = cache
        out_deg = graph.out_degree()
        self.dangling_mask = out_deg == 0
        self.non_dangling = np.flatnonzero(~self.dangling_mask)
        self.dangling = np.flatnonzero(self.dangling_mask)
        # global node id -> its position in S (valid on S members only),
        # in the blocks' index dtype; monotone, which is what keeps block
        # columns in the assembled operator's ascending order
        self._s_pos = (np.cumsum(~self.dangling_mask) - 1).astype(
            _index_dtype(graph.num_nodes, graph.num_edges)
        )
        inv = np.zeros(graph.num_nodes, dtype=np.float64)
        nz = out_deg > 0
        inv[nz] = 1.0 / out_deg[nz]  # identical fp op to transition_matrix
        self._inv_outdeg = inv
        self._s_bounds = np.searchsorted(self.non_dangling, graph.boundaries)
        self._d_bounds = np.searchsorted(self.dangling, graph.boundaries)
        self._local = {}  # fallback block store when no cache is given

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.graph.num_shards

    def s_range(self, k: int):
        """Row range of shard ``k`` inside the ``S``-restricted system."""
        return int(self._s_bounds[k]), int(self._s_bounds[k + 1])

    def d_range(self, k: int):
        """Row range of shard ``k`` inside the dangling block."""
        return int(self._d_bounds[k]), int(self._d_bounds[k + 1])

    # ------------------------------------------------------------------
    # blocks
    # ------------------------------------------------------------------

    def _entry(self, key: str, factory):
        if self.cache is not None:
            return self.cache.entry_for(key, factory)
        got = self._local.get(key)
        if got is None:
            got = self._local[key] = factory()
        return got

    def ss_block(self, k: int) -> sparse.csr_matrix:
        """Rows of ``(Tᵀ)_SS`` owned by shard ``k``'s non-dangling nodes."""
        return self._entry(
            f"{self.key_base}#ss:{k}",
            lambda: self._build_block(k, "ss"),
        )

    def ds_block(self, k: int) -> sparse.csr_matrix:
        """Rows of ``(Tᵀ)_DS`` owned by shard ``k``'s dangling nodes."""
        return self._entry(
            f"{self.key_base}#ds:{k}",
            lambda: self._build_block(k, "ds"),
        )

    def _build_block(self, k: int, kind: str) -> sparse.csr_matrix:
        """Shard ``k``'s rows of ``(Tᵀ)_SS`` (``kind`` ``"ss"``) or
        ``(Tᵀ)_DS``: its transpose CSR's rows of that kind, selected
        entry by entry with the row mask, columns gathered from the
        ``S``-position table in the blocks' own index dtype."""
        a, b = self.graph.shard_range(k)
        shard = self.graph.shard(k)
        counts = np.diff(np.asarray(shard.t_indptr))
        rows = self.dangling_mask[a:b]
        if kind == "ss":
            rows = ~rows
        srcs = np.asarray(shard.t_indices)[np.repeat(rows, counts)]
        # every in-edge source has out-degree >= 1, so srcs ⊆ S and the
        # monotone S-position remap preserves ascending column order
        block = _csr(
            self._inv_outdeg[srcs],
            self._s_pos[srcs],
            counts[rows],
            (int(np.count_nonzero(rows)), len(self.non_dangling)),
        )
        block.has_sorted_indices = True
        return block

    # ------------------------------------------------------------------
    # the block kernel's operator interface
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Entries of ``(Tᵀ)_SS`` and ``(Tᵀ)_DS`` together: one per
        edge, since every edge's source is non-dangling."""
        return self.graph.num_edges

    def row_blocks(
        self, parts: int
    ) -> Tuple[List[RowBlock], List[RowBlock]]:
        """``(Tᵀ)_SS`` and ``(Tᵀ)_DS`` as one row block per shard that
        owns such rows (the shards are the split, so ``parts`` is not
        used).  Builds every block here, on the calling thread, one
        shard at a time."""
        ss: List[RowBlock] = []
        ds: List[RowBlock] = []
        for k in range(self.num_shards):
            lo, hi = self.s_range(k)
            if hi > lo:
                m = self.ss_block(k)
                ss.append(RowBlock(lo, hi, m.indptr, m.indices, m.data))
            lo, hi = self.d_range(k)
            if hi > lo:
                m = self.ds_block(k)
                ds.append(RowBlock(lo, hi, m.indptr, m.indices, m.data))
        return ss, ds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedOperator(n={self.graph.num_nodes}, "
            f"shards={self.num_shards}, |S|={len(self.non_dangling)})"
        )


def sharded_operator_for(
    cache: OperatorCache, graph: ShardedWebGraph
) -> ShardedOperator:
    """The graph's shard operator, cached under fingerprint + partition."""
    return cache.entry_for(
        f"{graph.structural_fingerprint()}@{graph.partition_key}#shardop",
        lambda: ShardedOperator(graph, cache=cache),
    )
