"""Operator caching: build each graph's transition operator once.

Every PageRank-family computation in this codebase reduces to solves
against the same sparse operator, the transposed substochastic
transition matrix ``Tᵀ`` of Section 2.2.  Before the perf engine
existed, each call to :func:`repro.core.pagerank.pagerank` rebuilt and
re-transposed that matrix — the single dominant setup cost when an
experiment performs dozens of solves on one graph (the Figure 5 core
sweep, the γ sweep, the threshold ablations).

:class:`OperatorCache` is a bounded LRU keyed by a structural *graph
fingerprint*.  A cache entry is an :class:`OperatorBundle` that carries
``Tᵀ`` plus the derived sub-operators of the dangling restriction used
by the batched kernel (built lazily, cached alongside):

* ``S`` — the non-dangling nodes.  Because columns of ``Tᵀ`` indexed by
  dangling nodes are identically zero, the Jacobi iterate restricted to
  ``S`` evolves autonomously: ``p_S = c (Tᵀ)_{SS} p_S + (1−c) v_S``.
* ``(Tᵀ)_{SS}`` — the restricted operator the block iteration runs on.
* ``(Tᵀ)_{DS}`` — the dangling rows, applied once at the end to expand
  the converged restricted iterate back to the full vector (and during
  residual checks, to account for the dangling component of the true
  full-vector residual).

The kernel takes both as :class:`RowBlock` lists
(:meth:`OperatorBundle.row_blocks`): contiguous row ranges of about
equal entries whose ``indptr`` is a view of the matrix's own and whose
``indices``/``data`` *are* the matrix's arrays, so a split copies no
entry.  Building scipy matrices from slices instead would copy:
``csr_matrix((data, indices, indptr))`` copies any view smaller than
half of its base.

On paper-shaped graphs (66.4% of hosts dangling, Section 4.1) the
restriction shrinks the dense vector work by ~2/3 and the matvec by the
fraction of edges that point at dangling hosts — this is where most of
the engine's measured speedup comes from.

Fingerprint semantics
---------------------
The key is *structural*: node count, edge count and a commutative sum
of per-edge splitmix64 hashes, computed once per graph and cached on
the (immutable) :class:`~repro.graph.webgraph.WebGraph` instance — see
:meth:`WebGraph.structural_fingerprint`.  Two graph objects with
identical link structure share an entry, regardless of object identity
or host names (names never enter the operator).  Commutativity is what
makes the cache *delta-aware*: when a graph is mutated through a
:class:`~repro.graph.delta.GraphDelta`, the child fingerprint is
derived from the parent's in O(|delta|) instead of rehashing the full
CSR, and :meth:`OperatorCache.derive_for` splices the child operator
from the parent by rewriting only the touched columns of ``Tᵀ`` (the
out-rows of touched sources) rather than re-transposing the graph.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy import sparse

from ..graph.ops import transition_matrix
from ..graph.webgraph import WebGraph
from ..obs import get_telemetry

__all__ = [
    "graph_fingerprint",
    "OperatorBundle",
    "OperatorCache",
    "RowBlock",
    "row_blocks",
]

#: Default number of graphs whose operators are kept alive.  Each entry
#: holds O(edges) memory (the CSR arrays plus the two sub-operators), so
#: the default stays small; experiment suites touch a handful of graphs
#: (world, its transpose for TrustRank seeding, the paper examples).
DEFAULT_CACHE_SIZE = 8

#: Default bound of the engine's *shard* operator cache.  Its entries
#: are per-shard operator blocks (``fp#ss:k`` / ``fp#ds:k``) rather
#: than whole graphs, so a 32-shard parity sweep alone needs ~65 keys;
#: the bound is sized so such sweeps never thrash.
DEFAULT_SHARD_CACHE_SIZE = 256


def graph_fingerprint(graph: WebGraph) -> str:
    """Structural fingerprint of a graph's link structure.

    Delegates to :meth:`WebGraph.structural_fingerprint`, which caches
    the digest on the instance — graphs are immutable, so repeated
    ``bundle_for`` calls on a large graph hash its CSR arrays exactly
    once.  Host names are deliberately excluded — they do not affect
    the operator.
    """
    return graph.structural_fingerprint()


class RowBlock(NamedTuple):
    """Rows ``lo:hi`` of a CSR operator, as the sparse kernels take them.

    Row ``lo + i`` holds entries ``indptr[i]:indptr[i + 1]`` of
    ``indices`` and ``data``.  ``indptr`` need not start at 0, so a
    block can point into a whole matrix's arrays without copying them.
    """

    lo: int
    hi: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def row_blocks(matrix: sparse.csr_matrix, parts: int) -> List[RowBlock]:
    """Split ``matrix`` into at most ``parts`` contiguous, non-empty row
    blocks of about equal entries, copying nothing: each block's
    ``indptr`` is a view of ``matrix.indptr`` and its ``indices`` and
    ``data`` are ``matrix``'s own arrays."""
    indptr = matrix.indptr
    cuts = np.searchsorted(indptr, np.arange(1, parts) * (matrix.nnz / parts))
    bounds = [0, *cuts.tolist(), matrix.shape[0]]
    return [
        RowBlock(lo, hi, indptr[lo:hi + 1], matrix.indices, matrix.data)
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]


class OperatorBundle:
    """The cached per-graph operators.

    Attributes
    ----------
    transition_t:
        ``Tᵀ`` in CSR form — the operator every solver consumes.
    dangling_mask:
        Boolean mask of dangling (zero out-degree) nodes.
    non_dangling, dangling:
        Index arrays ``S`` and ``D`` (``int64``).
    """

    __slots__ = (
        "fingerprint",
        "num_nodes",
        "transition_t",
        "dangling_mask",
        "non_dangling",
        "dangling",
        "_tt_ss",
        "_tt_ds",
        "_lock",
    )

    def __init__(
        self,
        graph: WebGraph,
        fingerprint: str,
        transition_t: Optional[sparse.csr_matrix] = None,
    ) -> None:
        self.fingerprint = fingerprint
        self.num_nodes = graph.num_nodes
        # a pre-spliced operator (delta derivation) skips the transpose
        if transition_t is None:
            transition_t = transition_matrix(graph).T.tocsr()
        self.transition_t = transition_t
        self.dangling_mask = graph.dangling_mask()
        self.non_dangling = np.flatnonzero(~self.dangling_mask)
        self.dangling = np.flatnonzero(self.dangling_mask)
        self._tt_ss: Optional[sparse.csr_matrix] = None
        self._tt_ds: Optional[sparse.csr_matrix] = None
        self._lock = threading.Lock()

    # -- restricted sub-operators (built on first batched solve) -------

    def _build_restriction(self) -> None:
        """Split ``Tᵀ`` into ``(Tᵀ)_SS`` and ``(Tᵀ)_DS`` in one pass.

        Every column of ``Tᵀ`` at a dangling source is empty, so keeping
        only the ``S`` columns drops no entry: it renumbers them by the
        monotone map ``cumsum(~dangling) − 1``, which keeps each row's
        columns ascending.  The rows then split by whether their node
        is dangling — the arrays ``tt[s][:, s]`` / ``tt[d][:, s]`` give.
        """
        with self._lock:
            if self._tt_ss is not None:
                return
            tt = self.transition_t
            mask = self.dangling_mask
            s_pos = np.cumsum(~mask) - 1
            columns = s_pos[tt.indices].astype(tt.indices.dtype, copy=False)
            row_nnz = np.diff(tt.indptr)
            entry_in_d = np.repeat(mask, row_nnz)
            blocks = []
            for rows, entries in ((~mask, ~entry_in_d), (mask, entry_in_d)):
                indptr = np.zeros(
                    int(np.count_nonzero(rows)) + 1, dtype=tt.indptr.dtype
                )
                np.cumsum(row_nnz[rows], out=indptr[1:])
                blocks.append(
                    sparse.csr_matrix(
                        (tt.data[entries], columns[entries], indptr),
                        shape=(len(indptr) - 1, len(self.non_dangling)),
                    )
                )
            self._tt_ss, self._tt_ds = blocks

    @property
    def tt_ss(self) -> sparse.csr_matrix:
        """``(Tᵀ)_{SS}``: the autonomous non-dangling subsystem."""
        if self._tt_ss is None:
            self._build_restriction()
        return self._tt_ss

    @property
    def tt_ds(self) -> sparse.csr_matrix:
        """``(Tᵀ)_{DS}``: dangling rows, for residuals and expansion."""
        if self._tt_ds is None:
            self._build_restriction()
        return self._tt_ds

    # -- the block kernel's operator interface -----------------------

    @property
    def nnz(self) -> int:
        """Entries of ``(Tᵀ)_SS`` and ``(Tᵀ)_DS`` together: every entry
        of ``Tᵀ``, since its dangling columns are empty."""
        return self.transition_t.nnz

    def row_blocks(
        self, parts: int
    ) -> Tuple[List[RowBlock], List[RowBlock]]:
        """``(Tᵀ)_SS`` and ``(Tᵀ)_DS``, each as up to ``parts`` row
        blocks of about equal entries (see :func:`row_blocks`)."""
        return row_blocks(self.tt_ss, parts), row_blocks(self.tt_ds, parts)

    def nbytes(self) -> int:
        """Approximate resident size of the bundle (diagnostics)."""
        total = 0
        for mat in (
            self.transition_t,
            self._tt_ss,
            self._tt_ds,
        ):
            if mat is not None:
                total += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        total += self.dangling_mask.nbytes
        total += self.non_dangling.nbytes + self.dangling.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OperatorBundle(n={self.num_nodes}, "
            f"nnz={self.transition_t.nnz}, "
            f"dangling={len(self.dangling)})"
        )


def _splice_transition_t(
    parent_tt: sparse.csr_matrix, application
) -> sparse.csr_matrix:
    """Derive the child ``Tᵀ`` by rewriting only the touched columns.

    Column ``s`` of ``Tᵀ`` is the out-row of source ``s`` with weight
    ``1/outdeg(s)``; an edge delta changes exactly the columns of its
    touched sources.  Entries of untouched sources are carried over
    verbatim (data included), so the splice is O(nnz) copying with no
    re-transpose (the argsort that dominates a cold operator build):
    the touched columns' entries are deleted, and each new entry is
    placed by a search over only the rows it lands in.
    """
    after = application.after
    touched = application.touched_sources
    n = after.num_nodes
    # membership via a lookup table: O(nnz) gather, no sort (np.isin
    # pays an (nnz + m)·log m sort that dominates the whole splice)
    touched_mask = np.zeros(n, dtype=bool)
    touched_mask[touched] = True
    drop = np.flatnonzero(touched_mask[parent_tt.indices])
    indices = np.delete(parent_tt.indices, drop)
    data = np.delete(parent_tt.data, drop)
    row_nnz = np.diff(parent_tt.indptr) - np.bincount(
        np.searchsorted(parent_tt.indptr, drop, side="right") - 1,
        minlength=n,
    )
    # fresh entries: the touched sources' out-rows on the mutated graph
    deg = after.out_degree()[touched]
    live = deg > 0
    srcs = touched[live]
    counts = deg[live]
    if len(srcs):
        starts = after.indptr[srcs]
        gather = np.repeat(starts, counts) + (
            np.arange(int(counts.sum())) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
        )
        targets = after.indices[gather]
        cols = np.repeat(srcs, counts)
        vals = np.repeat(1.0 / counts, counts)
        order = np.argsort(targets * n + cols)
        targets, cols, vals = targets[order], cols[order], vals[order]
        # key the kept entries of the landing rows by (row rank, column):
        # one sorted array, searched for every new entry at once
        rows, per_row = np.unique(targets, return_counts=True)
        rank = np.arange(len(rows))
        length = row_nnz[rows]
        base = (np.cumsum(row_nnz) - row_nnz)[rows] - (
            np.cumsum(length) - length
        )
        landing = np.repeat(base, length) + np.arange(int(length.sum()))
        keys = np.repeat(rank, length) * n + indices[landing]
        pos = np.repeat(base, per_row) + np.searchsorted(
            keys, np.repeat(rank, per_row) * n + cols
        )
        indices = np.insert(indices, pos, cols.astype(indices.dtype))
        data = np.insert(data, pos, vals)
        row_nnz += np.bincount(targets, minlength=n)
    indptr = np.zeros(n + 1, dtype=parent_tt.indptr.dtype)
    np.cumsum(row_nnz, out=indptr[1:])
    return sparse.csr_matrix((data, indices, indptr), shape=(n, n))


class OperatorCache:
    """Bounded LRU of :class:`OperatorBundle` keyed by graph fingerprint.

    Thread-safe; hits move the entry to the most-recently-used end, and
    inserting past ``maxsize`` evicts the least-recently-used bundle.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, OperatorBundle]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.derives = 0

    def bundle_for(self, graph: WebGraph) -> OperatorBundle:
        """Return the graph's bundle, building it on first sight."""
        tele = get_telemetry()
        key = graph_fingerprint(graph)
        with self._lock:
            bundle = self._entries.get(key)
            if bundle is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                tele.inc("opcache.hits")
                return bundle
            self.misses += 1
        tele.inc("opcache.misses")
        # build outside the lock: O(edges) work
        if tele.enabled:
            with tele.span(
                "operator-build", nodes=graph.num_nodes, edges=graph.num_edges
            ):
                bundle = OperatorBundle(graph, key)
        else:
            bundle = OperatorBundle(graph, key)
        with self._lock:
            # a racing builder may have inserted meanwhile; keep the
            # first one so callers share a single operator
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = bundle
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return bundle

    def entry_for(self, key: str, factory):
        """Generic keyed entry: return the cached value for ``key``,
        building it via ``factory()`` (outside the lock) on a miss.

        The sharded solver path stores per-shard operator blocks and
        whole shard operators through this, under composite keys
        (``<fingerprint>#ss:<k>`` etc.), sharing the same LRU, lock and
        hit/miss/eviction counters as the whole-graph bundles.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
        value = factory()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def derive_for(self, application):
        """Return the bundle for ``application.after``, derived cheaply.

        When the parent graph's bundle is cached, the child operator is
        spliced from it (touched columns only) and the child fingerprint
        comes from the O(|delta|) derivation stamped by
        :meth:`~repro.graph.delta.GraphDelta.apply` — the full CSR is
        never rehashed or re-transposed.  Falls back to a cold
        :meth:`bundle_for` build when the parent is not resident.
        """
        tele = get_telemetry()
        child_key = graph_fingerprint(application.after)
        with self._lock:
            bundle = self._entries.get(child_key)
            if bundle is not None:
                self.hits += 1
                self._entries.move_to_end(child_key)
                tele.inc("opcache.hits")
                return bundle
            parent = self._entries.get(
                graph_fingerprint(application.before)
            )
        if parent is None:
            return self.bundle_for(application.after)
        self.derives += 1
        tele.inc("opcache.derives")
        if tele.enabled:
            with tele.span(
                "operator-derive",
                touched=len(application.touched_sources),
                edges=application.after.num_edges,
            ):
                tt = _splice_transition_t(parent.transition_t, application)
        else:
            tt = _splice_transition_t(parent.transition_t, application)
        bundle = OperatorBundle(application.after, child_key, transition_t=tt)
        with self._lock:
            existing = self._entries.get(child_key)
            if existing is not None:
                return existing
            self._entries[child_key] = bundle
            self._entries.move_to_end(child_key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return bundle

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, graph: object) -> bool:
        if not isinstance(graph, WebGraph):
            return False
        with self._lock:
            return graph_fingerprint(graph) in self._entries

    def clear(self) -> None:
        """Drop every cached operator (does not reset the counters)."""
        with self._lock:
            self._entries.clear()

    def cache_info(self) -> Dict[str, int]:
        """``{"hits", "misses", "evictions", "derives", "size", "maxsize"}``."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "derives": self.derives,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.cache_info()
        return (
            f"OperatorCache(size={info['size']}/{info['maxsize']}, "
            f"hits={info['hits']}, misses={info['misses']})"
        )
