"""Operator caching: build each graph's transition operator once.

Every PageRank-family computation in this codebase reduces to solves
against the same sparse operator, the transposed substochastic
transition matrix ``Tᵀ`` of Section 2.2.  Before the perf engine
existed, each call to :func:`repro.core.pagerank.pagerank` rebuilt and
re-transposed that matrix — the single dominant setup cost when an
experiment performs dozens of solves on one graph (the Figure 5 core
sweep, the γ sweep, the threshold ablations).

:class:`OperatorCache` is a bounded LRU keyed by a structural *graph
fingerprint*.  A cache entry is an :class:`OperatorBundle`, which holds
the operator once, as the two blocks of its dangling restriction:

* ``S`` — the non-dangling nodes, ``D`` the dangling ones.  Because
  columns of ``Tᵀ`` indexed by dangling nodes are identically zero,
  the Jacobi iterate restricted to ``S`` evolves autonomously:
  ``p_S = c (Tᵀ)_{SS} p_S + (1−c) v_S``.
* ``(Tᵀ)_{SS}`` — the restricted operator the block iteration runs on.
* ``(Tᵀ)_{DS}`` — the dangling rows, applied once at the end to expand
  the converged restricted iterate back to the full vector (and during
  residual checks, to account for the dangling component of the true
  full-vector residual).

Every entry of ``Tᵀ`` lies in one of the two blocks.  A cold build
(:meth:`OperatorBundle.build`) sorts one ``int64`` key per edge and
splits the sorted keys into the two CSR matrices; no ``Tᵀ`` and no
scipy transpose is made.  A
:class:`~repro.graph.sharded.ShardedWebGraph` store's bundle is
gathered shard by shard instead (:meth:`OperatorBundle.gather`), with
no sort, into the same arrays; both backends then solve against one
operator type.  ``Tᵀ`` itself is assembled from the blocks
only when asked for (:attr:`OperatorBundle.transition_t`): by
:meth:`~repro.perf.engine.PagerankEngine.operator` and the scalar
solvers of :meth:`~repro.perf.engine.PagerankEngine.solve`, never by
the batched kernel, the estimate path or the write path.

The kernel takes both blocks as :class:`RowBlock` lists
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
CSR, and :meth:`OperatorCache.derive_for` splices the child's
``(Tᵀ)_SS``/``(Tᵀ)_DS`` straight from the parent's
(:meth:`OperatorBundle.derive`): the touched sources' columns are
rewritten, and rows and columns are renumbered only when a touched
source enters or leaves ``S``.  A derive reads only the rows of ``Tᵀ``
the delta touches and then copies the two blocks once, renumbering
their columns on the way; at 1M hosts a 16-event window derives in
~40-60 ms, of which that copy is ~35.  The spliced arrays equal a cold
build's byte for byte.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy import sparse

from ..graph.backend import GraphBackend
from ..graph.sharded import ShardedWebGraph
from ..graph.webgraph import WebGraph, ranges, sorted_unique, splice
from ..obs import get_telemetry

__all__ = [
    "graph_fingerprint",
    "OperatorBundle",
    "OperatorCache",
    "RowBlock",
    "row_blocks",
]

#: Default number of graphs whose operators are kept alive.  Each entry
#: holds O(edges) memory (the two blocks, plus ``Tᵀ`` once a scalar
#: solver has asked for it), so the default stays small; experiment
#: suites touch a handful of graphs (world, its transpose for TrustRank
#: seeding, the paper examples).
DEFAULT_CACHE_SIZE = 8


def graph_fingerprint(graph: GraphBackend) -> str:
    """Structural fingerprint of a graph's link structure.

    Delegates to :meth:`WebGraph.structural_fingerprint`, which caches
    the digest on the instance — graphs are immutable, so repeated
    ``bundle_for`` calls on a large graph hash its CSR arrays exactly
    once; a shard store reads it from its manifest.  Host names are
    deliberately excluded — they do not affect the operator.
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


def _index_dtype(*extents: int) -> type:
    """The index dtype scipy picks for a CSR matrix whose shape and
    entry count are ``extents``: ``int32`` when all of them fit."""
    return np.int32 if max(extents) <= np.iinfo(np.int32).max else np.int64


def _csr(data, indices, row_nnz, shape) -> sparse.csr_matrix:
    """A CSR matrix from its entries and per-row counts, with the index
    dtype scipy would pick; arrays already in that dtype are not
    copied."""
    idx = _index_dtype(*shape, len(indices))
    indptr = np.zeros(shape[0] + 1, dtype=idx)
    np.cumsum(row_nnz, dtype=idx, out=indptr[1:])
    return sparse.csr_matrix(
        (data, indices.astype(idx, copy=False), indptr), shape=shape
    )


def _moved(
    nodes: np.ndarray, leaving: np.ndarray, joining: np.ndarray
) -> np.ndarray:
    """Sorted ``nodes`` without ``leaving`` and with ``joining``, both
    sorted, ``leaving`` among ``nodes`` and ``joining`` not."""
    (moved,) = splice(
        np.searchsorted(nodes, leaving),
        np.searchsorted(nodes, joining) - np.searchsorted(leaving, joining),
        (nodes, joining, None),
    )
    return moved


class OperatorBundle:
    """The cached per-graph operator: ``(Tᵀ)_SS`` and ``(Tᵀ)_DS``.

    Every entry of ``Tᵀ`` is in exactly one of the two blocks (its
    dangling columns are empty), so the bundle holds the operator once.
    Build one with :meth:`build` (cold, one sort of the edges),
    :meth:`gather` (a shard store's, shard by shard) or :meth:`derive`
    (spliced from the parent graph's bundle).

    Attributes
    ----------
    tt_ss, tt_ds:
        ``(Tᵀ)_SS`` (``|S| × |S|``) and ``(Tᵀ)_DS`` (``|D| × |S|``):
        rows in node order, columns numbered by ``S`` position,
        ascending within each row.
    dangling_mask:
        Boolean mask of dangling (zero out-degree) nodes.
    non_dangling, dangling:
        Index arrays ``S`` and ``D`` (``int64``).
    """

    __slots__ = (
        "fingerprint",
        "num_nodes",
        "dangling_mask",
        "non_dangling",
        "dangling",
        "tt_ss",
        "tt_ds",
        "_transition_t",
        "_lock",
    )

    def __init__(
        self,
        fingerprint: str,
        dangling_mask: np.ndarray,
        non_dangling: np.ndarray,
        dangling: np.ndarray,
        tt_ss: sparse.csr_matrix,
        tt_ds: sparse.csr_matrix,
    ) -> None:
        self.fingerprint = fingerprint
        self.num_nodes = len(dangling_mask)
        self.dangling_mask = dangling_mask
        self.non_dangling = non_dangling
        self.dangling = dangling
        self.tt_ss = tt_ss
        self.tt_ds = tt_ds
        self._transition_t: Optional[sparse.csr_matrix] = None
        self._lock = threading.Lock()

    @classmethod
    def build(cls, graph: WebGraph, fingerprint: str) -> "OperatorBundle":
        """Cold build: one sort of one ``int64`` key per edge.

        An edge ``x → y`` is the entry of ``Tᵀ`` at row ``y``, column
        ``x``.  Its key is the rank of ``y`` among the rows in
        ``[S; D]`` order times ``|S|``, plus the ``S`` position of
        ``x`` (every edge's source is in ``S``).  The keys are unique,
        so sorting them orders the entries block by block, row by row
        and by ascending column; the first ``nnz(S rows)`` of them are
        ``(Tᵀ)_SS`` and the rest ``(Tᵀ)_DS``.
        """
        out_deg = graph.out_degree()
        mask = out_deg == 0
        s = np.flatnonzero(~mask)
        d = np.flatnonzero(mask)
        width = len(s)
        in_deg = np.bincount(graph.indices, minlength=graph.num_nodes)
        rank = np.empty(graph.num_nodes, dtype=np.int64)
        rank[s] = np.arange(width)
        rank[d] = np.arange(width, graph.num_nodes)
        # edges are stored source by source, and only S has out-edges
        keys = rank[graph.indices]
        keys *= width
        keys += np.repeat(np.arange(width, dtype=np.int64), out_deg[s])
        keys.sort()
        inv = 1.0 / out_deg[s]  # the fp op transition_matrix does
        split = int(in_deg[s].sum())
        blocks = []
        for rows, lo, hi in ((s, 0, split), (d, split, len(keys))):
            idx = _index_dtype(len(rows), width, hi - lo)
            cols = np.empty(hi - lo, dtype=idx)
            if width:
                np.remainder(keys[lo:hi], width, out=cols, casting="unsafe")
            blocks.append(
                _csr(inv[cols], cols, in_deg[rows], (len(rows), width))
            )
        return cls(fingerprint, mask, s, d, *blocks)

    @classmethod
    def gather(
        cls, store: ShardedWebGraph, fingerprint: str
    ) -> "OperatorBundle":
        """A shard store's bundle, filled shard by shard, with no sort.

        Shard ``k``'s transpose CSR is rows ``boundaries[k]:
        boundaries[k + 1]`` of ``Tᵀ``, each row's sources ascending, so
        its ``S`` rows are the next rows of ``(Tᵀ)_SS`` and its ``D``
        rows the next of ``(Tᵀ)_DS``; renumbering the sources by ``S``
        position, a monotone map, keeps every row ascending.  The
        entries go straight into the bundle's arrays, which equal
        :meth:`build` on the same edges, dtypes included.  Only the
        build is bounded by the store: the bundle is resident, as an
        in-memory graph's is.
        """
        out_deg = store.out_degree()
        in_deg = store.in_degree()
        mask = out_deg == 0
        s = np.flatnonzero(~mask)
        d = np.flatnonzero(mask)
        width = len(s)
        s_pos = np.cumsum(~mask) - 1  # node -> its S position, on S
        columns = []
        for rows in (s, d):
            nnz = int(in_deg[rows].sum())
            columns.append(
                np.empty(nnz, dtype=_index_dtype(len(rows), width, nnz))
            )
        filled = [0, 0]
        for k in range(store.num_shards):
            a, b = store.shard_range(k)
            if b == a:
                continue
            # every edge's source has an out-edge, so all are in S
            sources = np.asarray(store.shard(k).t_indices)
            in_s = np.repeat(~mask[a:b], in_deg[a:b])
            for j, sel in enumerate((in_s, ~in_s)):
                cols = s_pos[sources[sel]]
                columns[j][filled[j]:filled[j] + len(cols)] = cols
                filled[j] += len(cols)
        inv = 1.0 / out_deg[s]  # the fp op transition_matrix does
        blocks = [
            _csr(inv[cols], cols, in_deg[rows], (len(rows), width))
            for rows, cols in zip((s, d), columns)
        ]
        return cls(fingerprint, mask, s, d, *blocks)

    def derive(self, application, fingerprint: str) -> "OperatorBundle":
        """Splice the bundle of ``application.after`` from this one, the
        bundle of ``application.before``.

        Only the touched sources' columns change: their entries are
        dropped and their new out-edges inserted, with every other
        entry (data included) carried over.  When a touched source
        enters or leaves ``S``, its row moves to the other block with
        the entries it keeps, and the columns are renumbered by the
        child's ``S`` positions, a monotone map on the sources that
        stay.  The arrays equal :meth:`build` on the child graph.

        A derive costs the delta plus one pass over the two blocks.
        It reads only the parent rows the delta touches: those holding
        a dropped entry (the parent graph's out-rows of the touched
        sources), which it finds by their column, those a new entry
        lands in, which one search places among the row's entries, and
        those switching blocks.  ``S``, ``D``, the mask, the column map
        and the per-row counts are edited at the moved positions, and
        :func:`splice` moves the kept entries once, through the column
        map.
        """
        before, after = application.before, application.after
        touched = application.touched_sources
        out_deg = after.out_degree()
        was_d = self.dangling_mask[touched]
        now_d = out_deg[touched] == 0
        to_s, to_d = touched[was_d & ~now_d], touched[~was_d & now_d]
        old_s, old_d = self.non_dangling, self.dangling
        mask, s, d, colmap = self.dangling_mask, old_s, old_d, None
        if len(to_s) or len(to_d):
            mask = mask.copy()
            mask[to_s] = False
            mask[to_d] = True
            s, d = _moved(old_s, to_d, to_s), _moved(old_d, to_s, to_d)
            # parent column -> child column, for the sources that stay:
            # one step down past each source that left S, one up past
            # each that joined it
            steps = np.zeros(len(old_s) + 1, dtype=self.tt_ss.indices.dtype)
            np.add.at(steps, np.searchsorted(old_s, to_d) + 1, -1)
            np.add.at(steps, np.searchsorted(old_s, to_s), 1)
            colmap = np.arange(len(old_s), dtype=steps.dtype)
            colmap += np.cumsum(steps[:-1], dtype=steps.dtype)
        width = len(s)

        # the touched sources' parent columns are dropped
        old_live = touched[~was_d]
        dropped = np.zeros(len(old_s), dtype=bool)
        dropped[np.searchsorted(old_s, old_live)] = True
        # foreign entries: the touched sources' new out-edges, then the
        # entries that rows switching blocks take along, each with its
        # child column and its place among the parent's columns
        live = touched[~now_d]
        counts = out_deg[live]
        new_rows = after.out_rows(live)
        dests = [new_rows]
        cols = [np.repeat(np.searchsorted(s, live), counts)]
        places = [np.repeat(np.searchsorted(old_s, live), counts)]
        vals = [np.repeat(1.0 / counts, counts)]
        # the parent rows read: those holding a dropped entry (the
        # sources' out-rows in the parent graph), those a new out-edge
        # lands in and those switching blocks
        nodes = sorted_unique(np.concatenate(
            [before.out_rows(old_live), new_rows, to_s, to_d]
        ))
        nodes_in_d = self.dangling_mask[nodes]
        # their entries keyed (rank among the rows read) * stride +
        # parent column: sorted, since each row is
        stride = len(old_s) + 1
        searched = []
        for matrix, old_rows, leaving, is_d in (
            (self.tt_ss, old_s, to_d, False),
            (self.tt_ds, old_d, to_s, True),
        ):
            rows = np.searchsorted(old_rows, nodes[nodes_in_d == is_d])
            starts = matrix.indptr[rows].astype(np.int64)
            lengths = matrix.indptr[rows + 1] - starts
            first = np.cumsum(lengths) - lengths
            entries = ranges(starts, lengths)
            parent_cols = matrix.indices[entries]
            gone = dropped[parent_cols]
            if len(leaving):
                at = np.searchsorted(rows, np.searchsorted(old_rows, leaving))
                span = ranges(first[at], lengths[at])
                carried = span[~gone[span]]
                dests.append(np.repeat(leaving, lengths[at])[~gone[span]])
                cols.append(colmap[parent_cols[carried]])
                places.append(parent_cols[carried])
                vals.append(matrix.data[entries[carried]])
                gone[span] = True
            rank = np.repeat(np.arange(len(rows)), lengths)
            keys = rank * stride + parent_cols
            searched.append((rows, keys, first, entries[gone], rank[gone]))
        dests = np.concatenate(dests)
        cols = np.concatenate(cols)
        places = np.concatenate(places)
        vals = np.concatenate(vals)
        order = np.argsort(dests * width + cols)
        dests, cols = dests[order], cols[order]
        places, vals = places[order], vals[order]
        in_d = mask[dests]

        blocks = []
        for (matrix, old_rows, rows, left, joined, is_d), (
            searched_rows, keys, first, gone, gone_rank
        ) in zip(
            (
                (self.tt_ss, old_s, s, to_d, to_s, False),
                (self.tt_ds, old_d, d, to_s, to_d, True),
            ),
            searched,
        ):
            indptr = matrix.indptr
            # the foreign entries, by row and ascending column, go before
            # the first entry of their parent row past their source's
            # parent column; a row that joined the block has none, so
            # theirs go where the next parent row starts
            sel = in_d == is_d
            f_dests = dests[sel]
            at = np.searchsorted(old_rows, f_dests)
            where = indptr[at].astype(np.int64)
            stay = self.dangling_mask[f_dests] == is_d
            rank = np.searchsorted(searched_rows, at[stay])
            where[stay] += np.searchsorted(
                keys, rank * stride + places[sel][stay]
            ) - first[rank]
            # ... counted among the kept entries
            pos = where - np.searchsorted(gone, where)
            # the per-row counts, edited at the rows read, then the
            # rows that left dropped and those that joined inserted
            row_nnz = np.diff(indptr)
            row_nnz[searched_rows] += (
                np.bincount(rank, minlength=len(searched_rows))
                - np.bincount(gone_rank, minlength=len(searched_rows))
            ).astype(row_nnz.dtype)
            (row_nnz,) = splice(
                np.searchsorted(old_rows, left),
                np.searchsorted(rows, joined) - np.arange(len(joined)),
                (row_nnz, np.bincount(
                    np.searchsorted(joined, f_dests[~stay]),
                    minlength=len(joined),
                ), None),
            )
            data, indices = splice(
                gone, pos, (matrix.data, vals[sel], None),
                (matrix.indices, cols[sel], colmap),
            )
            blocks.append(_csr(data, indices, row_nnz, (len(rows), width)))
        return OperatorBundle(fingerprint, mask, s, d, *blocks)

    @property
    def transition_t(self) -> sparse.csr_matrix:
        """``Tᵀ`` in CSR form, node ids as columns: what the scalar
        solvers of :mod:`repro.core.solvers` take.  Assembled from the
        two blocks on first use and kept; the batched kernel never
        asks for it."""
        with self._lock:
            if self._transition_t is None:
                self._transition_t = self._assemble()
            return self._transition_t

    def _assemble(self) -> sparse.csr_matrix:
        """Interleave the two blocks' rows in node order and renumber
        their columns back to node ids (a monotone map, so each row
        stays ascending): the arrays of
        ``transition_matrix(graph).T.tocsr()``, with no sort."""
        ss, ds = self.tt_ss, self.tt_ds
        row_nnz = np.empty(self.num_nodes, dtype=np.int64)
        row_nnz[self.non_dangling] = np.diff(ss.indptr)
        row_nnz[self.dangling] = np.diff(ds.indptr)
        # where each node's row starts in the stacked [SS; DS] entries
        starts = np.empty(self.num_nodes, dtype=np.int64)
        starts[self.non_dangling] = ss.indptr[:-1]
        starts[self.dangling] = ds.indptr[:-1] + ss.nnz
        gather = ranges(starts, row_nnz)
        shape = (self.num_nodes, self.num_nodes)
        indices = self.non_dangling.astype(_index_dtype(*shape, self.nnz))[
            np.concatenate([ss.indices, ds.indices])[gather]
        ]
        data = np.concatenate([ss.data, ds.data])[gather]
        return _csr(data, indices, row_nnz, shape)

    # -- the block kernel's operator interface -----------------------

    @property
    def nnz(self) -> int:
        """Entries of ``(Tᵀ)_SS`` and ``(Tᵀ)_DS`` together: every entry
        of ``Tᵀ``, since its dangling columns are empty."""
        return self.tt_ss.nnz + self.tt_ds.nnz

    def row_blocks(
        self, parts: int
    ) -> Tuple[List[RowBlock], List[RowBlock]]:
        """``(Tᵀ)_SS`` and ``(Tᵀ)_DS``, each as up to ``parts`` row
        blocks of about equal entries (see :func:`row_blocks`)."""
        return row_blocks(self.tt_ss, parts), row_blocks(self.tt_ds, parts)

    def nbytes(self) -> int:
        """Approximate resident size of the bundle (diagnostics)."""
        total = 0
        for mat in (self.tt_ss, self.tt_ds, self._transition_t):
            if mat is not None:
                total += mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
        total += self.dangling_mask.nbytes
        total += self.non_dangling.nbytes + self.dangling.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OperatorBundle(n={self.num_nodes}, "
            f"nnz={self.nnz}, "
            f"dangling={len(self.dangling)})"
        )


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

    def bundle_for(self, graph: GraphBackend) -> OperatorBundle:
        """Return the graph's bundle, made on first sight: built from an
        in-memory graph (:meth:`OperatorBundle.build`) or gathered from
        a shard store (:meth:`OperatorBundle.gather`).  Both make the
        same arrays, so a store and the in-memory graph of the same
        edges share one entry."""
        tele = get_telemetry()
        key = graph_fingerprint(graph)
        with self._lock:
            bundle = self._hit(key)
            if bundle is None:
                self.misses += 1
        if bundle is not None:
            return bundle
        tele.inc("opcache.misses")
        make = (
            OperatorBundle.gather
            if isinstance(graph, ShardedWebGraph)
            else OperatorBundle.build
        )
        # build outside the lock: O(edges) work
        if tele.enabled:
            with tele.span(
                "operator-build", nodes=graph.num_nodes, edges=graph.num_edges
            ):
                bundle = make(graph, key)
        else:
            bundle = make(graph, key)
        return self._admit(key, bundle)

    def derive_for(self, application):
        """Return the bundle for ``application.after``, derived cheaply.

        When the parent graph's bundle is cached, the child's
        ``(Tᵀ)_SS``/``(Tᵀ)_DS`` are spliced from the parent's
        (:meth:`OperatorBundle.derive`) and the child fingerprint comes
        from the O(|delta|) derivation stamped by
        :meth:`~repro.graph.delta.GraphDelta.apply` — the full CSR is
        never rehashed or sorted.  Falls back to a cold
        :meth:`bundle_for` build when the parent is not resident.
        """
        tele = get_telemetry()
        child_key = graph_fingerprint(application.after)
        with self._lock:
            bundle = self._hit(child_key)
            parent = self._entries.get(graph_fingerprint(application.before))
        if bundle is not None:
            return bundle
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
                bundle = parent.derive(application, child_key)
        else:
            bundle = parent.derive(application, child_key)
        return self._admit(child_key, bundle)

    def _hit(self, key: str) -> Optional[OperatorBundle]:
        """The bundle for ``key``, counted as a hit and moved to the
        recent end; ``None`` if absent.  Called with the lock held."""
        bundle = self._entries.get(key)
        if bundle is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            get_telemetry().inc("opcache.hits")
        return bundle

    def _admit(self, key: str, bundle: OperatorBundle) -> OperatorBundle:
        """Insert a freshly built bundle, evicting past ``maxsize``.  A
        racing builder may have inserted ``key`` meanwhile; the first
        one stays, so callers share a single operator."""
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._entries[key] = bundle
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return bundle

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, graph: object) -> bool:
        if not isinstance(graph, GraphBackend):
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
