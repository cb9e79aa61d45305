"""Directed web-graph model (Section 2.1 of the paper).

The paper abstracts the web as a directed graph ``G = (V, E)`` whose nodes
may be pages, hosts, or sites.  Links are unweighted and self-links are
disallowed.  This module provides :class:`WebGraph`, an immutable,
CSR-backed directed graph tuned for the linear-algebra workloads of
PageRank-style computations:

* out-adjacency is stored in compressed sparse row (CSR) form
  (``indptr`` / ``indices`` arrays), so iterating the out-neighbours of a
  node and building the transition matrix are both O(1)-ish per edge;
* the in-adjacency (transpose) is computed lazily and cached, because
  mass estimation needs both directions;
* degree vectors, the dangling-node mask and isolation statistics are
  exposed directly, matching the bookkeeping of Section 4.1.

Graphs are constructed through :class:`repro.graph.builder.GraphBuilder`
or the convenience constructors below; the raw constructor validates its
inputs so that an invalid CSR can never circulate.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EmptyGraphError

__all__ = ["WebGraph", "GraphStats", "sorted_unique"]


# Constants of the splitmix64 finalizer — a cheap, well-mixed 64-bit hash.
_MIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)


def _mix_edge_keys(keys: np.ndarray) -> np.ndarray:
    """splitmix64-finalize an array of uint64 edge keys (wraparound)."""
    x = keys.astype(np.uint64, copy=True)
    x += _MIX_GAMMA
    x ^= x >> np.uint64(30)
    x *= _MIX_M1
    x ^= x >> np.uint64(27)
    x *= _MIX_M2
    x ^= x >> np.uint64(31)
    return x


def edge_digest(num_nodes: int, sources: np.ndarray, dests: np.ndarray) -> int:
    """Commutative digest of an edge set: sum of per-edge mixes mod 2^64.

    Because the per-edge hashes are *summed*, the digest of a mutated
    graph is derivable in O(|delta|) from the parent digest (add the
    mixes of inserted edges, subtract those of deleted edges) and is
    bit-identical to recomputing from scratch.
    """
    if len(sources) == 0:
        return 0
    keys = sources.astype(np.uint64) * np.uint64(num_nodes) + dests.astype(
        np.uint64
    )
    return int(_mix_edge_keys(keys).sum(dtype=np.uint64))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for integer keys, by a sort and a mask.

    numpy 2.x answers ``np.unique`` on integers from a hash table; on
    6M int64 edge keys that took 7.2-7.3 s, against 0.10 s for sorting
    them and keeping each element that differs from its predecessor
    (2-vCPU x86 host, numpy 2.4).  The result is the same array:
    sorted, without duplicates, flattened like ``np.unique``'s.
    """
    keys = np.sort(keys, axis=None)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def compose_fingerprint(num_nodes: int, num_edges: int, digest: int) -> str:
    """Render the canonical structural-fingerprint string."""
    return f"g:n={num_nodes};e={num_edges};h={digest & 0xFFFFFFFFFFFFFFFF:016x}"


class GraphStats:
    """Aggregate statistics of a :class:`WebGraph`.

    Mirrors the data-set description of Section 4.1, which reports the
    number of hosts, edges, and the fractions of hosts with no inlinks,
    no outlinks, and no links at all (isolated).
    """

    __slots__ = (
        "num_nodes",
        "num_edges",
        "num_no_inlinks",
        "num_no_outlinks",
        "num_isolated",
        "max_outdegree",
        "max_indegree",
        "mean_outdegree",
    )

    def __init__(
        self,
        num_nodes: int,
        num_edges: int,
        num_no_inlinks: int,
        num_no_outlinks: int,
        num_isolated: int,
        max_outdegree: int,
        max_indegree: int,
        mean_outdegree: float,
    ) -> None:
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.num_no_inlinks = num_no_inlinks
        self.num_no_outlinks = num_no_outlinks
        self.num_isolated = num_isolated
        self.max_outdegree = max_outdegree
        self.max_indegree = max_indegree
        self.mean_outdegree = mean_outdegree

    @property
    def frac_no_inlinks(self) -> float:
        """Fraction of nodes without inlinks (paper: 35% of hosts)."""
        return self.num_no_inlinks / self.num_nodes if self.num_nodes else 0.0

    @property
    def frac_no_outlinks(self) -> float:
        """Fraction of dangling nodes (paper: 66.4% of hosts)."""
        return self.num_no_outlinks / self.num_nodes if self.num_nodes else 0.0

    @property
    def frac_isolated(self) -> float:
        """Fraction of completely isolated nodes (paper: 25.8%)."""
        return self.num_isolated / self.num_nodes if self.num_nodes else 0.0

    def as_dict(self) -> dict:
        """Return the statistics as a plain dictionary."""
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_no_inlinks": self.num_no_inlinks,
            "num_no_outlinks": self.num_no_outlinks,
            "num_isolated": self.num_isolated,
            "frac_no_inlinks": self.frac_no_inlinks,
            "frac_no_outlinks": self.frac_no_outlinks,
            "frac_isolated": self.frac_isolated,
            "max_outdegree": self.max_outdegree,
            "max_indegree": self.max_indegree,
            "mean_outdegree": self.mean_outdegree,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphStats(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"no_in={self.frac_no_inlinks:.1%}, "
            f"no_out={self.frac_no_outlinks:.1%}, "
            f"isolated={self.frac_isolated:.1%})"
        )


class WebGraph:
    """Immutable directed graph in CSR (out-adjacency) form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the out-neighbours of node
        ``x`` are ``indices[indptr[x]:indptr[x + 1]]``.
    indices:
        ``int64`` array of destination node ids, sorted within each row.
    names:
        Optional sequence of node names (host names at host granularity).

    Notes
    -----
    Self-links are rejected (the paper disallows them: the proof of
    Lemma 2 relies on a zero diagonal) and duplicate edges within a row
    are rejected as well, because the model uses unweighted links.
    """

    __slots__ = (
        "_indptr",
        "_indices",
        "_names",
        "_out_degree",
        "_in_degree",
        "_t_indptr",
        "_t_indices",
        "_stats",
        "_fingerprint",
    )

    #: Number of from-scratch fingerprint computations (cache-hit probe
    #: for tests; derived fingerprints stamped by deltas do not count).
    fingerprint_computations = 0

    #: Backend identifier (see :mod:`repro.graph.backend`).
    backend_name = "memory"

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        names: Optional[Sequence[str]] = None,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if validate:
            self._validate(indptr, indices)
        self._indptr = indptr
        self._indptr.setflags(write=False)
        self._indices = indices
        self._indices.setflags(write=False)
        if names is not None and len(names) != len(indptr) - 1:
            raise ValueError(
                f"names has {len(names)} entries for {len(indptr) - 1} nodes"
            )
        self._names: Optional[Tuple[str, ...]] = (
            tuple(names) if names is not None else None
        )
        self._out_degree = np.diff(indptr)
        self._out_degree.setflags(write=False)
        self._in_degree: Optional[np.ndarray] = None
        self._t_indptr: Optional[np.ndarray] = None
        self._t_indices: Optional[np.ndarray] = None
        self._stats: Optional[GraphStats] = None
        self._fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _validate(indptr: np.ndarray, indices: np.ndarray) -> None:
        if indptr.ndim != 1 or len(indptr) < 1:
            raise ValueError("indptr must be a 1-D array of length >= 1")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if indptr[-1] != len(indices):
            raise ValueError(
                f"indptr[-1] ({indptr[-1]}) != number of edges ({len(indices)})"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge destination out of range")
        # per-row checks: sorted, no duplicates, no self-links.  Rows
        # are laid out in node order, so the first hit of each mask is
        # the lowest bad node; within one node the ordering message
        # wins over the self-link one
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        unordered = (sources[1:] == sources[:-1]) & (
            indices[1:] <= indices[:-1]
        )
        looped = indices == sources
        first_unordered = (
            int(sources[1 + unordered.argmax()]) if unordered.any() else n
        )
        first_looped = int(sources[looped.argmax()]) if looped.any() else n
        if first_unordered < n and first_unordered <= first_looped:
            raise ValueError(
                f"out-neighbours of node {first_unordered} must be "
                "strictly increasing (sorted, no duplicate edges)"
            )
        if first_looped < n:
            raise ValueError(f"self-link on node {first_looped} is not allowed")

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        names: Optional[Sequence[str]] = None,
    ) -> "WebGraph":
        """Build a graph from ``(source, destination)`` pairs.

        Duplicate edges are collapsed (the paper collapses all page-level
        hyperlinks between two hosts into a single host-level edge) and
        self-links are dropped.
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if num_nodes == 0:
            raise EmptyGraphError(
                "cannot build a graph with zero nodes: the uniform jump "
                "vector 1/n is undefined for n=0"
            )
        edge_array = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise ValueError("edges must be (source, destination) pairs")
        if edge_array.size and (
            edge_array.min() < 0 or edge_array.max() >= num_nodes
        ):
            raise ValueError(f"edge endpoint out of range for n={num_nodes}")
        # drop self-links, then dedup by composite key (collapse duplicates)
        keep = edge_array[:, 0] != edge_array[:, 1]
        edge_array = edge_array[keep]
        key = sorted_unique(edge_array[:, 0] * num_nodes + edge_array[:, 1])
        sources = key // num_nodes
        dests = key % num_nodes
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(sources, minlength=num_nodes))
        return cls(indptr, dests, names, validate=False)

    @classmethod
    def empty(cls, num_nodes: int) -> "WebGraph":
        """Return a graph with ``num_nodes`` nodes and no edges."""
        return cls.from_edges(num_nodes, [])

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n = |V|``."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return len(self._indices)

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row-pointer array (length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR column-index array (length ``|E|``)."""
        return self._indices

    @property
    def names(self) -> Optional[Tuple[str, ...]]:
        """Node names if attached at construction time."""
        return self._names

    def name_of(self, node: int) -> str:
        """Return the name of ``node``, or ``"node<i>"`` if unnamed."""
        if self._names is not None:
            return self._names[node]
        return f"node{node}"

    def __len__(self) -> int:
        return self.num_nodes

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= node < self.num_nodes

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------

    def out_neighbors(self, node: int) -> np.ndarray:
        """Out-neighbours of ``node`` (nodes it points to)."""
        self._check_node(node)
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def in_neighbors(self, node: int) -> np.ndarray:
        """In-neighbours of ``node`` (nodes pointing to it)."""
        self._check_node(node)
        t_indptr, t_indices = self._transpose_arrays()
        return t_indices[t_indptr[node] : t_indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the directed edge ``(u, v)`` exists."""
        self._check_node(u)
        self._check_node(v)
        row = self.out_neighbors(u)
        pos = np.searchsorted(row, v)
        return pos < len(row) and row[pos] == v

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over all directed edges as ``(source, destination)``."""
        for u in range(self.num_nodes):
            for v in self.out_neighbors(u):
                yield u, int(v)

    def out_degree(self, node: Optional[int] = None):
        """Out-degree of ``node``, or the full out-degree vector."""
        if node is None:
            return self._out_degree
        self._check_node(node)
        return int(self._out_degree[node])

    def in_degree(self, node: Optional[int] = None):
        """In-degree of ``node``, or the full in-degree vector."""
        if self._in_degree is None:
            counts = np.bincount(self._indices, minlength=self.num_nodes)
            self._in_degree = counts.astype(np.int64)
            self._in_degree.setflags(write=False)
        if node is None:
            return self._in_degree
        self._check_node(node)
        return int(self._in_degree[node])

    def dangling_mask(self) -> np.ndarray:
        """Boolean mask of dangling nodes (out-degree zero; Section 2.2)."""
        return self._out_degree == 0

    def isolated_mask(self) -> np.ndarray:
        """Boolean mask of nodes with neither inlinks nor outlinks."""
        return (self._out_degree == 0) & (self.in_degree() == 0)

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise IndexError(
                f"node {node} out of range for graph with {self.num_nodes} nodes"
            )

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------

    def _transpose_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._t_indptr is None:
            n = self.num_nodes
            t_indptr = np.zeros(n + 1, dtype=np.int64)
            counts = np.bincount(self._indices, minlength=n)
            t_indptr[1:] = np.cumsum(counts)
            sources = np.repeat(
                np.arange(n, dtype=np.int64), self._out_degree
            )
            order = np.argsort(self._indices, kind="stable")
            t_indices = sources[order]
            # stable sort keeps sources increasing within each row
            t_indptr.setflags(write=False)
            t_indices.setflags(write=False)
            self._t_indptr = t_indptr
            self._t_indices = t_indices
        return self._t_indptr, self._t_indices

    def transpose(self) -> "WebGraph":
        """Return the reverse graph (every edge flipped)."""
        t_indptr, t_indices = self._transpose_arrays()
        return WebGraph(
            t_indptr.copy(), t_indices.copy(), self._names, validate=False
        )

    def stats(self) -> GraphStats:
        """Compute (and cache) aggregate :class:`GraphStats`."""
        if self._stats is None:
            in_deg = self.in_degree()
            out_deg = self._out_degree
            self._stats = GraphStats(
                num_nodes=self.num_nodes,
                num_edges=self.num_edges,
                num_no_inlinks=int(np.count_nonzero(in_deg == 0)),
                num_no_outlinks=int(np.count_nonzero(out_deg == 0)),
                num_isolated=int(
                    np.count_nonzero((in_deg == 0) & (out_deg == 0))
                ),
                max_outdegree=int(out_deg.max()) if self.num_nodes else 0,
                max_indegree=int(in_deg.max()) if self.num_nodes else 0,
                mean_outdegree=(
                    self.num_edges / self.num_nodes if self.num_nodes else 0.0
                ),
            )
        return self._stats

    # ------------------------------------------------------------------
    # structural fingerprint
    # ------------------------------------------------------------------

    def structural_fingerprint(self) -> str:
        """Content fingerprint of the CSR structure (names excluded).

        Computed once and cached on the instance — graphs are immutable,
        so repeated operator-cache lookups never rehash ``indptr`` /
        ``indices``.  The digest is a commutative sum of per-edge hashes
        (see :func:`edge_digest`), which lets
        :class:`~repro.graph.delta.GraphDelta` derive a mutated graph's
        fingerprint in O(|delta|) and stamp it via
        :meth:`_stamp_fingerprint`.
        """
        if self._fingerprint is None:
            WebGraph.fingerprint_computations += 1
            sources = np.repeat(
                np.arange(self.num_nodes, dtype=np.int64), self._out_degree
            )
            digest = edge_digest(self.num_nodes, sources, self._indices)
            self._fingerprint = compose_fingerprint(
                self.num_nodes, self.num_edges, digest
            )
        return self._fingerprint

    def _stamp_fingerprint(self, fingerprint: str) -> None:
        """Install a fingerprint derived externally (delta application).

        The caller guarantees the value equals what
        :meth:`structural_fingerprint` would compute — the commutative
        digest makes the derived and recomputed values bit-identical,
        and the property tests pin that equality.
        """
        self._fingerprint = fingerprint

    # ------------------------------------------------------------------
    # dunder / comparison
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WebGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.num_edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WebGraph(nodes={self.num_nodes}, edges={self.num_edges})"


def _as_edge_list(graph: WebGraph) -> List[Tuple[int, int]]:
    """Materialize a graph's edges as a list (testing helper)."""
    return list(graph.edges())
