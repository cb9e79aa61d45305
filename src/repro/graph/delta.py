"""Edge deltas over immutable web graphs.

The paper's deployment story (Section 5) is a crawl that keeps moving:
between two rankings only a sliver of the host graph changes — a spam
farm appears, a re-crawled hub gains and loses a few links.  This module
models that sliver as a first-class value, :class:`GraphDelta`: a set of
edge insertions and deletions over a fixed node universe.  Applying a
delta to a :class:`~repro.graph.webgraph.WebGraph` splices a brand-new
CSR (the base graph stays immutable) and reports exactly which nodes
were structurally touched, which is the seed set the incremental
PageRank solver (:mod:`repro.perf.incremental`) pushes from.

Two design points matter downstream:

* **Strictness.**  Inserting an edge that already exists or deleting one
  that does not is rejected (:class:`~repro.errors.DeltaError`) rather
  than ignored — a silently-collapsed delta would desynchronize the
  residual seeding from the actual structural change.
* **Fingerprint derivation.**  A graph's structural fingerprint is a
  commutative sum of per-edge hashes
  (:func:`~repro.graph.webgraph.edge_digest`), so the mutated graph's
  fingerprint is derived in O(|delta|) from the parent's and stamped on
  the new instance — bit-identical to recomputing from the full CSR,
  which the property tests pin.

File format (``.delta``)::

    # comment lines start with '#'
    + <src> <dst>      (insertion)
    - <src> <dst>      (deletion)
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import DeltaError, GraphFormatError
from .io import _open_text, _write_atomic
from .webgraph import (
    WebGraph, compose_fingerprint, _mix_edge_keys, sorted_unique, splice,
)

__all__ = [
    "GraphDelta",
    "DeltaApplication",
    "compose_deltas",
    "compose_applications",
    "read_delta",
    "write_delta",
]

PathLike = Union[str, Path]


def _as_edge_array(edges, what: str) -> np.ndarray:
    """Normalize an edge collection to a (m, 2) int64 array."""
    if isinstance(edges, np.ndarray):
        array = np.asarray(edges, dtype=np.int64)
    else:
        array = np.asarray(list(edges), dtype=np.int64)
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise DeltaError(f"{what} must be (source, destination) pairs")
    return array


class GraphDelta:
    """An immutable set of edge insertions and deletions.

    Parameters
    ----------
    insertions, deletions:
        Iterables of ``(source, destination)`` pairs.  Within each list
        duplicates are rejected, as are self-links and negative node
        ids; an edge may not appear in both lists (the composition is
        ambiguous).  Node-range and existence checks happen at
        :meth:`apply` time, against the concrete base graph.
    """

    __slots__ = ("_insertions", "_deletions")

    def __init__(
        self,
        insertions: Iterable[Tuple[int, int]] = (),
        deletions: Iterable[Tuple[int, int]] = (),
    ) -> None:
        ins = _as_edge_array(insertions, "insertions")
        dels = _as_edge_array(deletions, "deletions")
        for what, array in (("insertion", ins), ("deletion", dels)):
            if len(array) == 0:
                continue
            if array.min() < 0:
                raise DeltaError(f"negative node id in {what}s")
            if np.any(array[:, 0] == array[:, 1]):
                bad = array[array[:, 0] == array[:, 1]][0]
                raise DeltaError(
                    f"self-link ({bad[0]}, {bad[1]}) in {what}s is not allowed"
                )
        # canonical order: sort by (source, destination); detect duplicates
        ins = self._canonical(ins, "insertions")
        dels = self._canonical(dels, "deletions")
        if len(ins) and len(dels):
            merged = np.concatenate([ins, dels])
            uniq = np.unique(merged, axis=0)
            if len(uniq) != len(merged):
                raise DeltaError(
                    "an edge appears in both insertions and deletions"
                )
        self._insertions = ins
        self._insertions.setflags(write=False)
        self._deletions = dels
        self._deletions.setflags(write=False)

    @staticmethod
    def _canonical(array: np.ndarray, what: str) -> np.ndarray:
        if len(array) == 0:
            return array
        order = np.lexsort((array[:, 1], array[:, 0]))
        array = array[order]
        if np.any(np.all(array[1:] == array[:-1], axis=1)):
            raise DeltaError(f"duplicate edge in {what}")
        return array

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    @property
    def insertions(self) -> np.ndarray:
        """Read-only ``(m, 2)`` array of inserted edges, sorted."""
        return self._insertions

    @property
    def deletions(self) -> np.ndarray:
        """Read-only ``(m, 2)`` array of deleted edges, sorted."""
        return self._deletions

    @property
    def num_insertions(self) -> int:
        return len(self._insertions)

    @property
    def num_deletions(self) -> int:
        return len(self._deletions)

    def __len__(self) -> int:
        """Total number of edge changes."""
        return len(self._insertions) + len(self._deletions)

    def is_empty(self) -> bool:
        return len(self) == 0

    def touched_sources(self) -> np.ndarray:
        """Sorted unique source nodes of all changed edges.

        These are the nodes whose transition-matrix *rows* change — the
        exact seed set for residual-push updates.
        """
        return sorted_unique(
            np.concatenate([self._insertions[:, 0], self._deletions[:, 0]])
        )

    def touched_nodes(self) -> np.ndarray:
        """Sorted unique endpoints (sources and targets) of all changes."""
        return np.unique(
            np.concatenate([self._insertions.ravel(), self._deletions.ravel()])
        ).astype(np.int64)

    def inverse(self) -> "GraphDelta":
        """The delta that undoes this one (swap insertions/deletions)."""
        return GraphDelta(self._deletions.copy(), self._insertions.copy())

    def compose(self, other: "GraphDelta") -> "GraphDelta":
        """The single delta equivalent to applying ``self`` then ``other``.

        Net cancellation: an edge inserted by ``self`` and deleted by
        ``other`` (or deleted then re-inserted) drops out entirely — its
        source leaves the touched set, exactly as the base graph's row
        is net unchanged.  Strictness is preserved: an edge inserted (or
        deleted) by *both* deltas raises :class:`DeltaError`, because the
        sequential application would fail at the second delta; any
        remaining conflict with the base graph still surfaces at
        :meth:`apply` time.  ``compose(d1, d2).apply(g)`` splices the
        same CSR, bit for bit, as ``d2.apply(d1.apply(g).after)``.
        """
        ins1 = {(int(u), int(v)) for u, v in self._insertions}
        del1 = {(int(u), int(v)) for u, v in self._deletions}
        ins2 = {(int(u), int(v)) for u, v in other._insertions}
        del2 = {(int(u), int(v)) for u, v in other._deletions}
        twice = ins1 & ins2
        if twice:
            u, v = min(twice)
            raise DeltaError(
                f"cannot compose: edge ({u}, {v}) is inserted by both "
                "deltas (the second insertion would find it present)"
            )
        twice = del1 & del2
        if twice:
            u, v = min(twice)
            raise DeltaError(
                f"cannot compose: edge ({u}, {v}) is deleted by both "
                "deltas (the second deletion would find it absent)"
            )
        cancel_fwd = ins1 & del2  # inserted, then deleted: net no-op
        cancel_back = del1 & ins2  # deleted, then restored: net no-op
        insertions = sorted((ins1 - cancel_fwd) | (ins2 - cancel_back))
        deletions = sorted((del1 - cancel_back) | (del2 - cancel_fwd))
        return GraphDelta(insertions, deletions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphDelta(+{self.num_insertions}, -{self.num_deletions})"
        )

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------

    def derive_fingerprint(self, graph: WebGraph) -> str:
        """O(|delta|) fingerprint of ``apply(graph).after``.

        Adds the per-edge hashes of the insertions to the parent digest
        and subtracts those of the deletions (mod 2^64); commutativity
        of the sum makes the result equal to hashing the spliced CSR
        from scratch.
        """
        parent = graph.structural_fingerprint()
        digest = int(parent.rsplit("h=", 1)[1], 16)
        n = np.uint64(graph.num_nodes)
        for sign, edges in ((1, self._insertions), (-1, self._deletions)):
            if len(edges) == 0:
                continue
            keys = edges[:, 0].astype(np.uint64) * n + edges[:, 1].astype(
                np.uint64
            )
            mixed = int(_mix_edge_keys(keys).sum(dtype=np.uint64))
            digest = (digest + sign * mixed) & 0xFFFFFFFFFFFFFFFF
        num_edges = graph.num_edges + self.num_insertions - self.num_deletions
        return compose_fingerprint(graph.num_nodes, num_edges, int(digest))

    def apply(self, graph: WebGraph) -> "DeltaApplication":
        """Splice this delta into ``graph``'s CSR; return the application.

        The base graph is untouched; the result carries the new
        :class:`WebGraph` (with a derived fingerprint stamped on it) and
        the touched-node sets.  Raises :class:`DeltaError` when an
        endpoint is out of range, an insertion already exists, or a
        deletion does not, and :class:`TypeError` for a graph without
        an in-memory CSR (a sharded store).
        """
        if not isinstance(graph, WebGraph):
            raise TypeError(
                f"deltas apply to in-memory graphs, not a "
                f"{type(graph).__name__}; splice its to_webgraph() "
                "instead"
            )
        n = graph.num_nodes
        for what, edges in (
            ("insertion", self._insertions),
            ("deletion", self._deletions),
        ):
            if len(edges) and edges.max() >= n:
                raise DeltaError(
                    f"{what} endpoint out of range for n={n}"
                )
        indptr = graph.indptr
        out_deg = graph.out_degree()
        # the touched rows' entries, keyed (rank of the row) * n + dest:
        # one sorted array that every edit is searched in, so the cost
        # is the touched rows', with no key per edge of the graph
        srcs = self.touched_sources()
        first = np.cumsum(out_deg[srcs]) - out_deg[srcs]
        keys = np.repeat(np.arange(len(srcs)), out_deg[srcs]) * n + (
            graph.out_rows(srcs)
        )
        counts = np.zeros(n, dtype=np.int64)

        def _locate(edges):
            """Each edge's position in the CSR (where it is, or where it
            would be inserted), and whether it is there."""
            rank = np.searchsorted(srcs, edges[:, 0])
            wanted = rank * n + edges[:, 1]
            at = np.searchsorted(keys, wanted)
            found = np.zeros(len(edges), dtype=bool)
            inside = at < len(keys)
            found[inside] = keys[at[inside]] == wanted[inside]
            return indptr[edges[:, 0]] + at - first[rank], found

        gone = np.empty(0, dtype=np.int64)
        if len(self._deletions):
            gone, present = _locate(self._deletions)
            if not present.all():
                bad = self._deletions[~present][0]
                raise DeltaError(
                    f"cannot delete edge ({bad[0]}, {bad[1]}): not present"
                )
            np.subtract.at(counts, self._deletions[:, 0], 1)

        pos = np.empty(0, dtype=np.int64)
        if len(self._insertions):
            pos, exists = _locate(self._insertions)
            if exists.any():
                bad = self._insertions[exists][0]
                raise DeltaError(
                    f"cannot insert edge ({bad[0]}, {bad[1]}): "
                    "already present"
                )
            # among the kept entries (no edge is inserted and deleted)
            pos = pos - np.searchsorted(gone, pos)
            np.add.at(counts, self._insertions[:, 0], 1)

        new_indptr = np.zeros(n + 1, dtype=np.int64)
        new_indptr[1:] = np.cumsum(out_deg + counts)
        (new_indices,) = splice(
            gone, pos, (graph.indices, self._insertions[:, 1], None)
        )
        after = WebGraph(new_indptr, new_indices, graph.names, validate=False)
        after._stamp_fingerprint(self.derive_fingerprint(graph))
        return DeltaApplication(graph, after, self)


class DeltaApplication:
    """The result of applying a :class:`GraphDelta` to a base graph.

    Bundles the ``before``/``after`` graphs with the delta itself and
    the touched-node sets; this is the unit the incremental solver and
    the operator cache consume (both need the *pair* of graphs, not just
    the mutated one).
    """

    __slots__ = ("before", "after", "delta")

    def __init__(
        self, before: WebGraph, after: WebGraph, delta: GraphDelta
    ) -> None:
        self.before = before
        self.after = after
        self.delta = delta

    @property
    def touched_sources(self) -> np.ndarray:
        """Nodes whose out-rows changed (residual seed set)."""
        return self.delta.touched_sources()

    @property
    def touched_nodes(self) -> np.ndarray:
        """All endpoints involved in the change."""
        return self.delta.touched_nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaApplication({self.delta!r}, "
            f"n={self.after.num_nodes}, e={self.after.num_edges})"
        )


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------


def compose_deltas(deltas: Sequence[GraphDelta]) -> GraphDelta:
    """Left-fold a sequence of deltas into one equivalent delta.

    ``compose_deltas([d1, d2, d3])`` is ``d1.compose(d2).compose(d3)``;
    an empty sequence composes to the empty delta.  Raises
    :class:`~repro.errors.DeltaError` whenever applying the sequence
    one by one would fail on a double insertion/deletion.
    """
    composed = GraphDelta()
    for delta in deltas:
        composed = composed.compose(delta)
    return composed


def compose_applications(
    applications: Sequence[DeltaApplication],
) -> DeltaApplication:
    """Collapse a chain of applications into one spanning application.

    The inputs must chain: each application's ``before`` graph is the
    previous one's ``after`` (checked by structural fingerprint).  The
    result reuses the already-spliced final graph — no re-splice — and
    carries the composed delta, so the incremental solver seeds one
    residual for the whole batch and derives one operator.
    """
    if not applications:
        raise DeltaError("cannot compose an empty application chain")
    for prev, nxt in zip(applications, applications[1:]):
        if nxt.before is not prev.after and (
            nxt.before.structural_fingerprint()
            != prev.after.structural_fingerprint()
        ):
            raise DeltaError(
                "applications do not chain: fingerprint "
                f"{nxt.before.structural_fingerprint()!r} does not "
                f"follow {prev.after.structural_fingerprint()!r}"
            )
    delta = compose_deltas([app.delta for app in applications])
    return DeltaApplication(
        applications[0].before, applications[-1].after, delta
    )


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------


def write_delta(delta: GraphDelta, path: PathLike) -> None:
    """Write a delta file (atomic; ``+``/``-`` prefixed edge lines)."""

    def _body(fh: IO[str]) -> None:
        fh.write("# edge delta: '+ src dst' inserts, '- src dst' deletes\n")
        for u, v in delta.insertions:
            fh.write(f"+ {u} {v}\n")
        for u, v in delta.deletions:
            fh.write(f"- {u} {v}\n")

    _write_atomic(path, _body)


def read_delta(path: PathLike) -> GraphDelta:
    """Read a delta file written by :func:`write_delta`.

    Malformed lines raise :class:`~repro.errors.GraphFormatError` naming
    the file and line; semantic problems (duplicates, self-links) raise
    :class:`~repro.errors.DeltaError`.
    """
    insertions: List[Tuple[int, int]] = []
    deletions: List[Tuple[int, int]] = []
    with _open_text(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in ("+", "-"):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected '+|- <src> <dst>', "
                    f"got {line!r}"
                )
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer node id in {line!r}"
                ) from exc
            (insertions if parts[0] == "+" else deletions).append((u, v))
    return GraphDelta(insertions, deletions)
