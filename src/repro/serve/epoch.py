"""Copy-on-write score epochs: atomic hot-swap, guard, rollback.

Readers of the serving daemon must never observe a *torn* state — a
graph from one crawl paired with scores from another.  The mechanism
is the oldest one in the book: everything a query needs (graph, mass
estimates, fingerprint, name lookup) is frozen into one immutable
:class:`Epoch`, and the store holds a single pointer to the current
one.  A reader grabs the pointer once (one attribute read — atomic
under the GIL) and answers entirely from that object; the ingest
worker builds the *next* epoch off to the side and publishes it with a
pointer swap.  No locks on the read path, no partially-updated arrays,
ever.

Publication is guarded: the candidate's scores must be finite and its
stamped fingerprint must equal both the fingerprint derived from the
delta chain *and* what the mutated graph hashes to
(:class:`~repro.errors.SnapshotMismatchError` otherwise) — a diverged
re-estimate is refused before any reader can see it.  The store keeps
the previous epoch, so a post-publish problem (a chaos-poisoned
vector, a failed validation downstream) rolls back with another
pointer swap.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

import numpy as np

from ..core import scale_scores
from ..errors import SnapshotMismatchError
from ..obs import get_telemetry

__all__ = [
    "Epoch",
    "EpochStore",
    "resolve_host",
    "score_from_epoch",
    "top_from_epoch",
]


def resolve_host(
    host: str, lookup: Optional[Dict[str, int]], num_nodes: int
) -> int:
    """Node id of ``host``; :class:`KeyError` for an unknown host.

    A named graph resolves through ``lookup`` (name -> node id).  An
    unnamed graph (``lookup`` is ``None``) names node ``i``
    ``"node<i>"``, so ``host`` resolves by exact round trip: ``"node"``
    and ASCII digits that print back as the same string, below
    ``num_nodes`` -- the strings a ``{f"node{i}": i}`` table would
    hold, without building one.
    """
    if lookup is not None:
        node = lookup.get(host)
    else:
        node = None
        if isinstance(host, str) and host.startswith("node"):
            digits = host[4:]
            # the length bound also keeps int() clear of its
            # digit-count limit on hostile input
            if (
                digits.isascii()
                and digits.isdigit()
                and len(digits) <= len(str(num_nodes))
            ):
                i = int(digits)
                if i < num_nodes and f"node{i}" == host:
                    node = i
    if node is None:
        raise KeyError(host)
    return node


class Epoch:
    """One immutable, self-contained serving state.

    Everything a query touches lives here; an epoch is never mutated
    after construction, so a reader holding one can never observe a
    half-applied update regardless of what the ingest worker does.
    """

    __slots__ = (
        "seq",
        "graph",
        "estimates",
        "fingerprint",
        "lookup",
        "wal_seq",
    )

    def __init__(
        self,
        seq: int,
        graph,
        estimates,
        *,
        wal_seq: int = 0,
        lookup: Optional[Dict[str, int]] = None,
    ) -> None:
        self.seq = seq
        self.graph = graph
        self.estimates = estimates
        self.fingerprint = graph.structural_fingerprint()
        #: host name -> node id of a named graph, ``None`` for an
        #: unnamed one (see :func:`resolve_host`); node universes are
        #: fixed across deltas, so successor epochs share the parent's
        #: dict (never copied)
        if lookup is None and graph.names is not None:
            lookup = {name: i for i, name in enumerate(graph.names)}
        self.lookup = lookup
        #: sequence of the last WAL record folded into these scores
        self.wal_seq = wal_seq

    def node_of(self, host: str) -> int:
        """Node id of ``host`` (:class:`KeyError` if unknown)."""
        return resolve_host(host, self.lookup, self.graph.num_nodes)

    def successor(self, graph, estimates, *, wal_seq: int) -> "Epoch":
        """The next epoch, sharing this one's name lookup."""
        return Epoch(
            self.seq + 1,
            graph,
            estimates,
            wal_seq=wal_seq,
            lookup=self.lookup,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Epoch(seq={self.seq}, wal_seq={self.wal_seq}, "
            f"n={self.graph.num_nodes})"
        )


def score_from_epoch(epoch: Epoch, host: str) -> dict:
    """Per-host spam-mass score payload from one epoch.

    Raises :class:`KeyError` for an unknown host.
    """
    node = epoch.node_of(host)
    est = epoch.estimates
    n = epoch.graph.num_nodes
    return {
        "host": host,
        "node": int(node),
        "pagerank": float(est.pagerank[node]),
        "scaled_pagerank": float(
            scale_scores(est.pagerank[node:node + 1], n, est.damping)[0]
        ),
        "core_pagerank": float(est.core_pagerank[node]),
        "absolute_mass": float(est.absolute[node]),
        "relative_mass": float(est.relative[node]),
    }


def top_from_epoch(epoch: Epoch, k: int, *, tau: float, rho: float) -> dict:
    """Top-k spam candidates (Algorithm 2 gates) from one epoch."""
    if k < 1:
        raise ValueError("k must be >= 1")
    est = epoch.estimates
    scaled = scale_scores(est.pagerank, epoch.graph.num_nodes, est.damping)
    eligible = np.flatnonzero((scaled >= rho) & (est.relative >= tau))
    order = eligible[np.argsort(-est.relative[eligible], kind="stable")][:k]
    return {
        "candidates": [
            {
                "host": epoch.graph.name_of(int(node)),
                "relative_mass": float(est.relative[node]),
                "scaled_pagerank": float(scaled[node]),
            }
            for node in order
        ],
        "total_eligible": int(len(eligible)),
        "tau": tau,
        "rho": rho,
    }


class EpochStore:
    """The swap point: one current epoch, one rollback predecessor.

    The read side is a bare attribute access; the write side
    (:meth:`publish`, :meth:`rollback`) serializes under a lock, which
    costs nothing because only the single ingest worker ever writes.
    """

    def __init__(self, initial: Epoch) -> None:
        self._current = initial
        self._previous: Optional[Epoch] = None
        self._lock = threading.Lock()
        self.swaps = 0
        self.rollbacks = 0
        self._set_gauges(initial)

    @property
    def current(self) -> Epoch:
        """The serving epoch (a single atomic pointer read)."""
        return self._current

    @property
    def previous(self) -> Optional[Epoch]:
        return self._previous

    def publish(
        self,
        candidate: Epoch,
        *,
        expected_fingerprint: str = "",
        pre_publish: Optional[Callable[[Epoch], None]] = None,
    ) -> Epoch:
        """Validate ``candidate`` and swap it in atomically.

        ``expected_fingerprint`` is the fingerprint the delta chain
        says the new graph must have (the WAL record's ``after``); the
        guard refuses the swap when the candidate disagrees, and when
        its scores are not finite.  ``pre_publish`` is the chaos
        injection point — it runs after validation but *before* the
        pointer swap, so an injected kill lands exactly in the
        mid-swap window; if it raises, readers keep the old epoch.
        """
        actual = candidate.fingerprint
        if expected_fingerprint and actual != expected_fingerprint:
            raise SnapshotMismatchError(
                f"refusing epoch swap: re-estimated graph fingerprint "
                f"{actual!r} does not match the delta chain's expected "
                f"{expected_fingerprint!r}",
                expected=expected_fingerprint,
                actual=actual,
            )
        scores = candidate.estimates.pagerank
        core = candidate.estimates.core_pagerank
        if not (np.all(np.isfinite(scores)) and np.all(np.isfinite(core))):
            raise SnapshotMismatchError(
                "refusing epoch swap: re-estimated scores contain "
                "non-finite values (diverged re-estimate)",
                expected=expected_fingerprint,
                actual=actual,
            )
        if pre_publish is not None:
            pre_publish(candidate)
        with self._lock:
            self._previous = self._current
            self._current = candidate
            self.swaps += 1
        tele = get_telemetry()
        if tele.enabled:
            tele.inc("serve.swaps")
            tele.event(
                "serve.swap",
                epoch=candidate.seq,
                wal_seq=candidate.wal_seq,
                fingerprint=candidate.fingerprint,
            )
        self._set_gauges(candidate)
        return candidate

    def rollback(self) -> Optional[Epoch]:
        """Swap the previous epoch back in; ``None`` if there is none.

        Used when a published epoch is later found bad (health probe
        catches a poisoned vector).  Single-level on purpose: the WAL
        is the durable history, the store only needs one step of undo
        to keep serving while the ingest path recovers.
        """
        with self._lock:
            if self._previous is None:
                return None
            restored = self._previous
            self._previous = None
            self._current = restored
            self.rollbacks += 1
        tele = get_telemetry()
        if tele.enabled:
            tele.inc("serve.rollbacks")
            tele.event("serve.rollback", epoch=restored.seq)
        self._set_gauges(restored)
        return restored

    @staticmethod
    def _set_gauges(epoch: Epoch) -> None:
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge("serve.epoch", epoch.seq)
            tele.set_gauge("serve.epoch_wal_seq", epoch.wal_seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EpochStore(current={self._current!r}, swaps={self.swaps}, "
            f"rollbacks={self.rollbacks})"
        )
