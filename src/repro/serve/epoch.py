"""Immutable score epochs: atomic hot-swap behind a publish guard.

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
re-estimate is refused before any reader can see it.  The store then
marks the epoch's four score arrays read-only in place, so what was
validated is what every later reader sees; a health probe needs no
rescan and there is nothing to roll back to.  Because an epoch's
scores cannot change, ``top`` keeps the ranking of its Algorithm 2
candidates for the last gate pair asked on the epoch.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core import scale_scores
from ..errors import DeltaError, SnapshotMismatchError
from ..obs import get_telemetry

__all__ = [
    "Epoch",
    "EpochStore",
    "core_nodes",
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


def core_nodes(graph, names: List[str]) -> np.ndarray:
    """Node ids of the core host ``names`` (:class:`DeltaError` naming
    the first missing one), resolved like :func:`resolve_host`.  A
    named graph is scanned once against the set of core names, so no
    table of every host's name is built here; the epoch builds the one
    the daemon keeps."""
    lookup = None
    if graph.names is not None:
        wanted = set(names)
        lookup = {
            name: i for i, name in enumerate(graph.names) if name in wanted
        }
    core, missing = [], []
    for name in names:
        try:
            core.append(resolve_host(name, lookup, graph.num_nodes))
        except KeyError:
            missing.append(name)
    if missing:
        raise DeltaError(
            f"{len(missing)} core hosts are not in the graph "
            f"(first: {missing[0]!r})"
        )
    return np.asarray(core, dtype=np.int64)


class Epoch:
    """One immutable, self-contained serving state.

    Everything a query touches lives here; an epoch's graph and scores
    are never mutated after construction, so a reader holding one can
    never observe a half-applied update regardless of what the ingest
    worker does.  The only state it gains later is derived from those
    scores and read-only: the candidate ranking :func:`top_from_epoch`
    keeps for the last gate pair asked.
    """

    __slots__ = (
        "seq",
        "graph",
        "estimates",
        "fingerprint",
        "lookup",
        "wal_seq",
        "_ranking",
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
        #: ((tau, rho), read-only eligible node ids, highest relative
        #: mass first) of the last ``top`` (see :func:`top_from_epoch`);
        #: a new epoch starts without one, so no epoch serves its
        #: parent's ranking
        self._ranking: Optional[Tuple[Tuple[float, float], np.ndarray]] = None

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


def _rank_candidates(estimates, num_nodes: int, *, tau: float,
                     rho: float) -> np.ndarray:
    """Algorithm 2 over whole score vectors: the node ids with scaled
    PageRank ``>= rho`` and relative mass ``>= tau``, highest relative
    mass first, ties in node order.  O(n), and read-only."""
    scaled = scale_scores(estimates.pagerank, num_nodes, estimates.damping)
    relative = estimates.relative
    eligible = np.flatnonzero((scaled >= rho) & (relative >= tau))
    ranked = eligible[np.argsort(-relative[eligible], kind="stable")]
    ranked.setflags(write=False)
    return ranked


def top_from_epoch(epoch: Epoch, k: int, *, tau: float, rho: float) -> dict:
    """Top-k spam candidates (Algorithm 2 gates) from one epoch.

    The epoch keeps the ranking of the last ``(tau, rho)`` asked: a
    call with another pair ranks the eligible set
    (:func:`_rank_candidates`, O(n)) and replaces it, and a call with
    the same pair is an O(k) slice.  The slot holds a (pair, ranking)
    tuple stored in one assignment, so a reader never pairs one gate
    pair with another's ranking; readers that miss at once each build
    a correct array and the last store wins, so no lock is needed.
    Non-finite gates raise :class:`ValueError`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (math.isfinite(tau) and math.isfinite(rho)):
        raise ValueError(f"tau and rho must be finite, got {tau}, {rho}")
    est = epoch.estimates
    n = epoch.graph.num_nodes
    key, cached = (tau, rho), epoch._ranking
    if cached is not None and cached[0] == key:
        ranked = cached[1]
    else:
        ranked = _rank_candidates(est, n, tau=tau, rho=rho)
        epoch._ranking = (key, ranked)
    order = ranked[:k]
    # the same elementwise product as scaling the whole vector
    scaled = scale_scores(est.pagerank[order], n, est.damping)
    return {
        "candidates": [
            {
                "host": epoch.graph.name_of(int(node)),
                "relative_mass": float(est.relative[node]),
                "scaled_pagerank": float(value),
            }
            for node, value in zip(order, scaled)
        ],
        "total_eligible": int(len(ranked)),
        "tau": tau,
        "rho": rho,
    }


def _freeze(epoch: Epoch) -> None:
    """Mark the epoch's score arrays read-only, in place (a copy would
    cost ~32 MB per epoch at 1M hosts)."""
    est = epoch.estimates
    for scores in (est.pagerank, est.core_pagerank, est.absolute,
                   est.relative):
        scores.setflags(write=False)


class EpochStore:
    """The swap point: one current epoch, published read-only.

    The read side is a bare attribute access; :meth:`publish`
    serializes under a lock, which costs nothing because only the
    single ingest worker ever writes.
    """

    def __init__(self, initial: Epoch) -> None:
        _freeze(initial)
        self._current = initial
        self._lock = threading.Lock()
        self.swaps = 0
        self._set_gauges(initial)

    @property
    def current(self) -> Epoch:
        """The serving epoch (a single atomic pointer read)."""
        return self._current

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
        its scores are not finite.  A candidate that passes has its
        score arrays marked read-only.  ``pre_publish`` is the chaos
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
        _freeze(candidate)
        with self._lock:
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

    @staticmethod
    def _set_gauges(epoch: Epoch) -> None:
        tele = get_telemetry()
        if tele.enabled:
            tele.set_gauge("serve.epoch", epoch.seq)
            tele.set_gauge("serve.epoch_wal_seq", epoch.wal_seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EpochStore(current={self._current!r}, swaps={self.swaps})"
