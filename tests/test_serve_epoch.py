"""Epoch-store contracts: atomic swap, guarded publish, read-only epochs.

A reader holding an epoch must never observe mutation; a candidate
whose fingerprint disagrees with the delta chain, or whose scores are
non-finite, must be refused *before* the pointer swap; and the score
arrays of the initial and of every published epoch are read-only.
"""

import numpy as np
import pytest

from repro.core.mass import MassEstimates
from repro.errors import InjectedFault, SnapshotMismatchError
from repro.graph import GraphDelta
from repro.serve.epoch import Epoch, EpochStore
from test_differential_solvers import _random_graph


@pytest.fixture(scope="module")
def graph():
    return _random_graph(13, 50, 180)


def _estimates(n, seed=0):
    rng = np.random.default_rng(seed)
    p = rng.random(n) + 0.01
    return MassEstimates(p, p * rng.random(n), 0.85, 0.85)


@pytest.fixture()
def store(graph):
    return EpochStore(Epoch(0, graph, _estimates(graph.num_nodes)))


def _mutate(graph, delta=None):
    delta = delta if delta is not None else GraphDelta([(0, 7)], [])
    return delta.apply(graph).after


def test_publish_swaps_and_old_epoch_stays_usable(store, graph):
    old = store.current
    old_scores = old.estimates.pagerank.copy()
    after = _mutate(graph)
    candidate = old.successor(after, _estimates(graph.num_nodes, 1),
                              wal_seq=1)
    store.publish(candidate,
                  expected_fingerprint=after.structural_fingerprint())
    assert store.current is candidate
    assert store.current.seq == 1
    # a reader that grabbed the old pointer is entirely unaffected
    assert np.array_equal(old.estimates.pagerank, old_scores)
    assert old.graph.num_edges == graph.num_edges


def test_fingerprint_guard_reports_both_fingerprints(store, graph):
    after = _mutate(graph)
    candidate = store.current.successor(
        after, _estimates(graph.num_nodes, 1), wal_seq=1
    )
    with pytest.raises(SnapshotMismatchError) as info:
        store.publish(candidate, expected_fingerprint="g:expected-other")
    assert info.value.expected == "g:expected-other"
    assert info.value.actual == after.structural_fingerprint()
    assert "g:expected-other" in str(info.value)
    assert after.structural_fingerprint() in str(info.value)
    assert store.current.seq == 0  # refused before the swap


def test_non_finite_scores_are_refused(store, graph):
    after = _mutate(graph)
    bad = _estimates(graph.num_nodes, 1)
    bad.pagerank[3] = np.nan
    candidate = store.current.successor(after, bad, wal_seq=1)
    with pytest.raises(SnapshotMismatchError, match="non-finite"):
        store.publish(candidate)
    assert store.current.seq == 0


def test_pre_publish_fault_leaves_readers_on_old_epoch(store, graph):
    after = _mutate(graph)
    candidate = store.current.successor(
        after, _estimates(graph.num_nodes, 1), wal_seq=1
    )

    def _kill(_epoch):
        raise InjectedFault("kill mid-swap")

    with pytest.raises(InjectedFault):
        store.publish(
            candidate,
            expected_fingerprint=after.structural_fingerprint(),
            pre_publish=_kill,
        )
    assert store.current.seq == 0
    assert store.swaps == 0


@pytest.mark.parametrize(
    "name", ["pagerank", "core_pagerank", "absolute", "relative"]
)
def test_initial_and_published_epochs_are_read_only(store, graph, name):
    initial = store.current
    published = store.publish(
        initial.successor(
            _mutate(graph), _estimates(graph.num_nodes, 1), wal_seq=1
        )
    )
    for epoch in (initial, published):
        with pytest.raises(ValueError, match="read-only"):
            getattr(epoch.estimates, name)[0] = 0.5


def test_successor_shares_name_lookup(store, graph):
    after = _mutate(graph)
    candidate = store.current.successor(
        after, _estimates(graph.num_nodes, 1), wal_seq=1
    )
    assert candidate.lookup is store.current.lookup
    assert candidate.wal_seq == 1
    assert candidate.seq == store.current.seq + 1


def test_epoch_is_slotted_and_immutable_shaped(graph):
    epoch = Epoch(0, graph, _estimates(graph.num_nodes))
    with pytest.raises(AttributeError):
        epoch.new_field = 1
