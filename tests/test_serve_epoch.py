"""Epoch-store contracts: atomic swap, guarded publish, read-only epochs.

A reader holding an epoch must never observe mutation; a candidate
whose fingerprint disagrees with the delta chain, or whose scores are
non-finite, must be refused *before* the pointer swap; and the score
arrays of the initial and of every published epoch are read-only.

``top`` answers from a ranking each epoch builds once per gate pair;
the differential tests below hold every answer to the O(n) top-k that
used to run on each request.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import scale_scores
from repro.core.mass import MassEstimates, estimate_spam_mass
from repro.errors import InjectedFault, SnapshotMismatchError
from repro.graph import GraphDelta, WebGraph
from repro.serve import ScoringDaemon
from repro.serve import epoch as epoch_module
from repro.serve.epoch import Epoch, EpochStore, top_from_epoch
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


# ----------------------------------------------------------------------
# top: the memoized ranking against the O(n) oracle
# ----------------------------------------------------------------------


def _oracle_top(epoch, k, *, tau, rho):
    """The top-k every request used to compute in full: scale all
    n PageRank values, mask, stable-argsort the eligible set."""
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


#: hosts 50-59 link into the random part and nothing links to them, so
#: no core path reaches them: p' is exactly 0 and m~ exactly 1.0
TIED = range(50, 60)
CORE = [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def solved():
    """A published epoch over real estimates, with tied relative mass."""
    random_part = _random_graph(13, 50, 180)
    edges = [
        (u, int(v))
        for u in range(random_part.num_nodes)
        for v in random_part.indices[
            random_part.indptr[u]:random_part.indptr[u + 1]
        ]
    ]
    edges += [(host, host - 50) for host in TIED]
    graph = WebGraph.from_edges(60, edges)
    estimates = estimate_spam_mass(graph, CORE, gamma=0.85)
    return graph, EpochStore(Epoch(0, graph, estimates))


def _fresh_epoch(solved):
    """An epoch with no ranking yet over the shared estimates."""
    graph, store = solved
    return Epoch(0, graph, store.current.estimates)


@pytest.mark.parametrize(
    "k,tau,rho",
    [
        (10, 0.98, 10.0),    # the daemon's default gates
        (5, 0.5, 2.0),
        (3, 0.0, 0.0),
        (7, 0.9, 1.0),
        (10, 2.0, 0.0),      # m~ <= 1: admits nothing
        (60, -1e300, -1e300),  # admits every host
        (1000, 0.0, 0.0),    # k above total_eligible
    ],
)
def test_top_matches_the_full_ranking(solved, k, tau, rho):
    epoch = _fresh_epoch(solved)
    expected = _oracle_top(epoch, k, tau=tau, rho=rho)
    # the first call builds the ranking, the second slices it
    assert top_from_epoch(epoch, k, tau=tau, rho=rho) == expected
    assert top_from_epoch(epoch, k, tau=tau, rho=rho) == expected
    if tau == 2.0:
        assert expected["total_eligible"] == 0
    if tau == -1e300:
        assert expected["total_eligible"] == epoch.graph.num_nodes


def test_tied_relative_mass_keeps_node_order(solved):
    epoch = _fresh_epoch(solved)
    got = top_from_epoch(epoch, 100, tau=1.0, rho=0.0)
    assert got == _oracle_top(epoch, 100, tau=1.0, rho=0.0)
    hosts = [c["host"] for c in got["candidates"]]
    names = [epoch.graph.name_of(node) for node in TIED]
    # every candidate ties at 1.0, so node order alone decides
    assert set(names) <= set(hosts)
    assert [h for h in hosts if h in names] == names
    assert all(c["relative_mass"] == 1.0 for c in got["candidates"])
    nodes = [epoch.node_of(h) for h in hosts]
    assert nodes == sorted(nodes)


def _spy(monkeypatch):
    calls = []
    build = epoch_module._rank_candidates

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return build(*args, **kwargs)

    monkeypatch.setattr(epoch_module, "_rank_candidates", spy)
    return calls


def test_same_gates_do_not_rebuild_the_ranking(solved, monkeypatch):
    calls = _spy(monkeypatch)
    epoch = _fresh_epoch(solved)
    top_from_epoch(epoch, 3, tau=0.5, rho=1.0)
    top_from_epoch(epoch, 3, tau=0.5, rho=1.0)
    top_from_epoch(epoch, 8, tau=0.5, rho=1.0)  # another k, same pair
    assert len(calls) == 1
    top_from_epoch(epoch, 3, tau=0.5, rho=2.0)
    assert len(calls) == 2


def test_switching_gate_pairs_still_answers(solved, monkeypatch):
    """The epoch keeps only the last pair's ranking: a switch ranks
    again and never answers from the previous pair's ids."""
    calls = _spy(monkeypatch)
    epoch = _fresh_epoch(solved)
    pairs = [(0.0, 0.0), (0.5, 1.0), (0.9, 2.0), (0.0, 0.0), (0.0, 0.0)]
    for tau, rho in pairs:
        assert top_from_epoch(epoch, 5, tau=tau, rho=rho) == _oracle_top(
            epoch, 5, tau=tau, rho=rho
        )
        assert epoch._ranking[0] == (tau, rho)
    assert len(calls) == 4


def test_memoized_ranking_is_read_only(solved):
    epoch = _fresh_epoch(solved)
    top_from_epoch(epoch, 3, tau=0.0, rho=0.0)
    _, ranked = epoch._ranking
    with pytest.raises(ValueError, match="read-only"):
        ranked[0] = 0


def test_concurrent_tops_share_the_slot_without_a_lock(solved):
    """Readers that hit and replace the epoch's ranking at once still
    answer exactly the oracle: more threads than cores, several gate
    pairs, and a tiny switch interval."""
    epoch = _fresh_epoch(solved)
    pairs = [(t / 10, r) for t in range(3) for r in (0.0, 1.0, 2.0)]
    expected = {
        pair: _oracle_top(epoch, 4, tau=pair[0], rho=pair[1])
        for pair in pairs
    }
    errors = []

    def reader(offset):
        try:
            for i in range(300):
                # three in a row per pair, so readers both hit and miss
                tau, rho = pairs[(offset + i // 3) % len(pairs)]
                got = top_from_epoch(epoch, 4, tau=tau, rho=rho)
                if got != expected[(tau, rho)]:
                    errors.append((tau, rho, got))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


@pytest.mark.parametrize(
    "tau,rho",
    [(float("nan"), 1.0), (0.5, float("nan")), (0.5, float("-inf")),
     (float("inf"), 1.0)],
)
def test_top_refuses_non_finite_gates(solved, tau, rho):
    epoch = _fresh_epoch(solved)
    with pytest.raises(ValueError, match="finite"):
        top_from_epoch(epoch, 3, tau=tau, rho=rho)
    assert epoch._ranking is None


def test_published_apply_ranks_the_new_scores(solved):
    graph, store = solved
    daemon = ScoringDaemon(graph, CORE, store.current.estimates)
    before = daemon.query_top(60, tau=-1e300, rho=-1e300)
    parent = daemon.store.current
    daemon.submit_delta([(55, 20), (56, 21), (20, 57)])
    assert daemon.apply_pending() == 1
    current = daemon.store.current
    assert current is not parent and current.seq == 1
    assert current._ranking is None  # nothing inherited from the parent
    after = daemon.query_top(60, tau=-1e300, rho=-1e300)
    expected = _oracle_top(current, 60, tau=-1e300, rho=-1e300)
    assert {k: after[k] for k in expected} == expected
    assert after["candidates"] != before["candidates"]
    assert after["epoch"] == 1
