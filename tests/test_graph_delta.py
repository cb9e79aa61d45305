"""Property and unit tests for ``repro.graph.delta``.

``GraphDelta`` is the contract the incremental engine stands on: a
validated, immutable edge delta whose application splices a new CSR
(the base graph untouched) and whose fingerprint derivation is
*commutative* — updating the parent digest per edge must equal hashing
the spliced CSR from scratch.  Hypothesis drives the round-trip and
derivation invariants over random graphs; the unit tests pin the
rejection semantics and the file format.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeltaError, GraphFormatError
from repro.graph import (
    GraphDelta,
    compose_applications,
    compose_deltas,
    read_delta,
    write_delta,
)
from repro.graph.webgraph import WebGraph
from test_differential_solvers import _random_graph

SETTINGS = dict(max_examples=30, deadline=None)


def _edge_set(graph):
    sources = np.repeat(np.arange(graph.num_nodes), graph.out_degree())
    return set(zip(sources.tolist(), graph.indices.tolist()))


def _random_delta(graph, rng, num_ins, num_del):
    """Fresh insertions + existing deletions, valid by construction."""
    n = graph.num_nodes
    existing = _edge_set(graph)
    insertions = set()
    attempts = 0
    while len(insertions) < num_ins and attempts < 50 * num_ins:
        attempts += 1
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v and (u, v) not in existing and (u, v) not in insertions:
            insertions.add((u, v))
    deletions = []
    if existing and num_del:
        pool = sorted(existing)
        idx = rng.choice(len(pool), size=min(num_del, len(pool)),
                         replace=False)
        deletions = [pool[i] for i in idx]
    return GraphDelta(insertions=sorted(insertions), deletions=deletions)


@st.composite
def graph_and_delta(draw):
    n = draw(st.integers(min_value=4, max_value=50))
    num_edges = draw(st.integers(min_value=0, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = {
        (int(u), int(v))
        for u, v in rng.integers(0, n, size=(num_edges, 2))
        if u != v
    }
    graph = WebGraph.from_edges(n, sorted(edges))
    delta = _random_delta(
        graph,
        rng,
        num_ins=draw(st.integers(min_value=0, max_value=2 * n)),
        num_del=draw(st.integers(min_value=0, max_value=graph.num_edges)),
    )
    return graph, delta


# ----------------------------------------------------------------------
# property tests
# ----------------------------------------------------------------------


@settings(**SETTINGS)
@given(graph_and_delta())
def test_apply_matches_rebuilt_graph(case):
    """The spliced CSR equals a from-scratch build of the edited set."""
    graph, delta = case
    after = delta.apply(graph).after
    edited = _edge_set(graph)
    edited -= set(map(tuple, delta.deletions.tolist()))
    edited |= set(map(tuple, delta.insertions.tolist()))
    rebuilt = WebGraph.from_edges(graph.num_nodes, sorted(edited))
    assert np.array_equal(after.indptr, rebuilt.indptr)
    assert np.array_equal(after.indices, rebuilt.indices)
    # the O(|delta|) derived fingerprint equals the cold recomputation
    assert (
        after.structural_fingerprint()
        == rebuilt.structural_fingerprint()
    )


@settings(**SETTINGS)
@given(graph_and_delta())
def test_inverse_round_trip(case):
    """Applying a delta then its inverse restores CSR and fingerprint."""
    graph, delta = case
    after = delta.apply(graph).after
    restored = delta.inverse().apply(after).after
    assert np.array_equal(restored.indptr, graph.indptr)
    assert np.array_equal(restored.indices, graph.indices)
    assert (
        restored.structural_fingerprint()
        == graph.structural_fingerprint()
    )


@settings(**SETTINGS)
@given(graph_and_delta())
def test_touched_sets_and_base_immutability(case):
    graph, delta = case
    indptr_before = graph.indptr.copy()
    indices_before = graph.indices.copy()
    application = delta.apply(graph)
    changed = np.concatenate([delta.insertions, delta.deletions])
    if len(changed):
        assert set(application.touched_sources.tolist()) == set(
            changed[:, 0].tolist()
        )
        assert set(delta.touched_nodes().tolist()) == set(
            changed.ravel().tolist()
        )
    else:
        assert delta.is_empty()
        assert len(application.touched_sources) == 0
    # the base graph is untouched
    assert np.array_equal(graph.indptr, indptr_before)
    assert np.array_equal(graph.indices, indices_before)
    assert (
        application.after.num_edges
        == graph.num_edges + delta.num_insertions - delta.num_deletions
    )


def test_touched_sources_is_computed_once_and_read_only():
    """Every read of a delta's touched sources, directly or through its
    application, is the one read-only array made with the delta."""
    graph = WebGraph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    delta = GraphDelta(insertions=[(3, 1), (0, 2)], deletions=[(4, 5)])
    first = delta.touched_sources()
    assert delta.touched_sources() is first
    assert first.tolist() == [0, 3, 4]
    assert not first.flags.writeable
    application = delta.apply(graph)
    assert application.touched_sources is first
    assert GraphDelta().touched_sources().tolist() == []


# ----------------------------------------------------------------------
# zoo regimes: dangling- and isolated-heavy graphs
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=120, num_edges=400, dangling_frac=0.6),
        dict(n=120, num_edges=200, isolated_frac=0.5),
        dict(n=150, num_edges=300, dangling_frac=0.3, isolated_frac=0.3),
    ],
    ids=["dangling-heavy", "isolated-heavy", "mixed"],
)
def test_apply_on_zoo_regimes(kwargs):
    graph = _random_graph(5, **kwargs)
    rng = np.random.default_rng(17)
    delta = _random_delta(graph, rng, num_ins=25, num_del=10)
    after = delta.apply(graph).after
    edited = _edge_set(graph)
    edited -= set(map(tuple, delta.deletions.tolist()))
    edited |= set(map(tuple, delta.insertions.tolist()))
    rebuilt = WebGraph.from_edges(graph.num_nodes, sorted(edited))
    assert np.array_equal(after.indptr, rebuilt.indptr)
    assert np.array_equal(after.indices, rebuilt.indices)
    assert (
        after.structural_fingerprint()
        == rebuilt.structural_fingerprint()
    )


# ----------------------------------------------------------------------
# rejection semantics
# ----------------------------------------------------------------------


def test_rejects_self_links_and_duplicates():
    with pytest.raises(DeltaError, match="self-link"):
        GraphDelta(insertions=[(3, 3)])
    with pytest.raises(DeltaError, match="self-link"):
        GraphDelta(deletions=[(0, 0)])
    with pytest.raises(DeltaError, match="duplicate"):
        GraphDelta(insertions=[(0, 1), (0, 1)])
    with pytest.raises(DeltaError, match="duplicate"):
        GraphDelta(deletions=[(2, 1), (2, 1)])
    with pytest.raises(DeltaError, match="both"):
        GraphDelta(insertions=[(0, 1)], deletions=[(0, 1)])
    with pytest.raises(DeltaError, match="negative"):
        GraphDelta(insertions=[(-1, 2)])
    with pytest.raises(DeltaError, match="pairs"):
        GraphDelta(insertions=[(0, 1, 2)])


def test_apply_rejects_semantic_conflicts():
    graph = WebGraph.from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(DeltaError, match="out of range"):
        GraphDelta(insertions=[(0, 9)]).apply(graph)
    with pytest.raises(DeltaError, match="already present"):
        GraphDelta(insertions=[(0, 1)]).apply(graph)
    with pytest.raises(DeltaError, match="not present"):
        GraphDelta(deletions=[(2, 3)]).apply(graph)


def test_empty_delta_is_identity():
    graph = WebGraph.from_edges(4, [(0, 1), (1, 2)])
    delta = GraphDelta()
    assert delta.is_empty() and len(delta) == 0
    after = delta.apply(graph).after
    assert np.array_equal(after.indptr, graph.indptr)
    assert np.array_equal(after.indices, graph.indices)
    assert (
        after.structural_fingerprint() == graph.structural_fingerprint()
    )


# ----------------------------------------------------------------------
# composition
# ----------------------------------------------------------------------


@st.composite
def graph_and_chain(draw):
    """A graph plus a chain of deltas, each valid against the last tip.

    Later deltas may delete edges earlier ones inserted (and re-insert
    edges earlier ones deleted), so composition's cancellation paths
    get exercised, not just disjoint unions.
    """
    n = draw(st.integers(min_value=4, max_value=40))
    num_edges = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    length = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    edges = {
        (int(u), int(v))
        for u, v in rng.integers(0, n, size=(num_edges, 2))
        if u != v
    }
    graph = WebGraph.from_edges(n, sorted(edges))
    chain = []
    tip = graph
    for _ in range(length):
        delta = _random_delta(
            tip,
            rng,
            num_ins=int(rng.integers(0, n)),
            num_del=int(rng.integers(0, max(tip.num_edges, 1))),
        )
        chain.append(delta)
        tip = delta.apply(tip).after
    return graph, chain


@settings(**SETTINGS)
@given(graph_and_chain())
def test_composed_splice_equals_sequential_splices(case):
    """One composed splice is bitwise the chain of individual splices."""
    graph, chain = case
    tip = graph
    for delta in chain:
        tip = delta.apply(tip).after
    composed = compose_deltas(chain)
    spliced = composed.apply(graph).after
    assert np.array_equal(spliced.indptr, tip.indptr)
    assert np.array_equal(spliced.indices, tip.indices)
    assert (
        spliced.structural_fingerprint() == tip.structural_fingerprint()
    )
    # net size: cancellations drop out of both edge lists
    assert spliced.num_edges == graph.num_edges + sum(
        d.num_insertions - d.num_deletions for d in chain
    )


@settings(**SETTINGS)
@given(graph_and_chain())
def test_compose_applications_matches_chain_endpoints(case):
    graph, chain = case
    applications = []
    tip = graph
    for delta in chain:
        application = delta.apply(tip)
        applications.append(application)
        tip = application.after
    composed = compose_applications(applications)
    assert composed.before is graph
    assert composed.after is tip
    respliced = composed.delta.apply(graph).after
    assert np.array_equal(respliced.indptr, tip.indptr)
    assert np.array_equal(respliced.indices, tip.indices)


def test_compose_cancels_opposing_edits():
    first = GraphDelta(insertions=[(0, 1), (2, 3)], deletions=[(4, 5)])
    second = GraphDelta(insertions=[(4, 5)], deletions=[(0, 1)])
    net = first.compose(second)
    assert net.num_insertions == 1  # only (2, 3) survives
    assert net.num_deletions == 0  # (4, 5) delete+re-insert cancels
    assert tuple(net.insertions[0]) == (2, 3)
    # full round trip composes to the identity
    assert first.compose(first.inverse()).is_empty()


def test_compose_rejects_conflicting_chains():
    with pytest.raises(DeltaError, match="inserted by both"):
        GraphDelta(insertions=[(0, 1)]).compose(
            GraphDelta(insertions=[(0, 1)])
        )
    with pytest.raises(DeltaError, match="deleted by both"):
        GraphDelta(deletions=[(0, 1)]).compose(
            GraphDelta(deletions=[(0, 1)])
        )


def test_compose_applications_rejects_broken_chains():
    graph = WebGraph.from_edges(4, [(0, 1), (1, 2)])
    first = GraphDelta(insertions=[(2, 3)]).apply(graph)
    unrelated = GraphDelta(insertions=[(3, 0)]).apply(graph)
    with pytest.raises(DeltaError, match="chain"):
        compose_applications([first, unrelated])
    with pytest.raises(DeltaError, match="empty"):
        compose_applications([])


# ----------------------------------------------------------------------
# file I/O
# ----------------------------------------------------------------------


def test_delta_file_round_trip(tmp_path):
    delta = GraphDelta(
        insertions=[(0, 1), (4, 2)], deletions=[(3, 0)]
    )
    path = tmp_path / "crawl.delta"
    write_delta(delta, path)
    loaded = read_delta(path)
    assert np.array_equal(loaded.insertions, delta.insertions)
    assert np.array_equal(loaded.deletions, delta.deletions)


def test_read_delta_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.delta"
    path.write_text("+ 0 1\n* 2 3\n")
    with pytest.raises(GraphFormatError, match="bad.delta:2"):
        read_delta(path)
    path.write_text("+ 0 x\n")
    with pytest.raises(GraphFormatError, match="non-integer"):
        read_delta(path)
    # semantic validation still applies to parsed content
    path.write_text("+ 1 1\n")
    with pytest.raises(DeltaError, match="self-link"):
        read_delta(path)
