"""Unit tests for the CSR web-graph model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphStats, WebGraph


def test_from_edges_basic():
    g = WebGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert g.num_nodes == 4
    assert g.num_edges == 4
    assert list(g.out_neighbors(0)) == [1, 2]
    assert list(g.out_neighbors(3)) == []


def test_from_edges_drops_self_links():
    g = WebGraph.from_edges(3, [(0, 0), (0, 1), (1, 1)])
    assert g.num_edges == 1
    assert g.has_edge(0, 1)
    assert not g.has_edge(0, 0)


def test_from_edges_collapses_duplicates():
    g = WebGraph.from_edges(2, [(0, 1), (0, 1), (0, 1)])
    assert g.num_edges == 1


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        WebGraph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        WebGraph.from_edges(2, [(-1, 0)])


def test_from_edges_rejects_negative_node_count():
    with pytest.raises(ValueError):
        WebGraph.from_edges(-1, [])


def test_empty_graph():
    g = WebGraph.empty(5)
    assert g.num_nodes == 5
    assert g.num_edges == 0
    assert g.isolated_mask().all()


def test_zero_node_graph_rejected():
    from repro.errors import EmptyGraphError

    with pytest.raises(EmptyGraphError):
        WebGraph.empty(0)
    with pytest.raises(EmptyGraphError):
        WebGraph.from_edges(0, [])
    # the typed error is still a ValueError for legacy handlers
    with pytest.raises(ValueError):
        WebGraph.from_edges(0, [])


def test_in_neighbors_and_degrees():
    g = WebGraph.from_edges(4, [(0, 2), (1, 2), (3, 2), (2, 0)])
    assert sorted(g.in_neighbors(2).tolist()) == [0, 1, 3]
    assert g.in_degree(2) == 3
    assert g.out_degree(2) == 1
    assert g.in_degree(3) == 0
    assert np.array_equal(g.out_degree(), [1, 1, 1, 1])


def test_has_edge():
    g = WebGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_edges_iterator_roundtrip():
    edges = [(0, 1), (0, 3), (2, 1), (3, 0)]
    g = WebGraph.from_edges(4, edges)
    assert sorted(g.edges()) == sorted(edges)


def test_dangling_and_isolated_masks():
    # 0 -> 1, 2 isolated; 1 dangling (in only)
    g = WebGraph.from_edges(3, [(0, 1)])
    assert list(g.dangling_mask()) == [False, True, True]
    assert list(g.isolated_mask()) == [False, False, True]


def test_transpose_roundtrip():
    edges = [(0, 1), (1, 2), (2, 0), (0, 2)]
    g = WebGraph.from_edges(3, edges)
    t = g.transpose()
    assert sorted(t.edges()) == sorted((v, u) for u, v in edges)
    # transposing twice restores the original
    assert t.transpose() == g


def test_transpose_preserves_names():
    g = WebGraph.from_edges(2, [(0, 1)], names=["a.com", "b.com"])
    assert g.transpose().names == ("a.com", "b.com")


def test_stats_match_paper_quantities():
    # 4 nodes: 0->1; 2 has outlink to 1; 3 isolated
    g = WebGraph.from_edges(4, [(0, 1), (2, 1)])
    stats = g.stats()
    assert isinstance(stats, GraphStats)
    assert stats.num_nodes == 4
    assert stats.num_edges == 2
    assert stats.num_no_inlinks == 3  # 0, 2, 3
    assert stats.num_no_outlinks == 2  # 1, 3
    assert stats.num_isolated == 1  # 3
    assert stats.frac_isolated == pytest.approx(0.25)
    d = stats.as_dict()
    assert d["num_edges"] == 2
    assert d["frac_no_outlinks"] == pytest.approx(0.5)


def test_names_access():
    g = WebGraph.from_edges(2, [(0, 1)], names=["x.com", "y.com"])
    assert g.name_of(0) == "x.com"
    unnamed = WebGraph.from_edges(2, [(0, 1)])
    assert unnamed.name_of(1) == "node1"


def test_names_length_mismatch_rejected():
    with pytest.raises(ValueError):
        WebGraph.from_edges(2, [(0, 1)], names=["only-one.com"])


def test_contains_and_len():
    g = WebGraph.empty(3)
    assert 0 in g and 2 in g
    assert 3 not in g
    assert "0" not in g
    assert len(g) == 3


def test_node_range_checks():
    g = WebGraph.empty(2)
    with pytest.raises(IndexError):
        g.out_neighbors(2)
    with pytest.raises(IndexError):
        g.in_neighbors(-1)


def test_validation_rejects_bad_csr():
    with pytest.raises(ValueError, match=r"indptr\[-1\] \(2\) != number of edges \(1\)"):
        WebGraph(np.array([0, 2]), np.array([1]))  # indptr[-1] mismatch
    with pytest.raises(ValueError, match="indptr must start at 0"):
        WebGraph(np.array([1, 1]), np.array([], dtype=np.int64))  # not 0-start
    with pytest.raises(ValueError, match="indptr must be non-decreasing"):
        WebGraph(np.array([0, 2, 1, 2]), np.array([1, 2]))
    with pytest.raises(ValueError, match="edge destination out of range"):
        WebGraph(np.array([0, 1]), np.array([1]))
    with pytest.raises(ValueError, match="self-link on node 0 is not allowed"):
        WebGraph(np.array([0, 1]), np.array([0]))  # self-link
    with pytest.raises(ValueError, match="edge destination out of range"):
        WebGraph(np.array([0, 2]), np.array([1, 1]))  # id 1 in a 1-node graph
    with pytest.raises(
        ValueError,
        match=r"out-neighbours of node 0 must be strictly increasing "
        r"\(sorted, no duplicate edges\)",
    ):
        WebGraph(np.array([0, 2, 2]), np.array([1, 1]))  # duplicate in row
    # two bad rows: the lower node is named, whatever its fault
    with pytest.raises(ValueError, match="self-link on node 1 "):
        WebGraph(np.array([0, 1, 2, 4, 4]), np.array([1, 1, 1, 0]))
    with pytest.raises(ValueError, match="out-neighbours of node 1 "):
        WebGraph(np.array([0, 1, 3, 4, 4]), np.array([1, 2, 0, 2]))
    # one row both unsorted and self-linked: the ordering message wins
    with pytest.raises(ValueError, match="out-neighbours of node 2 "):
        WebGraph(np.array([0, 0, 0, 2]), np.array([2, 1]))
    with pytest.raises(ValueError, match="out-neighbours of node 2 "):
        WebGraph(np.array([0, 0, 0, 3]), np.array([1, 0, 2]))


def _row_loop_error(indptr, indices):
    """The per-row validation loop the vectorized check replaced."""
    for x in range(len(indptr) - 1):
        row = indices[indptr[x]:indptr[x + 1]]
        if np.any(np.diff(row) <= 0):
            return (f"out-neighbours of node {x} must be strictly "
                    "increasing (sorted, no duplicate edges)")
        if np.any(row == x):
            return f"self-link on node {x} is not allowed"
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n)))
def test_validation_names_the_node_the_row_loop_names(rows):
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    indices = np.asarray(
        [v for row in rows for v in row], dtype=np.int64
    )
    expected = _row_loop_error(indptr, indices)
    if expected is None:
        WebGraph(indptr, indices)
    else:
        with pytest.raises(ValueError) as info:
            WebGraph(indptr, indices)
        assert str(info.value) == expected


@pytest.mark.parametrize(
    "keys",
    [
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(50, 3, dtype=np.int64),
        np.arange(-5, 40, dtype=np.int64),
        np.arange(40, -5, -1, dtype=np.int64),
        np.random.default_rng(5).integers(0, 30, 2_000),
        np.random.default_rng(6).integers(-2**62, 2**62, 500).repeat(3),
    ],
    ids=["empty", "one", "all-equal", "sorted", "reversed", "many-dupes",
         "wide-dupes"],
)
def test_sorted_unique_is_np_unique(keys):
    from repro.graph.webgraph import sorted_unique

    expected = np.unique(keys)
    got = sorted_unique(keys)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60),
       st.integers(1, 4))
def test_sorted_unique_matches_np_unique_property(values, repeat):
    from repro.graph.webgraph import sorted_unique

    keys = np.asarray(values * repeat, dtype=np.int64)
    assert np.array_equal(sorted_unique(keys), np.unique(keys))
    assert sorted_unique(keys).dtype == np.int64


def test_arrays_are_read_only():
    g = WebGraph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        g.indptr[0] = 5
    with pytest.raises(ValueError):
        g.indices[0] = 0
    with pytest.raises(ValueError):
        g.out_degree()[0] = 7


def test_equality_and_hash():
    a = WebGraph.from_edges(3, [(0, 1), (1, 2)])
    b = WebGraph.from_edges(3, [(1, 2), (0, 1)])
    c = WebGraph.from_edges(3, [(0, 1)])
    assert a == b
    assert a != c
    assert hash(a) == hash(b)
    assert a != "not a graph"
