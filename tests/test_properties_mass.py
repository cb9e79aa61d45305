"""Property-based invariants of PageRank and spam-mass estimation.

Randomized graphs and cores (via hypothesis) exercise the paper's
algebraic guarantees rather than specific worked examples:

* ``‖p‖₁ ≤ 1`` for any jump vector with ``‖v‖₁ ≤ 1`` (Section 2.2 —
  the linear PageRank gives up the mass that dies at dangling nodes);
* with the *full* good core, the γ-scaled core jump satisfies
  ``w = γ·v ≤ v``, hence ``p′ ≤ p`` componentwise (linearity +
  non-negativity of the resolvent);
* the two mass forms agree through the identity ``M̃ = m̃ · p``
  (Definitions 1–3);
* the operator cache is invisible to numerics: a cache hit returns the
  same solution arrays a cold build produces, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mass import estimate_spam_mass, mass_jump_block
from repro.core.pagerank import (
    pagerank,
    pagerank_from_matrix,
    uniform_jump_vector,
)
from repro.graph.ops import transition_matrix
from repro.graph.webgraph import WebGraph
from repro.perf import PagerankEngine

TOL = 1e-12
SETTINGS = dict(max_examples=25, deadline=None)


@st.composite
def graph_and_core(draw):
    """A random graph plus a non-empty node subset to use as the core."""
    n = draw(st.integers(min_value=5, max_value=60))
    num_edges = draw(st.integers(min_value=0, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(num_edges, 2))
    graph = WebGraph.from_edges(n, [tuple(map(int, e)) for e in edges])
    core_size = draw(st.integers(min_value=1, max_value=n))
    core = rng.choice(n, size=core_size, replace=False)
    return graph, np.sort(core)


@given(graph_and_core())
@settings(**SETTINGS)
def test_pagerank_norm_bounded_by_one(gc):
    graph, _ = gc
    scores = pagerank(graph, tol=TOL).scores
    assert scores.min() >= 0.0
    assert scores.sum() <= 1.0 + 1e-9


@given(graph_and_core(), st.floats(min_value=0.05, max_value=1.0))
@settings(**SETTINGS)
def test_full_core_pagerank_dominated(gc, gamma):
    # with the core = the whole graph, w = (γ/n)·1 ≤ (1/n)·1 = v, so
    # p' = PR(w) = γ·PR(v) ≤ PR(v) componentwise
    graph, _ = gc
    full_core = np.arange(graph.num_nodes)
    est = estimate_spam_mass(graph, full_core, gamma=gamma, tol=TOL)
    assert np.all(est.core_pagerank <= est.pagerank + 1e-9)
    # and exactly proportional, since w = γ·v
    assert np.abs(
        est.core_pagerank - gamma * est.pagerank
    ).max() < 1e-9


@given(graph_and_core())
@settings(**SETTINGS)
def test_mass_identity_absolute_equals_relative_times_p(gc):
    graph, core = gc
    est = estimate_spam_mass(graph, core, gamma=0.85, tol=TOL)
    # p ≥ (1−c)/n > 0 everywhere under the uniform jump, so the
    # relative form is defined everywhere and M̃ = m̃·p exactly
    assert est.pagerank.min() > 0.0
    assert np.allclose(
        est.absolute, est.relative * est.pagerank, atol=1e-12
    )
    assert np.array_equal(
        est.absolute, est.pagerank - est.core_pagerank
    )


@given(graph_and_core())
@settings(**SETTINGS)
def test_cache_hit_equals_cold_build(gc):
    graph, core = gc
    n = graph.num_nodes
    vectors = np.stack(
        [
            uniform_jump_vector(n),
            np.where(np.isin(np.arange(n), core), 0.85 / len(core), 0.0),
        ],
        axis=1,
    )
    warm_engine = PagerankEngine()
    cold = warm_engine.solve_many(graph, vectors, tol=TOL)
    hit = warm_engine.solve_many(graph, vectors, tol=TOL)
    info = warm_engine.cache.cache_info()
    assert info["misses"] == 1 and info["hits"] >= 1
    assert np.array_equal(hit.scores, cold.scores)
    # and a completely fresh engine (cold build) agrees bit for bit —
    # caching never changes the arithmetic
    fresh = PagerankEngine().solve_many(graph, vectors, tol=TOL)
    assert np.array_equal(fresh.scores, cold.scores)


@given(graph_and_core())
@settings(**SETTINGS)
def test_batched_pair_matches_sequential_estimates(gc):
    # the engine path (batched) and two scalar Jacobi solves over an
    # independently built Tᵀ produce the same vectors to solver
    # tolerance
    graph, core = gc
    batched = estimate_spam_mass(graph, core, gamma=0.85, tol=TOL)
    transition_t = transition_matrix(graph).T.tocsr()
    jumps = mass_jump_block(graph.num_nodes, core, 0.85)
    p, p_core = (
        pagerank_from_matrix(
            transition_t, np.ascontiguousarray(jumps[:, j]), tol=TOL
        ).scores
        for j in (0, 1)
    )
    assert np.abs(batched.pagerank - p).sum() < 1e-8
    assert np.abs(batched.core_pagerank - p_core).sum() < 1e-8
