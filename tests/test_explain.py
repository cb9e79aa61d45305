"""Tests for the mass-explanation module (inverse contributions).

``contributions_to`` answers with a Jacobi solve; the sparse LU solve
of ``(I − cT) z = e_y`` it replaced is kept here as the oracle, on
graphs small enough to factorize.
"""

import time

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

import repro.core.explain as explain_module
from repro.core import contribution_matrix, pagerank
from repro.core.explain import contributions_to, explain_mass
from repro.datasets import figure1_graph, figure2_graph
from repro.graph import WebGraph
from repro.graph.ops import transition_matrix
from repro.synth.huge import huge_good_core, iter_huge_edges
from repro.synth.scenario import WorldConfig

SHARES = 1e-9


def _lu_contributions(graph, target, v=None, damping=0.85):
    """The oracle: one sparse LU solve of ``(I − cT) z = e_target``."""
    n = graph.num_nodes
    if v is None:
        v = np.full(n, 1.0 / n)
    system = sparse.identity(n, format="csc") - damping * transition_matrix(
        graph
    ).tocsc()
    unit = np.zeros(n)
    unit[target] = 1.0
    z = np.asarray(sparse_linalg.spsolve(system, unit)).ravel()
    return (1.0 - damping) * v * z


def _zoo():
    """Small graphs across the structural regimes, Table 1's included."""
    rng = np.random.default_rng(5)
    zoo = {
        "table1": (figure2_graph().graph, figure2_graph()),
        "figure1": (figure1_graph().graph, None),
        "cycle": (WebGraph.from_edges(
            30, [(i, (i + 1) % 30) for i in range(30)]), None),
        "star": (WebGraph.from_edges(
            40, [(i, 0) for i in range(1, 40)]), None),
    }
    for name, n, m, dangling in (
        ("sparse", 200, 600, 0.0),
        ("dangling-heavy", 200, 400, 0.7),
    ):
        sources = rng.permutation(n)[: max(2, int(n * (1 - dangling)))]
        edges = zip(rng.choice(sources, m), rng.integers(0, n, m))
        zoo[name] = (WebGraph.from_edges(n, list(edges)), None)
    return zoo


ZOO = _zoo()


@pytest.fixture(scope="module")
def example():
    return figure2_graph()


def test_contributions_to_matches_contribution_matrix(example):
    """The backward solve agrees with the forward Theorem 2 matrix."""
    q = contribution_matrix(example.graph)
    for target in range(example.graph.num_nodes):
        backward = contributions_to(example.graph, target)
        assert np.abs(backward - q[:, target]).max() < 1e-10


def test_contributions_sum_to_pagerank(example):
    """Theorem 1 through the backward direction."""
    scores = pagerank(example.graph, tol=1e-14).scores
    for target in (example.id_of("x"), example.id_of("g0")):
        contributions = contributions_to(example.graph, target)
        assert contributions.sum() == pytest.approx(
            scores[target], abs=1e-12
        )


def test_contributions_to_validation(example):
    with pytest.raises(IndexError):
        contributions_to(example.graph, 99)
    with pytest.raises(ValueError):
        contributions_to(example.graph, 0, v=np.ones(3))
    with pytest.raises(ValueError):
        contributions_to(example.graph, 0, damping=1.0)


def test_explain_x_blames_spam(example):
    """Explaining Figure 2's x reproduces the Section 3.3 analysis:
    the spam side contributes ~66% (Table 1's m = 0.66)."""
    explanation = explain_mass(
        example.graph,
        example.id_of("x"),
        example.good_core,
        suspected_spam=example.spam,
    )
    # x itself is in example.spam, so self + s-nodes give m = 0.66
    assert explanation.spam_share == pytest.approx(0.663, abs=0.005)
    assert explanation.core_share > 0.2
    kinds = {kind for _, _, kind in explanation.top_sources}
    assert "spam" in kinds and "core" in kinds
    # the direct in-neighbours g0, g2, s0 tie at the top of the
    # external sources (each contributes c = 0.85 scaled)
    external = [
        (s, c) for s, c, _ in explanation.top_sources
        if s != example.id_of("x")
    ]
    top_ids = {s for s, _ in external[:3]}
    assert top_ids == {
        example.id_of("g0"), example.id_of("g2"), example.id_of("s0")
    }
    assert external[0][1] == pytest.approx(external[2][1])


def test_explain_marks_self(example):
    # s1 has no inlinks: its whole PageRank is its own jump, and with
    # no black-list supplied it counts as unknown
    explanation = explain_mass(
        example.graph, example.id_of("s1"), example.good_core
    )
    assert explanation.top_sources[0][2] == "self"
    assert explanation.unknown_share == pytest.approx(1.0)
    # a core member's own jump counts toward the core share
    core_member = explain_mass(
        example.graph, example.id_of("g1"), example.good_core
    )
    assert core_member.core_share == pytest.approx(1.0)


def test_whitelist_wins_on_conflict(example):
    explanation = explain_mass(
        example.graph,
        example.id_of("x"),
        example.good_core,
        suspected_spam=list(example.good_core) + list(example.spam),
    )
    # core members stay "core" even when also black-listed
    for source, _, kind in explanation.top_sources:
        if source in example.good_core:
            assert kind == "core"


def test_render_is_readable(example):
    explanation = explain_mass(
        example.graph,
        example.id_of("x"),
        example.good_core,
        suspected_spam=example.spam,
    )
    text = explanation.render(example.graph)
    assert "node x" in text
    assert "core (known good)" in text
    assert "[spam]" in text


def test_explain_on_synthetic_candidate(small_ctx):
    """Explaining a detected farm target shows its boosters on top."""
    target = int(small_ctx.world.group("farm:1:target")[0])
    boosters = set(small_ctx.world.group("farm:1:boosters").tolist())
    explanation = explain_mass(
        small_ctx.graph, target, small_ctx.core, top=8
    )
    external_sources = [
        s for s, _, kind in explanation.top_sources if kind != "self"
    ]
    assert external_sources
    booster_hits = sum(1 for s in external_sources if s in boosters)
    assert booster_hits >= len(external_sources) * 0.7
    assert explanation.core_share < 0.3


def test_top_validation(example):
    with pytest.raises(ValueError):
        explain_mass(example.graph, 0, example.good_core, top=0)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_review_sheet_matches_the_lu_oracle(name, monkeypatch):
    """Shares, the core/spam/unknown split and the top contributors of
    every review sheet equal the LU answer's within 1e-9."""
    graph, example = ZOO[name]
    n = graph.num_nodes
    if example is not None:
        core, spam = example.good_core, example.spam
    else:
        core, spam = list(range(0, n, 5)), list(range(1, n, 7))
    scores = pagerank(graph, tol=1e-14).scores
    targets = sorted({0, n - 1, int(np.argmax(scores))})
    for target in targets:
        got = explain_mass(graph, target, core, suspected_spam=spam, top=8)
        with monkeypatch.context() as patch:
            patch.setattr(
                explain_module, "contributions_to", _lu_contributions
            )
            want = explain_mass(
                graph, target, core, suspected_spam=spam, top=8
            )
        assert got.pagerank == pytest.approx(want.pagerank, rel=1e-9)
        for share in ("core_share", "spam_share", "unknown_share"):
            assert abs(getattr(got, share) - getattr(want, share)) < SHARES
        lu_share = want.contributions / want.pagerank
        assert np.abs(got.contributions / got.pagerank - lu_share).max() < (
            SHARES
        )
        # ties may order differently; the shares at each rank may not
        assert len(got.top_sources) == len(want.top_sources)
        for (_, a, _), (_, b, _) in zip(got.top_sources, want.top_sources):
            assert abs(a / got.pagerank - b / want.pagerank) < SHARES
        for source, contribution, _ in got.top_sources:
            assert abs(contribution / got.pagerank - lu_share[source]) < SHARES


def test_explain_at_50k_hosts_in_bounded_time():
    """At 50k hosts, where a sparse LU solve does not finish, one
    explanation answers in well under 5 s, and its contributions still
    sum to the target's PageRank (Theorem 1)."""
    hosts = 50_000
    config = WorldConfig(
        7, num_base_hosts=hosts, mean_outdegree=6.0,
        directory_size=hosts // 10, gov_size=hosts // 10,
    )
    graph = WebGraph.from_edges(
        hosts, np.concatenate(list(iter_huge_edges(config)))
    )
    core = huge_good_core(config)
    scores = pagerank(graph, tol=1e-14).scores
    target = int(np.argmax(scores))
    start = time.perf_counter()
    explanation = explain_mass(graph, target, core)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert explanation.pagerank == pytest.approx(scores[target], rel=1e-9)
    assert explanation.top_sources[0][1] > 0
