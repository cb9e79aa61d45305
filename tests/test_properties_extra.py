"""Additional property-based tests: serialization round trips, farm
closed forms, threshold tooling and explanation invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.farm_theory import (
    boosters_needed,
    optimal_farm_booster,
    optimal_farm_target,
    relay_farm_target,
    star_farm_target,
)
from repro.core.explain import contributions_to
from repro.core import pagerank
from repro.eval import (
    LABEL_GOOD,
    LABEL_SPAM,
    EvaluationSample,
    detection_volume,
    precision_at,
)
from repro.graph import (
    WebGraph,
    read_edge_list,
    read_graph_bundle,
    read_npz,
    read_scores,
    write_edge_list,
    write_graph_bundle,
    write_npz,
    write_scores,
)

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, min_nodes=2, max_nodes=10):
    n = draw(st.integers(min_nodes, max_nodes))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n * (n - 1),
        )
    )
    return WebGraph.from_edges(n, edges)


@given(graphs())
@settings(**SETTINGS)
def test_edge_list_roundtrip_property(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("io") / "g.edges"
    write_edge_list(graph, path)
    assert read_edge_list(path) == graph


@given(graphs())
@settings(**SETTINGS)
def test_npz_roundtrip_property(tmp_path_factory, graph):
    path = tmp_path_factory.mktemp("io") / "g.npz"
    write_npz(graph, path)
    assert read_npz(path) == graph


@given(graphs(), st.booleans(), st.booleans())
@settings(**SETTINGS)
def test_bundle_anchor_reads_what_the_text_reads(
    tmp_path_factory, graph, named, compress
):
    """The graph and fingerprint a bundle's anchor yields equal those
    of a text read of the same bundle, names included, and come with
    no fingerprint pass."""
    if named:
        graph = graph.with_names(
            [f"h{i}.example" for i in range(graph.num_nodes)]
        )
    out = write_graph_bundle(
        graph, tmp_path_factory.mktemp("bundle"), compress=compress
    )
    computed = WebGraph.fingerprint_computations
    anchored, _, _ = read_graph_bundle(out)
    anchored_fp = anchored.structural_fingerprint()
    assert WebGraph.fingerprint_computations == computed
    (out / "graph.anchor.npz").unlink()
    text, _, _ = read_graph_bundle(out)
    assert anchored == text
    assert anchored.names == text.names
    assert anchored_fp == text.structural_fingerprint()


@given(
    st.lists(
        st.floats(
            min_value=-1e6,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(**SETTINGS)
def test_scores_roundtrip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("io") / "v.scores"
    scores = np.asarray(values, dtype=np.float64)
    write_scores(scores, path)
    assert np.array_equal(read_scores(path), scores)


@given(st.integers(1, 5_000), st.floats(0.05, 0.95))
@settings(**SETTINGS)
def test_farm_closed_form_relations(k, c):
    """Order relations of the farm formulas hold for every k and c."""
    star = star_farm_target(k, c)
    optimal = optimal_farm_target(k, c)
    booster = optimal_farm_booster(k, c)
    assert optimal > star > 1.0
    assert booster > 1.0
    # conservation-flavoured sanity: the farm's total scaled PageRank
    # equals its node count plus what the circulating rank adds
    assert optimal + k * booster > (k + 1)
    # relay farms never beat the flat star farm with the same budget
    if k >= 2:
        assert relay_farm_target(k - 1, 1, c) <= star + 1e-9


@given(st.floats(1.5, 5_000.0), st.booleans())
@settings(**SETTINGS)
def test_boosters_needed_is_minimal(score, recycling):
    k = boosters_needed(score, recycling=recycling)
    formula = optimal_farm_target if recycling else star_farm_target
    assert formula(max(k, 1)) >= score - 1e-9
    if k > 1:
        assert formula(k - 1) < score


@given(graphs(min_nodes=3))
@settings(**SETTINGS)
def test_contributions_to_sums_to_pagerank(graph):
    scores = pagerank(graph, tol=1e-13).scores
    target = graph.num_nodes // 2
    contributions = contributions_to(graph, target)
    assert contributions.sum() == pytest.approx(scores[target], abs=1e-10)
    assert (contributions >= -1e-15).all()


@st.composite
def labeled_samples(draw):
    size = draw(st.integers(2, 40))
    labels = draw(
        st.lists(
            st.sampled_from([LABEL_GOOD, LABEL_SPAM]),
            min_size=size,
            max_size=size,
        )
    )
    mass = np.asarray(
        draw(
            st.lists(
                st.floats(-5.0, 1.0, allow_nan=False),
                min_size=size,
                max_size=size,
            )
        )
    )
    sample = EvaluationSample(
        np.arange(size), labels, np.zeros(size, dtype=bool)
    )
    return sample, mass


@given(labeled_samples(), st.floats(-5.0, 1.0), st.floats(-5.0, 1.0))
@settings(**SETTINGS)
def test_precision_counts_monotone_in_tau(pair, tau1, tau2):
    sample, mass = pair
    lo, hi = sorted((tau1, tau2))
    loose = precision_at(sample, mass, lo)
    strict = precision_at(sample, mass, hi)
    assert strict.num_total <= loose.num_total
    assert strict.num_spam <= loose.num_spam
    eligible = np.ones(len(sample), dtype=bool)
    assert detection_volume(mass, eligible, hi) <= detection_volume(
        mass, eligible, lo
    )
