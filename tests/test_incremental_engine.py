"""Differential and integration tests for the incremental engine.

The contract under test: a Gauss–Southwell residual-push update runs at
the *same tolerance* as a cold solve and agrees with it to ``10 * tol``
per node — for both the uniform-jump ``p`` and the core-jump ``p′`` —
across the solver-zoo regimes, for insertion-, deletion- and mixed
deltas, chained updates, and the layers stacked on top (operator
splicing, ``estimate_spam_mass(previous=)``, ``MassDetector.update``,
``ReproductionContext.updated``, solution checkpoints).
"""

import json
import struct
import zipfile

import numpy as np
import pytest
from scipy import sparse

from repro.core.detector import MassDetector
from repro.core.mass import estimate_spam_mass
from repro.core.pagerank import (
    scaled_core_jump_vector,
    uniform_jump_vector,
)
from repro.errors import CheckpointError
from repro.graph import GraphDelta, compose_applications
from repro.graph.ops import transition_matrix
from repro.graph.webgraph import WebGraph
from repro.perf import OperatorCache, PagerankEngine
from repro.runtime import load_solution, save_solution
from test_differential_solvers import _random_graph

TOL = 1e-12
BOUND = 10 * TOL


def _edge_set(graph):
    sources = np.repeat(np.arange(graph.num_nodes), graph.out_degree())
    return set(zip(sources.tolist(), graph.indices.tolist()))


def _random_delta(graph, rng, num_ins, num_del):
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


def _stacked_jumps(graph, rng):
    """The spam-mass pair: uniform jump and a γ-scaled core jump."""
    n = graph.num_nodes
    core = np.sort(rng.choice(n, size=max(5, n // 10), replace=False))
    return np.stack(
        [uniform_jump_vector(n), scaled_core_jump_vector(n, core, 0.85)],
        axis=1,
    )


# ----------------------------------------------------------------------
# zoo differential: incremental vs cold at the same tol
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=300, num_edges=1800),
        dict(n=300, num_edges=900, dangling_frac=0.5),
        dict(n=300, num_edges=700, isolated_frac=0.4),
        dict(n=350, num_edges=1000, dangling_frac=0.3, isolated_frac=0.2),
    ],
    ids=["plain", "dangling-heavy", "isolated-heavy", "mixed"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_update_matches_cold_solve_on_zoo(kwargs, seed):
    graph = _random_graph(seed, **kwargs)
    rng = np.random.default_rng(100 + seed)
    stacked = _stacked_jumps(graph, rng)
    delta = _random_delta(graph, rng, num_ins=30, num_del=15)
    application = delta.apply(graph)

    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    inc = engine.update_many(application, base, stacked, tol=TOL)
    cold = PagerankEngine().solve_many(application.after, stacked, tol=TOL)

    assert inc.converged.all()
    assert np.abs(inc.scores - cold.scores).max() <= BOUND


def test_update_matches_cold_on_deletion_heavy_delta():
    graph = _random_graph(3, n=250, num_edges=1500)
    rng = np.random.default_rng(9)
    stacked = _stacked_jumps(graph, rng)
    delta = _random_delta(graph, rng, num_ins=0, num_del=60)
    application = delta.apply(graph)

    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    inc = engine.update_many(application, base, stacked, tol=TOL)
    cold = PagerankEngine().solve_many(application.after, stacked, tol=TOL)
    assert np.abs(inc.scores - cold.scores).max() <= BOUND


def test_empty_delta_returns_previous_scores_in_zero_sweeps():
    graph = _random_graph(4, n=200, num_edges=1200)
    rng = np.random.default_rng(4)
    stacked = _stacked_jumps(graph, rng)
    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    inc = engine.update_many(
        GraphDelta().apply(graph), base, stacked, tol=TOL
    )
    assert inc.converged.all()
    assert inc.stats.sweeps == 0
    assert np.abs(inc.scores - base.scores).max() <= BOUND


def test_chained_updates_track_the_cold_solution():
    graph = _random_graph(5, n=250, num_edges=1400, dangling_frac=0.3)
    rng = np.random.default_rng(5)
    stacked = _stacked_jumps(graph, rng)
    engine = PagerankEngine()
    current = engine.solve_many(graph, stacked, tol=TOL)
    for step in range(3):
        delta = _random_delta(graph, rng, num_ins=20, num_del=8)
        application = delta.apply(graph)
        current = engine.update_many(application, current, stacked, tol=TOL)
        graph = application.after
    cold = PagerankEngine().solve_many(graph, stacked, tol=TOL)
    assert np.abs(current.scores - cold.scores).max() <= BOUND


def test_update_many_validates_previous_shape():
    graph = WebGraph.from_edges(5, [(0, 1), (1, 2)])
    application = GraphDelta(insertions=[(2, 3)]).apply(graph)
    engine = PagerankEngine()
    with pytest.raises(ValueError, match="previous scores"):
        engine.update_many(
            application, np.zeros((5, 3)), [None, [0, 1]], tol=TOL
        )


def test_update_many_rejects_non_finite_jump_vectors():
    graph = _random_graph(26, n=300, num_edges=900)
    rng = np.random.default_rng(26)
    stacked = _stacked_jumps(graph, rng)
    application = _random_delta(graph, rng, num_ins=10, num_del=0).apply(
        graph
    )
    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    poisoned = stacked.copy()
    poisoned[7, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        engine.update_many(
            application, base, poisoned, tol=TOL, max_iter=50, check=False
        )


# ----------------------------------------------------------------------
# delta coalescing, escape profile
# ----------------------------------------------------------------------


def _chained_applications(graph, rng, steps=3):
    applications = []
    tip = graph
    for _ in range(steps):
        delta = _random_delta(tip, rng, num_ins=20, num_del=8)
        application = delta.apply(tip)
        applications.append(application)
        tip = application.after
    return applications, tip


def test_update_many_coalesces_application_chains():
    """A chain passed to ``update_many`` is one composed warm solve.

    Bitwise identical to pre-composing the chain by hand, and within
    the usual ``10 * tol`` of the cold solve on the final graph.
    """
    graph = _random_graph(21, n=300, num_edges=1600, dangling_frac=0.3)
    rng = np.random.default_rng(21)
    stacked = _stacked_jumps(graph, rng)
    applications, final = _chained_applications(graph, rng)

    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    coalesced = engine.update_many(applications, base, stacked, tol=TOL)

    other = PagerankEngine()
    other.cache.bundle_for(graph)
    precomposed = other.update_many(
        compose_applications(applications), base, stacked, tol=TOL
    )
    assert np.array_equal(coalesced.scores, precomposed.scores)
    assert coalesced.stats.pushes == precomposed.stats.pushes

    cold = PagerankEngine().solve_many(final, stacked, tol=TOL)
    assert np.abs(coalesced.scores - cold.scores).max() <= BOUND


def test_diffuse_update_escapes_and_records_the_profile():
    """A delta rescaling many live out-rows escapes immediately.

    Touched sources that already have outlinks rescale their whole row,
    so the seed frontier is wide *and* live — the early-escape
    condition — and the stats must say so.
    """
    graph = _random_graph(22, n=400, num_edges=2400)
    rng = np.random.default_rng(22)
    stacked = _stacked_jumps(graph, rng)
    delta = _random_delta(graph, rng, num_ins=120, num_del=0)
    application = delta.apply(graph)

    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    inc = engine.update_many(application, base, stacked, tol=TOL)

    stats = inc.stats
    assert stats.escapes == 1
    assert stats.seed_frontier > 0
    assert stats.live_seed_frontier > 0
    assert stats.escape_sweeps > 0
    for key in (
        "seed_frontier",
        "live_seed_frontier",
        "escapes",
        "escape_sweeps",
    ):
        assert key in stats.as_dict()

    cold = PagerankEngine().solve_many(application.after, stacked, tol=TOL)
    assert np.abs(inc.scores - cold.scores).max() <= BOUND


def _diffuse_update(check_every=8):
    """The escaping update of the test above, with its cold base."""
    graph = _random_graph(22, n=400, num_edges=2400)
    rng = np.random.default_rng(22)
    stacked = _stacked_jumps(graph, rng)
    application = _random_delta(graph, rng, num_ins=120, num_del=0).apply(
        graph
    )
    engine = PagerankEngine(check_every=check_every)
    base = engine.solve_many(graph, stacked, tol=TOL)
    return base, engine.update_many(application, base, stacked, tol=TOL)


def test_escape_checks_residuals_at_the_engine_cadence():
    """``PagerankEngine(check_every=...)`` reaches the escape's block
    kernel, which can only stop at a residual check."""
    for check_every in (5, 8):
        _, inc = _diffuse_update(check_every)
        assert inc.stats.escapes == 1
        assert inc.stats.escape_sweeps % check_every == 0, check_every


@pytest.mark.parametrize("threads", [2, 3])
def test_threaded_escape_is_bitwise_inline(threads, sweep_threads):
    sweep_threads(1)
    base, inline = _diffuse_update()
    sweep_threads(threads)
    threaded_base, threaded = _diffuse_update()
    assert inline.stats.escapes == 1
    for a, b in ((base, threaded_base), (inline, threaded)):
        for name in ("scores", "iterations", "residuals", "converged"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    assert inline.stats.as_dict() == threaded.stats.as_dict()


def test_farm_update_stays_on_the_push_path():
    """Leaf-local churn (dangling targets) must never trigger an escape."""
    graph = _random_graph(23, n=300, num_edges=600, dangling_frac=0.7)
    rng = np.random.default_rng(23)
    stacked = _stacked_jumps(graph, rng)
    out_deg = np.diff(graph.indptr)
    silent = np.flatnonzero(out_deg == 0)
    sources = rng.choice(silent, size=5, replace=False)
    insertions = []
    for src in sources:
        pool = silent[silent != src]
        insertions.extend(
            (int(src), int(t))
            for t in rng.choice(pool, size=15, replace=False)
        )
    application = GraphDelta(insertions=sorted(set(insertions))).apply(
        graph
    )
    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    inc = engine.update_many(application, base, stacked, tol=TOL)
    assert inc.stats.escapes == 0
    assert inc.stats.max_frontier < graph.num_nodes
    cold = PagerankEngine().solve_many(application.after, stacked, tol=TOL)
    assert np.abs(inc.scores - cold.scores).max() <= BOUND


# ----------------------------------------------------------------------
# operator splice
# ----------------------------------------------------------------------


def _shaped_delta(graph, rng, shape):
    """A delta of one shape the operator splice must handle."""
    out_deg = graph.out_degree()
    live = np.flatnonzero(out_deg > 0)
    dangling = np.flatnonzero(out_deg == 0)
    existing = _edge_set(graph)

    def _new_edges(sources, targets):
        return sorted(
            {(int(u), int(v)) for u in sources for v in targets
             if u != v and (int(u), int(v)) not in existing}
        )

    def _out_row(src):
        row = graph.indices[graph.indptr[src]:graph.indptr[src + 1]]
        return [(int(src), int(v)) for v in row]

    if shape == "mixed":
        return _random_delta(graph, rng, num_ins=25, num_del=10)
    if shape == "insertion-only":
        return _random_delta(graph, rng, num_ins=25, num_del=0)
    if shape == "deletion-only":
        return _random_delta(graph, rng, num_ins=0, num_del=25)
    if shape == "source-goes-dangling":
        src = live[np.argmax(out_deg[live] >= 2)]
        return GraphDelta(deletions=_out_row(src))
    if shape == "dangling-source-gains-edges":
        src = rng.choice(dangling)
        targets = rng.choice(graph.num_nodes, size=6, replace=False)
        return GraphDelta(insertions=_new_edges([src], targets))
    if shape == "hub-source":
        hub = int(np.argmax(out_deg))
        targets = rng.choice(graph.num_nodes, size=4, replace=False)
        return GraphDelta(
            insertions=_new_edges([hub], targets),
            deletions=_out_row(hub)[:2],
        )
    assert shape == "one-row-many-entries"
    # several sources gain the same target: one row of Tᵀ gets them all
    target = int(rng.integers(graph.num_nodes))
    sources = rng.choice(np.concatenate([live[:4], dangling[:4]]), 8,
                         replace=False)
    return GraphDelta(insertions=_new_edges(sources, [target]))


@pytest.mark.parametrize(
    "shape",
    [
        "mixed",
        "insertion-only",
        "deletion-only",
        "source-goes-dangling",
        "dangling-source-gains-edges",
        "hub-source",
        "one-row-many-entries",
    ],
)
def test_derived_operator_is_bit_identical_to_cold_build(shape):
    graph = _random_graph(6, n=200, num_edges=1200, dangling_frac=0.4)
    rng = np.random.default_rng(6)
    delta = _shaped_delta(graph, rng, shape)
    assert len(delta)
    application = delta.apply(graph)

    cache = OperatorCache()
    cache.bundle_for(graph)  # parent resident
    spliced = cache.derive_for(application).transition_t
    cold = OperatorCache().bundle_for(application.after).transition_t

    assert spliced.shape == cold.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(spliced, name), getattr(cold, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert cache.derives == 1
    # the derived child is registered: a second request is a cache hit
    hits_before = cache.hits
    cache.derive_for(application)
    assert cache.hits == hits_before + 1


@pytest.mark.parametrize(
    "graph",
    [
        _random_graph(30, n=250, num_edges=1500, dangling_frac=0.4),
        _random_graph(31, n=300, num_edges=900, dangling_frac=0.6,
                      isolated_frac=0.1),
        WebGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        WebGraph.from_edges(5, [(0, 1), (0, 2), (0, 4)]),
        WebGraph.from_edges(5, []),
    ],
    ids=["random", "random-sparse", "no-dangling", "one-live-source",
         "edgeless"],
)
def test_restriction_equals_row_and_column_selection(graph):
    """``(Tᵀ)_SS``/``(Tᵀ)_DS`` are bitwise the fancy-indexed blocks."""
    bundle = OperatorCache().bundle_for(graph)
    tt = transition_matrix(graph).T.tocsr()
    s, d = bundle.non_dangling, bundle.dangling
    for got, want in (
        (bundle.tt_ss, tt[s][:, s].tocsr()),
        (bundle.tt_ds, tt[d][:, s].tocsr()),
    ):
        assert isinstance(got, sparse.csr_matrix)
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_derive_falls_back_to_cold_build_without_parent():
    graph = _random_graph(7, n=100, num_edges=500)
    rng = np.random.default_rng(7)
    application = _random_delta(graph, rng, 10, 5).apply(graph)
    cache = OperatorCache()  # parent never built
    bundle = cache.derive_for(application)
    assert cache.derives == 0
    cold = OperatorCache().bundle_for(application.after)
    assert np.array_equal(
        bundle.transition_t.data, cold.transition_t.data
    )


# ----------------------------------------------------------------------
# estimate_spam_mass(previous=) and the detector update
# ----------------------------------------------------------------------


def _small_world_delta(graph, rng):
    return _random_delta(graph, rng, num_ins=25, num_del=10)


def test_estimate_previous_path_matches_cold_estimate():
    graph = _random_graph(8, n=300, num_edges=1500, dangling_frac=0.4)
    rng = np.random.default_rng(8)
    core = np.sort(rng.choice(300, size=30, replace=False))
    previous = estimate_spam_mass(graph, core, gamma=0.85)
    application = _small_world_delta(graph, rng).apply(graph)

    updated = estimate_spam_mass(
        application, core, gamma=0.85, previous=previous
    )
    cold = estimate_spam_mass(application.after, core, gamma=0.85)
    assert np.abs(updated.pagerank - cold.pagerank).max() <= BOUND
    assert np.abs(updated.core_pagerank - cold.core_pagerank).max() <= BOUND


def test_estimate_previous_path_validates_inputs():
    graph = _random_graph(9, n=50, num_edges=200)
    rng = np.random.default_rng(9)
    core = [0, 1, 2]
    previous = estimate_spam_mass(graph, core, gamma=0.85)
    application = _random_delta(graph, rng, 5, 2).apply(graph)
    with pytest.raises(ValueError, match="DeltaApplication"):
        estimate_spam_mass(graph, core, gamma=0.85, previous=previous)
    with pytest.raises(ValueError, match="different"):
        estimate_spam_mass(
            application, core, gamma=0.5, previous=previous
        )
    with pytest.raises(ValueError, match="incremental engine"):
        estimate_spam_mass(
            application,
            core,
            gamma=0.85,
            previous=previous,
            transition_t=object(),
        )


def test_detector_update_equals_fresh_detect():
    graph = _random_graph(10, n=300, num_edges=1500, dangling_frac=0.4)
    rng = np.random.default_rng(10)
    core = np.sort(rng.choice(300, size=30, replace=False))
    previous = estimate_spam_mass(graph, core, gamma=0.85)
    detector = MassDetector(tau=0.5, rho=2.0)
    baseline = detector.detect(previous)

    application = _small_world_delta(graph, rng).apply(graph)
    updated_est = estimate_spam_mass(
        application, core, gamma=0.85, previous=previous
    )
    update = detector.update(baseline, updated_est)
    fresh = detector.detect(updated_est)

    assert np.array_equal(
        update.result.candidate_mask, fresh.candidate_mask
    )
    assert np.array_equal(
        update.result.eligible_mask, fresh.eligible_mask
    )
    flipped = np.flatnonzero(
        fresh.candidate_mask != baseline.candidate_mask
    )
    assert set(update.newly_flagged) | set(update.newly_cleared) == set(
        flipped
    )
    assert update.relabeled == len(flipped)


def test_detector_update_rejects_size_mismatch():
    graph = _random_graph(11, n=40, num_edges=150)
    est = estimate_spam_mass(graph, [0, 1, 2], gamma=0.85)
    detector = MassDetector(tau=0.5, rho=2.0)
    baseline = detector.detect(est)
    other = estimate_spam_mass(
        _random_graph(11, n=41, num_edges=150), [0, 1, 2], gamma=0.85
    )
    with pytest.raises(ValueError, match="nodes"):
        detector.update(baseline, other)


def test_reproduction_context_updated(small_ctx):
    rng = np.random.default_rng(21)
    delta = _random_delta(small_ctx.graph, rng, num_ins=40, num_del=15)
    ctx = small_ctx.updated(delta)

    assert ctx is not small_ctx
    assert ctx.gamma == small_ctx.gamma and ctx.rho == small_ctx.rho
    assert np.array_equal(ctx.core, small_ctx.core)
    assert ctx.graph.num_edges == small_ctx.graph.num_edges + 25

    cold = estimate_spam_mass(
        ctx.graph, ctx.core, gamma=ctx.gamma
    )
    assert np.abs(ctx.estimates.pagerank - cold.pagerank).max() <= BOUND
    expected_eligible = cold.scaled_pagerank() >= ctx.rho
    assert np.array_equal(ctx.eligible_mask, expected_eligible)


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------


def test_update_emits_incremental_telemetry(telemetry):
    graph = _random_graph(12, n=150, num_edges=800)
    rng = np.random.default_rng(12)
    stacked = _stacked_jumps(graph, rng)
    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    application = _random_delta(graph, rng, 15, 5).apply(graph)
    result = engine.update_many(application, base, stacked, tol=TOL)

    sink = telemetry.sink
    assert sink.span_count("solve:incremental") == 1
    assert sink.span_count("operator-derive") == 1
    events = sink.named("incremental.update")
    assert len(events) == 1
    assert events[0].attrs["sweeps"] == result.stats.sweeps
    assert events[0].attrs["pushes"] == result.stats.pushes
    assert telemetry.metrics.value("engine.incremental_updates") == 1
    assert telemetry.metrics.value("opcache.derives") == 1
    assert (
        telemetry.metrics.value("incremental.pushes")
        == result.stats.pushes
    )


def test_detector_update_emits_relabel_metrics(telemetry):
    graph = _random_graph(13, n=150, num_edges=800)
    rng = np.random.default_rng(13)
    core = np.sort(rng.choice(150, size=15, replace=False))
    est = estimate_spam_mass(graph, core, gamma=0.85)
    detector = MassDetector(tau=0.5, rho=2.0)
    baseline = detector.detect(est)
    application = _random_delta(graph, rng, 15, 5).apply(graph)
    updated_est = estimate_spam_mass(
        application, core, gamma=0.85, previous=est
    )
    update = detector.update(baseline, updated_est)
    assert telemetry.sink.span_count("detect:update") == 1
    assert (
        telemetry.metrics.value("detect.relabeled") == update.relabeled
    )


# ----------------------------------------------------------------------
# solution checkpoints (resume-as-previous)
# ----------------------------------------------------------------------


def test_solution_snapshot_round_trip(tmp_path):
    graph = _random_graph(14, n=80, num_edges=300)
    rng = np.random.default_rng(14)
    stacked = _stacked_jumps(graph, rng)
    batch = PagerankEngine().solve_many(graph, stacked, tol=TOL)
    fingerprint = graph.structural_fingerprint()

    path = save_solution(
        tmp_path,
        batch.scores,
        fingerprint=fingerprint,
        iterations=batch.iterations,
        extra={"labels": ["pagerank", "core"]},
    )
    assert path.name == "solution.npz"

    snap = load_solution(tmp_path, fingerprint=fingerprint)
    assert np.array_equal(snap.scores, batch.scores)
    assert np.array_equal(snap.iterations, batch.iterations)
    assert snap.fingerprint == fingerprint
    assert snap.meta["labels"] == ["pagerank", "core"]


def test_solution_snapshot_fingerprint_guard(tmp_path):
    graph = _random_graph(15, n=60, num_edges=250)
    rng = np.random.default_rng(15)
    stacked = _stacked_jumps(graph, rng)
    batch = PagerankEngine().solve_many(graph, stacked, tol=TOL)
    save_solution(
        tmp_path,
        batch.scores,
        fingerprint=graph.structural_fingerprint(),
    )
    mutated = GraphDelta(insertions=[(0, 59)]).apply(graph).after
    with pytest.raises(CheckpointError, match="fingerprint"):
        load_solution(
            tmp_path, fingerprint=mutated.structural_fingerprint()
        )


def test_solution_snapshot_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="no solution snapshot"):
        load_solution(tmp_path)


def _snapshot_scores(n=500):
    return np.random.default_rng(16).random((n, 2))


def test_solution_snapshot_members_are_stored(tmp_path):
    path = save_solution(tmp_path, _snapshot_scores(), fingerprint="fp")
    with zipfile.ZipFile(path) as archive:
        members = archive.infolist()
    assert {m.filename for m in members} == {
        "scores.npy", "iterations.npy", "residuals.npy", "meta.npy"
    }
    assert all(m.compress_type == zipfile.ZIP_STORED for m in members)


def test_solution_snapshot_reads_the_compressed_format(tmp_path):
    """Snapshots written with deflated members still load."""
    scores = _snapshot_scores()
    meta = {"fingerprint": "fp", "columns": 2, "labels": ["a", "b"]}
    with open(tmp_path / "solution.npz", "wb") as fh:
        np.savez_compressed(
            fh,
            scores=scores,
            iterations=np.array([40, 41], dtype=np.int64),
            residuals=np.array([1e-13, 2e-13]),
            meta=np.asarray(json.dumps(meta)),
        )
    snap = load_solution(tmp_path, fingerprint="fp")
    assert np.array_equal(snap.scores, scores)
    assert np.array_equal(snap.iterations, [40, 41])
    assert np.array_equal(snap.residuals, [1e-13, 2e-13])
    assert snap.meta == meta


def test_solution_snapshot_flipped_byte_raises(tmp_path):
    """A stored member's CRC-32 catches a one-byte flip in the scores."""
    path = save_solution(tmp_path, _snapshot_scores(), fingerprint="fp")
    with zipfile.ZipFile(path) as archive:
        member = archive.getinfo("scores.npy")
    raw = bytearray(path.read_bytes())
    # payload = local header (30 bytes) + name + extra field
    name_len, extra_len = struct.unpack_from(
        "<HH", raw, member.header_offset + 26
    )
    payload = member.header_offset + 30 + name_len + extra_len
    raw[payload + member.file_size - 9] ^= 0x01
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="CRC"):
        load_solution(tmp_path)
