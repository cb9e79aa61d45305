"""Differential and integration tests for the incremental engine.

The contract under test: a Gauss–Southwell residual-push update runs at
the *same tolerance* as a cold solve and agrees with it to ``10 * tol``
per node — for both the uniform-jump ``p`` and the core-jump ``p′`` —
across the solver-zoo regimes, for insertion-, deletion- and mixed
deltas, chained updates, and the layers stacked on top (operator
splicing, ``estimate_spam_mass(previous=)``, ``MassDetector.update``,
``ReproductionContext.updated``, solution checkpoints).
"""

import gc
import json
import struct
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from repro.perf.engine import _column_l1
from repro.perf.incremental import (
    DENSE_CROSSOVER,
    FLOOR_FRACTION,
    PushStats,
    seed_residual,
)
from repro.runtime import load_solution, save_solution
from repro.synth.huge import huge_good_core, iter_huge_edges
from repro.synth.scenario import WorldConfig
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


def _diffuse_update():
    """The escaping update of the test above, with its cold base."""
    graph = _random_graph(22, n=400, num_edges=2400)
    rng = np.random.default_rng(22)
    stacked = _stacked_jumps(graph, rng)
    application = _random_delta(graph, rng, num_ins=120, num_del=0).apply(
        graph
    )
    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    return base, engine.update_many(application, base, stacked, tol=TOL)


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
# the escape rule on later sweeps
# ----------------------------------------------------------------------


def _hub_graph(live_leaves):
    """Hosts 1–999 on a ring with a few random out-links each, and hub
    0 linking to 100 hosts: ring hosts, or hosts 1,000–1,099, which have
    no out-links, when ``live_leaves`` is false.  Host 1,100 is silent,
    so a delta giving it one link to the hub seeds a one-row frontier
    whose next frontier is the hub's 100 targets (the escape cutoff is
    32 rows here)."""
    rng = np.random.default_rng(31)
    ring = np.arange(1, 1000)
    edges = [(int(u), int(u % 999 + 1)) for u in ring]
    edges += [(int(u), int(v)) for u, v in zip(
        rng.choice(ring, 3000), rng.choice(ring, 3000)
    )]
    leaves = ring[::9][:100] if live_leaves else np.arange(1000, 1100)
    edges += [(0, int(v)) for v in leaves]
    edges += [(int(v), 0) for v in rng.choice(ring, 50)]
    return WebGraph.from_edges(1101, edges)


def _hub_update(live_leaves):
    graph = _hub_graph(live_leaves)
    rng = np.random.default_rng(32)
    stacked = _stacked_jumps(graph, rng)
    application = GraphDelta(insertions=[(1100, 0)]).apply(graph)
    engine = PagerankEngine()
    base = engine.solve_many(graph, stacked, tol=TOL)
    inc = engine.update_many(application, base, stacked, tol=TOL)
    cold = PagerankEngine().solve_many(application.after, stacked, tol=TOL)
    assert inc.converged.all()
    assert np.abs(inc.scores - cold.scores).max() <= BOUND
    return inc.stats


def test_a_live_wide_frontier_escapes_at_the_sweep_it_appears():
    """A narrow seed (the hub alone) whose next frontier is wide and
    alive escapes at sweep 1, without pushing that frontier first."""
    stats = _hub_update(live_leaves=True)
    assert stats.seed_frontier == 1
    assert stats.escapes == 1
    assert stats.sweeps == 1 + stats.escape_sweeps


def test_a_dead_wide_frontier_keeps_pushing():
    """The same shape onto dangling leaves: the wide frontier absorbs
    without scattering, so the update finishes on the push path."""
    stats = _hub_update(live_leaves=False)
    assert stats.escapes == 0
    assert stats.max_frontier == 100
    assert stats.sweeps == 2


# ----------------------------------------------------------------------
# push bookkeeping stays bitwise the dense loop
# ----------------------------------------------------------------------


def _dense_push_update(application, previous, *, damping, tol):
    """The push loop as a whole-graph computation: every sweep searches
    all ``n`` rows for its frontier, scatters with the ``n``-row product
    ``cT'[frontier]ᵀ @ delta`` and sums each column's residual with
    ``np.abs(x).sum(axis=0)``.  A test-only oracle for windows that
    never escape (it refuses to)."""
    c = damping
    after = application.after
    n, k = previous.scores.shape
    stats = PushStats()
    stats.seed_sources = len(application.touched_sources)
    residual, _ = seed_residual(application, previous.scores, damping=c)
    stats.seed_norms = np.abs(residual).sum(axis=0)
    out_deg = after.out_degree()

    def _scatter_rows(rows):
        counts = out_deg[rows]
        inv = np.zeros(len(rows))
        scattering = counts > 0
        inv[scattering] = c / counts[scattering]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return sparse.csr_matrix(
            (np.repeat(inv, counts), after.out_rows(rows), indptr),
            shape=(len(rows), n),
        )

    scores = previous.scores.astype(np.float64, copy=True)
    iterations = np.zeros(k, dtype=np.int64)
    residuals = np.zeros(k, dtype=np.float64)
    floor = tol * FLOOR_FRACTION / n
    dense_cutoff = max(32, n // DENSE_CROSSOVER)
    cols = np.arange(k)
    totals = np.abs(residual).sum(axis=0)
    sweep = 0
    prev_wide = False
    while len(cols):
        done = totals[cols] < tol
        if done.any():
            frozen = cols[done]
            scores[:, frozen] += residual[:, frozen]
            iterations[frozen] = sweep
            residuals[frozen] = totals[frozen]
            cols = cols[~done]
            if len(cols) == 0:
                break
        active_residual = residual[:, cols]
        act = np.flatnonzero(np.abs(active_residual).sum(axis=1) > floor)
        if len(act) == 0:
            totals[cols] = np.abs(active_residual).sum(axis=0)
            continue
        wide = len(act) >= dense_cutoff
        live_rows = int(np.count_nonzero(out_deg[act] > 0))
        if sweep == 0:
            stats.seed_frontier = len(act)
            stats.live_seed_frontier = live_rows
        assert not (wide and (prev_wide or live_rows >= dense_cutoff))
        prev_wide = wide
        delta = active_residual[act]
        scores[np.ix_(act, cols)] += delta
        residual[np.ix_(act, cols)] = 0.0
        residual[:, cols] += _scatter_rows(act).T @ delta
        totals[cols] = np.abs(residual[:, cols]).sum(axis=0)
        sweep += 1
        stats.sweeps = sweep
        stats.pushes += len(act)
        stats.max_frontier = max(stats.max_frontier, len(act))
        stats.colwork += int(out_deg[act].sum())

    touched = application.touched_sources
    seed_work = int(
        application.before.out_degree()[touched].sum()
        + out_deg[touched].sum()
    )
    stats.cold_work_estimate = int(
        float(np.mean(previous.iterations)) * after.num_edges
    )
    stats.speedup_estimate = stats.cold_work_estimate / max(
        stats.colwork + seed_work, 1
    )
    return scores, iterations, residuals, stats


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_push_only_windows_are_bitwise_the_dense_loop(columns):
    """Chained farm-churn windows (new links from silent hosts onto
    dangling leaves) never escape, and each returns exactly the dense
    loop's scores, iterations, residuals and stats.  The third column's
    core is host 0 alone, so its residual is small enough to freeze
    while the other columns still push."""
    graph = _random_graph(23, n=600, num_edges=1200, dangling_frac=0.7)
    rng = np.random.default_rng(24)
    stacked = np.column_stack([
        _stacked_jumps(graph, rng),
        scaled_core_jump_vector(graph.num_nodes, [0], 0.85),
    ])[:, :columns]
    engine = PagerankEngine()
    current = engine.solve_many(graph, stacked, tol=TOL)
    partial_freeze = False
    for _ in range(4):
        silent = np.flatnonzero(graph.out_degree() == 0)
        insertions = {
            (int(src), int(t))
            for src in rng.choice(silent, size=5, replace=False)
            for t in rng.choice(silent[silent != src], size=15,
                                replace=False)
        }
        application = GraphDelta(insertions=sorted(insertions)).apply(graph)
        scores, iterations, residuals, stats = _dense_push_update(
            application, current, damping=0.85, tol=TOL
        )
        current = engine.update_many(application, current, stacked, tol=TOL)
        assert current.stats.escapes == 0
        assert np.array_equal(current.scores, scores)
        assert np.array_equal(current.iterations, iterations)
        assert np.array_equal(current.residuals, residuals)
        assert current.stats.as_dict() == stats.as_dict()
        partial_freeze |= len(set(iterations.tolist())) > 1
        graph = application.after
    assert partial_freeze or columns < 3


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_push_windows_that_spread_are_bitwise_the_dense_loop(columns):
    """Chained windows whose pushes spread past the rows the seed
    landed on (new links from silent hosts onto live ones, in a sparse
    graph) never escape, and each returns exactly the dense loop's
    scores, iterations, residuals and stats: the norms over the rows
    the residual has reached are the whole ones.  The first two jump
    vectors reach every host, so two columns push together."""
    graph = _random_graph(23, n=600, num_edges=500, dangling_frac=0.7)
    rng = np.random.default_rng(24)
    n = graph.num_nodes
    weights = rng.random(n)
    stacked = np.column_stack([
        uniform_jump_vector(n),
        weights / weights.sum(),
        scaled_core_jump_vector(n, [0], 0.85),
    ])[:, :columns]
    engine = PagerankEngine()
    current = engine.solve_many(graph, stacked, tol=TOL)
    for _ in range(4):
        silent = np.flatnonzero(graph.out_degree() == 0)
        live = np.flatnonzero(graph.out_degree() > 0)
        insertions = {
            (int(src), int(t))
            for src in rng.choice(silent, size=2, replace=False)
            for t in rng.choice(live, size=2, replace=False)
        }
        application = GraphDelta(insertions=sorted(insertions)).apply(graph)
        scores, iterations, residuals, stats = _dense_push_update(
            application, current, damping=0.85, tol=TOL
        )
        current = engine.update_many(application, current, stacked, tol=TOL)
        assert current.stats.escapes == 0
        assert current.stats.sweeps >= 3
        assert np.array_equal(current.scores, scores)
        assert np.array_equal(current.iterations, iterations)
        assert np.array_equal(current.residuals, residuals)
        assert current.stats.as_dict() == stats.as_dict()
        graph = application.after


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 20_000),
    columns=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_l1_is_bitwise_the_plain_sum(rows, columns, seed):
    """The solver's column-norm helper equals ``np.abs(x).sum(axis=0)``
    bit for bit on C-contiguous blocks of 1 to 8 columns whose entries
    span 40 decades (and on blocks longer than numpy's 8,192-element
    reduction buffer)."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, columns)) * 10.0 ** rng.integers(
        -20, 21, size=(rows, columns)
    )
    assert block.flags.c_contiguous
    assert np.array_equal(_column_l1(block), np.abs(block).sum(axis=0))


@settings(max_examples=200, deadline=None)
@given(
    rows=st.integers(1, 20_000),
    columns=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    share=st.floats(0.0, 1.0),
)
def test_column_l1_over_the_support_is_the_whole_sum(
    rows, columns, seed, share
):
    """With two or more columns a block is summed row by row, and a zero
    row adds nothing: the norms over an ascending superset of the
    non-zero rows (the push's support) are the whole block's, bit for
    bit."""
    rng = np.random.default_rng(seed)
    block = np.zeros((rows, columns))
    nonzero = rng.random(rows) < share
    block[nonzero] = rng.standard_normal(
        (int(nonzero.sum()), columns)
    ) * 10.0 ** rng.integers(-20, 21, size=(int(nonzero.sum()), columns))
    support = np.flatnonzero(nonzero | (rng.random(rows) < 0.1))
    assert np.array_equal(_column_l1(block[support]), _column_l1(block))


# ----------------------------------------------------------------------
# accuracy over a long stream
# ----------------------------------------------------------------------


def _churn_window(graph, active, rng, events=14, delete_share=0.4):
    """One window of random churn: about ``delete_share`` of the events
    delete distinct existing edges, the rest insert distinct new edges
    between ``active`` hosts."""
    n = graph.num_nodes
    # sorted: CSR rows ascend, and each row's targets are sorted
    keys = np.repeat(np.arange(n), graph.out_degree()) * n + graph.indices
    num_del = int((rng.random(events) < delete_share).sum())
    gone = rng.choice(keys, size=num_del, replace=False)
    insertions = set()
    while len(insertions) < events - num_del:
        u, v = (int(x) for x in rng.choice(active, size=2))
        key = u * n + v
        pos = min(int(np.searchsorted(keys, key)), len(keys) - 1)
        if u != v and keys[pos] != key:
            insertions.add(key)
    return GraphDelta(
        insertions=[divmod(key, n) for key in sorted(insertions)],
        deletions=[divmod(int(key), n) for key in gone],
    )


def test_a_long_stream_does_not_drift_from_the_cold_solution():
    """60 chained windows of 14 churn events on a 5k-host world of the
    1M benchmark's shape.  Every window escapes, and the escape solves
    the window's own system from the current scores, so the error a
    window inherits does not add up: after every 10th window the warm
    scores are within 3·tol (L1, per column) of a cold solve.  A warm
    solve of only the window's delta, as if the previous scores were
    exact, drifts past that after 30 windows on this stream."""
    config = WorldConfig(
        11, num_base_hosts=5000, mean_outdegree=6.0,
        directory_size=500, gov_size=500,
    )
    graph = WebGraph.from_edges(
        config.num_base_hosts, np.concatenate(list(iter_huge_edges(config)))
    )
    n = graph.num_nodes
    stacked = np.stack([
        uniform_jump_vector(n),
        scaled_core_jump_vector(n, huge_good_core(config), 0.85),
    ], axis=1)
    active = np.flatnonzero(~graph.isolated_mask())
    rng = np.random.default_rng(12)
    engine = PagerankEngine()
    current = engine.solve_many(graph, stacked, tol=TOL)
    for window in range(1, 61):
        application = _churn_window(graph, active, rng).apply(graph)
        current = engine.update_many(application, current, stacked, tol=TOL)
        assert current.stats.escapes == 1
        graph = application.after
        if window % 10 == 0:
            cold = PagerankEngine().solve_many(graph, stacked, tol=TOL)
            drift = np.abs(current.scores - cold.scores).sum(axis=0)
            assert (drift <= 3 * TOL).all(), (window, drift)


# ----------------------------------------------------------------------
# operator splice
# ----------------------------------------------------------------------


def _out_row(graph, src):
    """The edges out of ``src``."""
    row = graph.indices[graph.indptr[src]:graph.indptr[src + 1]]
    return [(int(src), int(v)) for v in row]


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

    if shape == "mixed":
        return _random_delta(graph, rng, num_ins=25, num_del=10)
    if shape == "insertion-only":
        return _random_delta(graph, rng, num_ins=25, num_del=0)
    if shape == "deletion-only":
        return _random_delta(graph, rng, num_ins=0, num_del=25)
    if shape == "source-goes-dangling":
        src = live[np.argmax(out_deg[live] >= 2)]
        return GraphDelta(deletions=_out_row(graph, src))
    if shape == "dangling-source-gains-edges":
        src = rng.choice(dangling)
        targets = rng.choice(graph.num_nodes, size=6, replace=False)
        return GraphDelta(insertions=_new_edges([src], targets))
    if shape == "hub-source":
        hub = int(np.argmax(out_deg))
        targets = rng.choice(graph.num_nodes, size=4, replace=False)
        return GraphDelta(
            insertions=_new_edges([hub], targets),
            deletions=_out_row(graph, hub)[:2],
        )
    if shape == "crosses-both-ways":
        # sources leave S and others join it in one delta: their rows
        # switch blocks with the entries they keep, and every column
        # after the first of them is renumbered
        leaving = live[np.argsort(out_deg[live], kind="stable")[:3]]
        joining = rng.choice(dangling, size=3, replace=False)
        targets = rng.choice(graph.num_nodes, size=4, replace=False)
        return GraphDelta(
            insertions=_new_edges(joining, targets),
            deletions=[e for src in leaving for e in _out_row(graph, src)],
        )
    if shape == "first-and-last-leave-s":
        # the sources at S positions 0 and |S| - 1 lose every out-link
        return GraphDelta(
            deletions=_out_row(graph, live[0]) + _out_row(graph, live[-1])
        )
    if shape == "joins-below-and-above-s":
        # dangling hosts before the first and after the last S position
        # gain out-links
        joining = [dangling[0], dangling[-1]]
        assert joining[0] < live[0] and joining[1] > live[-1]
        targets = rng.choice(graph.num_nodes, size=4, replace=False)
        return GraphDelta(insertions=_new_edges(joining, targets))
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
        "crosses-both-ways",
        "first-and-last-leave-s",
        "joins-below-and-above-s",
    ],
)
def test_derived_operator_is_bit_identical_to_cold_build(shape):
    graph = _random_graph(6, n=200, num_edges=1200, dangling_frac=0.4)
    rng = np.random.default_rng(6)
    if shape == "joins-below-and-above-s":
        # S starts after host 1 and ends before host n - 2
        n = graph.num_nodes
        graph = GraphDelta(deletions=[
            edge for src in (0, 1, n - 2, n - 1)
            for edge in _out_row(graph, src)
        ]).apply(graph).after
    delta = _shaped_delta(graph, rng, shape)
    assert len(delta)
    application = delta.apply(graph)
    if shape == "crosses-both-ways":
        before = graph.dangling_mask()[application.touched_sources]
        after = application.after.dangling_mask()[
            application.touched_sources
        ]
        assert (before & ~after).any() and (~before & after).any()
    s_before = np.flatnonzero(~graph.dangling_mask())
    s_after = np.flatnonzero(~application.after.dangling_mask())
    if shape == "first-and-last-leave-s":
        assert s_after[0] > s_before[0] and s_after[-1] < s_before[-1]
    if shape == "joins-below-and-above-s":
        assert s_after[0] < s_before[0] and s_after[-1] > s_before[-1]

    cache = OperatorCache()
    cache.bundle_for(graph)  # parent resident
    spliced = cache.derive_for(application)
    cold = OperatorCache().bundle_for(application.after)

    for name in ("non_dangling", "dangling"):
        assert np.array_equal(getattr(spliced, name), getattr(cold, name))
    for got, want in ((spliced.tt_ss, cold.tt_ss), (spliced.tt_ds, cold.tt_ds)):
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            have, ref = getattr(got, name), getattr(want, name)
            assert have.dtype == ref.dtype
            assert have.tobytes() == ref.tobytes()
    assert cache.derives == 1
    # the derived child is registered: a second request is a cache hit
    hits_before = cache.hits
    cache.derive_for(application)
    assert cache.hits == hits_before + 1


def _assert_bundles_equal(got, want):
    """Every array of two bundles equal, dtypes and bytes."""
    for name in ("dangling_mask", "non_dangling", "dangling"):
        have, ref = getattr(got, name), getattr(want, name)
        assert have.dtype == ref.dtype, name
        assert have.tobytes() == ref.tobytes(), name
    for block in ("tt_ss", "tt_ds"):
        have, ref = getattr(got, block), getattr(want, block)
        assert have.shape == ref.shape, block
        for name in ("indptr", "indices", "data"):
            a, b = getattr(have, name), getattr(ref, name)
            assert a.dtype == b.dtype, (block, name)
            assert a.tobytes() == b.tobytes(), (block, name)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_derived_operator_equals_a_cold_build_property(data):
    """On random graphs, a delta that empties some sources (they leave
    S), gives dangling hosts out-links (they join S), deletes every
    in-link of one host (a row of Tᵀ emptied), links several sources to
    one host (a row gaining entries from each) and edits a few random
    edges derives every bundle array a cold build makes."""
    n = data.draw(st.integers(2, 24), label="n")
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    graph = WebGraph.from_edges(
        n, data.draw(st.lists(pairs, max_size=80), label="edges")
    )
    existing = _edge_set(graph)
    live = np.flatnonzero(graph.out_degree() > 0).tolist()
    dangling = np.flatnonzero(graph.out_degree() == 0).tolist()
    nodes = st.integers(0, n - 1)
    deletions = set()
    for src in data.draw(st.sets(st.sampled_from(live)) if live
                         else st.just(set()), label="leaving"):
        deletions.update(_out_row(graph, src))
    emptied = data.draw(st.none() | nodes, label="emptied row")
    if emptied is not None:
        deletions.update(e for e in existing if e[1] == emptied)
    if existing:
        deletions.update(data.draw(
            st.sets(st.sampled_from(sorted(existing)), max_size=6),
            label="deleted",
        ))
    insertions = set()
    for src in data.draw(st.sets(st.sampled_from(dangling)) if dangling
                         else st.just(set()), label="joining"):
        insertions.update((src, v) for v in data.draw(
            st.sets(nodes, min_size=1, max_size=4), label="targets"
        ))
    target = data.draw(nodes, label="gaining row")
    insertions.update((u, target) for u in data.draw(
        st.sets(nodes, max_size=6), label="sources"
    ))
    insertions.update(data.draw(st.sets(pairs, max_size=6), label="new"))
    insertions = {
        e for e in insertions if e[0] != e[1] and e not in existing
    }
    delta = GraphDelta(sorted(insertions), sorted(deletions))
    application = delta.apply(graph)
    derived = OperatorCache().bundle_for(graph).derive(
        application, application.after.structural_fingerprint()
    )
    _assert_bundles_equal(
        derived, OperatorCache().bundle_for(application.after)
    )


RESTRICTION_GRAPHS = pytest.mark.parametrize(
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


@RESTRICTION_GRAPHS
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


@RESTRICTION_GRAPHS
def test_transition_t_is_assembled_bitwise_from_the_blocks(graph):
    """``Tᵀ``, assembled from the two blocks on first use, is bitwise
    (arrays and dtypes) what transposing ``T`` with scipy gives."""
    bundle = OperatorCache().bundle_for(graph)
    assert bundle._transition_t is None
    got = bundle.transition_t
    want = transition_matrix(graph).T.tocsr()
    assert got is bundle.transition_t  # kept after the first use
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_estimate_and_update_paths_never_assemble_the_transpose():
    graph = _random_graph(12, n=300, num_edges=1500, dangling_frac=0.4)
    rng = np.random.default_rng(12)
    core = np.sort(rng.choice(300, size=30, replace=False))
    engine = PagerankEngine()
    previous = estimate_spam_mass(graph, core, engine=engine)
    application = _random_delta(graph, rng, 10, 5).apply(graph)
    estimate_spam_mass(application, core, engine=engine, previous=previous)
    assert engine.cache.derives == 1
    bundles = [engine.bundle(graph), engine.bundle(application.after)]
    assert all(bundle._transition_t is None for bundle in bundles)
    assert engine.operator(graph) is bundles[0].transition_t


def test_derive_falls_back_to_cold_build_without_parent():
    graph = _random_graph(7, n=100, num_edges=500)
    rng = np.random.default_rng(7)
    application = _random_delta(graph, rng, 10, 5).apply(graph)
    cache = OperatorCache()  # parent never built
    bundle = cache.derive_for(application)
    assert cache.derives == 0
    cold = OperatorCache().bundle_for(application.after)
    for got, want in ((bundle.tt_ss, cold.tt_ss), (bundle.tt_ds, cold.tt_ds)):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


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


def test_solution_snapshot_that_is_not_an_archive_closes_its_file(
    tmp_path,
):
    """A snapshot that starts like a zip archive but is not one raises
    CheckpointError and leaves no file open behind it."""
    (tmp_path / "solution.npz").write_bytes(b"PK\x03\x04 not a zip archive")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_solution(tmp_path)
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


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
