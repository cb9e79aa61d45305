"""Differential tests: every solver backend computes the same PageRank.

The repo carries five ways to solve ``(I − c Tᵀ) p = (1 − c) v`` —
Jacobi, Gauss–Seidel, the power method, a direct sparse solve,
BiCGSTAB — plus the batched block kernel of :mod:`repro.perf.engine`,
on an in-memory graph or on the operator gathered from a shard store
(:mod:`repro.perf.sharded`).
The paper's guarantees (Theorems 1–3, the mass identities) hold for
*the* solution, so the backends must agree with each other to solver
tolerance on any graph.  These tests pin that agreement on a seeded zoo
of synthetic graphs chosen to hit the structural regimes of Section
4.1: dangling-heavy (the paper's host graph has 66.4% hosts without
outlinks), isolated-heavy, cyclic, star-shaped, edgeless, and
single-node.

The sharded backend is held to a *stronger* standard than solver
tolerance: for every zoo graph and every shard count in
``SHARD_COUNTS`` ({1, 2, 7, 32} by default, overridable through the
``REPRO_TEST_SHARDS`` environment variable — the CI ``scale`` job
matrixes over it), the gathered operator is the in-memory one array
for array, and scores, iteration counts, residuals and convergence
flags must be **bitwise identical** to the in-memory solve — for every
solver, and for solves cut off by ``max_iter`` before they converge as
well as for converged ones.  A store and the in-memory graph of the same edges
share one operator-cache entry, so each backend solves on an engine of
its own: a shared engine would hand the store the in-memory operator.
"""

import os
import threading

import numpy as np
import pytest

from repro.core.pagerank import (
    pagerank,
    pagerank_from_matrix,
    scaled_core_jump_vector,
    uniform_jump_vector,
)
from repro.core.solvers import SOLVERS, solve
from repro.errors import ConvergenceError
from repro.graph.ops import transition_matrix
from repro.graph.sharded import partition_graph
from repro.graph.webgraph import WebGraph
from repro.perf import OperatorBundle, PagerankEngine

DAMPING = 0.85
TOL = 1e-12
AGREEMENT = 1e-8

#: Shard counts of the bitwise-parity sweep.  The CI ``scale`` job sets
#: ``REPRO_TEST_SHARDS`` to pin a single count per matrix leg; the
#: default sweep covers trivial (1), even (2), uneven (7) and
#: more-shards-than-some-graphs-have-rows (32).
SHARD_COUNTS = [
    int(part)
    for part in os.environ.get("REPRO_TEST_SHARDS", "1,2,7,32").split(",")
    if part.strip()
]

def _random_graph(
    seed: int,
    n: int,
    num_edges: int,
    *,
    dangling_frac: float = 0.0,
    isolated_frac: float = 0.0,
) -> WebGraph:
    """A seeded random graph with forced dangling/isolated fractions."""
    rng = np.random.default_rng(seed)
    nodes = np.arange(n)
    isolated = rng.choice(
        nodes, size=int(isolated_frac * n), replace=False
    )
    allowed = np.setdiff1d(nodes, isolated)
    dangling = rng.choice(
        allowed,
        size=min(int(dangling_frac * n), max(len(allowed) - 2, 0)),
        replace=False,
    )
    sources = np.setdiff1d(allowed, dangling)
    if len(sources) == 0 or len(allowed) == 0:
        return WebGraph.from_edges(n, [])
    edges = zip(
        rng.choice(sources, size=num_edges),
        rng.choice(allowed, size=num_edges),
    )
    return WebGraph.from_edges(n, list(edges))


def _graph_zoo():
    """~10 seeded graphs spanning the structural regimes."""
    zoo = {
        "plain-sparse": _random_graph(11, 300, 900),
        "plain-dense": _random_graph(12, 150, 2_500),
        "dangling-heavy": _random_graph(13, 300, 700, dangling_frac=0.7),
        "dangling-extreme": _random_graph(14, 200, 300, dangling_frac=0.9),
        "isolated-heavy": _random_graph(
            15, 300, 500, isolated_frac=0.4
        ),
        "mixed-pathological": _random_graph(
            16, 250, 400, dangling_frac=0.4, isolated_frac=0.3
        ),
        "tiny": _random_graph(17, 8, 14),
        "cycle": WebGraph.from_edges(
            60, [(i, (i + 1) % 60) for i in range(60)]
        ),
        "star": WebGraph.from_edges(80, [(i, 0) for i in range(1, 80)]),
        "edgeless": WebGraph.from_edges(40, []),
        "single-node": WebGraph.from_edges(1, []),
        "two-node": WebGraph.from_edges(2, [(0, 1)]),
    }
    return sorted(zoo.items())


ZOO = _graph_zoo()


@pytest.fixture(scope="module", params=[name for name, _ in ZOO])
def zoo_graph(request):
    return dict(ZOO)[request.param]


@pytest.fixture(scope="module")
def oracle(zoo_graph):
    """The direct sparse solve — exact up to linear-algebra round-off."""
    return pagerank(zoo_graph, method="direct", tol=TOL).scores


@pytest.mark.parametrize("method", ["jacobi", "gauss_seidel", "bicgstab"])
def test_iterative_solvers_match_direct(zoo_graph, oracle, method):
    scores = pagerank(zoo_graph, method=method, tol=TOL).scores
    assert np.abs(scores - oracle).sum() < AGREEMENT


def test_bicgstab_reports_iterations_and_its_l1_verdict(zoo_graph):
    """SciPy's BiCGSTAB reports the iterations it ran, and
    ``converged`` means the module's L1 criterion: the residual of the
    linear system is below ``tol``."""
    n = zoo_graph.num_nodes
    v = uniform_jump_vector(n)
    result = pagerank(zoo_graph, method="bicgstab", tol=TOL)
    transition_t = transition_matrix(zoo_graph).T.tocsr()
    residual = np.abs(
        result.scores - DAMPING * (transition_t @ result.scores)
        - (1.0 - DAMPING) * v
    ).sum()
    assert result.iterations > 0
    assert result.converged
    assert result.residual < TOL and residual < TOL


def test_power_matches_normalized_direct(zoo_graph, oracle):
    # the power method iterates the eigenvector formulation, whose
    # fixed point is the *normalized* linear solution
    scores = pagerank(zoo_graph, method="power", tol=TOL).scores
    assert np.abs(
        scores / scores.sum() - oracle / oracle.sum()
    ).sum() < AGREEMENT


def test_batched_engine_matches_direct(zoo_graph, oracle):
    engine = PagerankEngine()
    batch = engine.solve_many(zoo_graph, [None], damping=DAMPING, tol=TOL)
    assert batch.converged.all()
    assert np.abs(batch.scores[:, 0] - oracle).sum() < AGREEMENT


def test_solve_many_columns_match_single_solves(zoo_graph):
    n = zoo_graph.num_nodes
    rng = np.random.default_rng(99)
    arbitrary = rng.random(n)
    arbitrary /= arbitrary.sum() * 2.0  # unnormalized, norm 0.5
    vectors = [
        uniform_jump_vector(n),
        scaled_core_jump_vector(n, list(range(min(3, n))), gamma=0.85),
        arbitrary,
    ]
    engine = PagerankEngine()
    batch = engine.solve_many(
        zoo_graph, np.stack(vectors, axis=1), damping=DAMPING, tol=TOL
    )
    transition_t = engine.operator(zoo_graph)
    for j, v in enumerate(vectors):
        single = solve(
            "jacobi", transition_t, v, damping=DAMPING, tol=TOL
        )
        assert np.abs(batch.scores[:, j] - single.scores).sum() < AGREEMENT
        # same convergence verdict, same residual scale
        assert bool(batch.converged[j]) == single.converged


def test_solve_many_agrees_across_jump_scales(zoo_graph):
    # the kernel must be exactly linear: solving kv equals k * solve(v)
    n = zoo_graph.num_nodes
    v = uniform_jump_vector(n)
    engine = PagerankEngine()
    batch = engine.solve_many(
        zoo_graph, np.stack([v, 0.25 * v], axis=1), tol=TOL
    )
    assert np.abs(
        batch.scores[:, 1] - 0.25 * batch.scores[:, 0]
    ).sum() < AGREEMENT


def test_engine_single_solve_equals_pagerank(zoo_graph):
    """``pagerank()`` is the scalar solve over an engine's cached
    ``Tᵀ``: a solve on a fresh engine's operator gives its bits."""
    via_engine = pagerank_from_matrix(
        PagerankEngine().operator(zoo_graph),
        uniform_jump_vector(zoo_graph.num_nodes),
        tol=TOL,
    )
    via_api = pagerank(zoo_graph, tol=TOL)
    assert np.array_equal(via_engine.scores, via_api.scores)
    assert via_engine.iterations == via_api.iterations


def test_operator_cache_returns_equivalent_matrix(zoo_graph):
    engine = PagerankEngine()
    cached = engine.operator(zoo_graph)
    rebuilt = transition_matrix(zoo_graph).T.tocsr()
    assert (cached != rebuilt).nnz == 0


# ---------------------------------------------------------------------------
# sharded backend: bitwise parity with the in-memory block kernel
# ---------------------------------------------------------------------------


def test_zero_node_graph_is_a_typed_error():
    from repro.errors import EmptyGraphError

    with pytest.raises(EmptyGraphError):
        WebGraph.from_edges(0, [])


@pytest.fixture(scope="module")
def sharded_variants(zoo_graph, tmp_path_factory):
    """One persisted store per shard count, all of the same zoo graph."""
    root = tmp_path_factory.mktemp("shard-zoo")
    return {
        k: partition_graph(zoo_graph, root / f"k{k}", num_shards=k)
        for k in SHARD_COUNTS
    }


def test_sharded_fingerprint_matches_memory(zoo_graph, sharded_variants):
    # the manifest fingerprint composes from per-shard digests, yet must
    # name the same edge set as the in-memory graph for ANY partition
    expected = zoo_graph.structural_fingerprint()
    for store in sharded_variants.values():
        assert store.structural_fingerprint() == expected


def test_sharded_round_trip_is_bitwise_identical(zoo_graph, sharded_variants):
    for store in sharded_variants.values():
        back = store.to_webgraph()
        assert np.array_equal(back.indptr, zoo_graph.indptr)
        assert np.array_equal(back.indices, zoo_graph.indices)


def _parity_vectors(n):
    rng = np.random.default_rng(4242)
    arbitrary = rng.random(n)
    arbitrary /= arbitrary.sum() * 2.0
    core = list(range(min(3, n)))
    return np.stack(
        [
            uniform_jump_vector(n),
            scaled_core_jump_vector(n, core, gamma=0.85),
            arbitrary,
        ],
        axis=1,
    )


#: Iteration cap that cuts most parity solves short of ``TOL``: across
#: the zoo it yields converged, mixed and unconverged batches.
CUT_OFF = 5


def _solves_bitwise_equal(a, b) -> bool:
    return (
        np.array_equal(a.scores, b.scores)
        and np.array_equal(a.iterations, b.iterations)
        and np.array_equal(a.residuals, b.residuals)
        and np.array_equal(a.converged, b.converged)
    )


def _convergence_error(graph, vectors):
    """The message of the checked cut-off solve's error, or ``None``."""
    engine = PagerankEngine()
    try:
        engine.solve_many(graph, vectors, tol=TOL, max_iter=CUT_OFF)
    except ConvergenceError as exc:
        return str(exc)
    return None


def _gathered(store):
    """An engine of the store's own, with the store's operator gathered
    into its cache (a miss, not the in-memory graph's entry)."""
    engine = PagerankEngine()
    engine.bundle(store)
    assert engine.cache.misses == 1
    return engine


def test_shard_blocks_are_the_in_memory_rows(
    zoo_graph, sharded_variants, assert_same_operator
):
    """Each shard's rows of the gathered ``(Tᵀ)_SS``/``(Tᵀ)_DS`` are
    the in-memory rows: the bundle gathered from a store of any width
    is :meth:`OperatorBundle.build`'s, array for array and dtype for
    dtype."""
    built = OperatorBundle.build(zoo_graph, "built")
    for k, store in sharded_variants.items():
        gathered = OperatorBundle.gather(store, "gathered")
        assert_same_operator(gathered, built, k)


def test_sharded_solve_many_bitwise_equal(zoo_graph, sharded_variants):
    """Both backends run one kernel on one operator, so every
    diagnostic matches bitwise: for converged solves and for solves cut
    off at ``max_iter`` — which, checked, raise the same error naming
    the same columns."""
    vectors = _parity_vectors(zoo_graph.num_nodes)
    for max_iter in (10_000, CUT_OFF):
        reference = PagerankEngine().solve_many(
            zoo_graph, vectors, damping=DAMPING, tol=TOL,
            max_iter=max_iter, check=False,
        )
        for k, store in sharded_variants.items():
            batch = _gathered(store).solve_many(
                store, vectors, damping=DAMPING, tol=TOL,
                max_iter=max_iter, check=False,
            )
            assert _solves_bitwise_equal(batch, reference), (k, max_iter)
    cut = PagerankEngine().solve_many(
        zoo_graph, vectors, tol=TOL, max_iter=CUT_OFF, check=False
    )
    unconverged = [f"col{j}" for j in np.flatnonzero(~cut.converged)]
    expected = _convergence_error(zoo_graph, vectors)
    if unconverged:
        assert ", ".join(unconverged) in expected
    else:
        assert expected is None
    for k, store in sharded_variants.items():
        got = _convergence_error(store, vectors)
        assert got == expected, k


def test_sharded_single_solve_bitwise_equal(zoo_graph, sharded_variants):
    """Every scalar solver on a store's gathered ``Tᵀ`` is bitwise the
    in-memory solve, method by method."""
    v = uniform_jump_vector(zoo_graph.num_nodes)
    for method in SOLVERS:
        reference = pagerank_from_matrix(
            PagerankEngine().operator(zoo_graph), v, tol=TOL,
            method=method, raise_on_divergence=False,
        )
        for k, store in sharded_variants.items():
            result = pagerank_from_matrix(
                _gathered(store).operator(store), v, tol=TOL,
                method=method, raise_on_divergence=False,
            )
            assert np.array_equal(result.scores, reference.scores), (
                k, method,
            )
            assert result.iterations == reference.iterations, (k, method)
            assert result.residual == reference.residual, (k, method)
            assert result.converged == reference.converged, (k, method)
            assert result.method == reference.method, (k, method)


def test_estimate_spam_mass_backend_parity(zoo_graph, sharded_variants):
    from repro.core.mass import estimate_spam_mass

    core = list(range(min(3, zoo_graph.num_nodes)))
    reference = estimate_spam_mass(
        zoo_graph, core, tol=TOL, engine=PagerankEngine()
    )
    for k, store in sharded_variants.items():
        estimates = estimate_spam_mass(
            store, core, tol=TOL, engine=_gathered(store)
        )
        assert np.array_equal(estimates.pagerank, reference.pagerank), k
        assert np.array_equal(
            estimates.core_pagerank, reference.core_pagerank
        ), k
        assert np.array_equal(estimates.absolute, reference.absolute), k
        assert np.array_equal(estimates.relative, reference.relative), k


# ---------------------------------------------------------------------------
# threaded sweeps: the same bits as inline ones
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threads", [2, 3])
def test_threaded_sweeps_are_bitwise_inline(
    zoo_graph, sharded_variants, threads, sweep_threads, monkeypatch
):
    """Row blocks on a thread pool give every solve the inline bits, in
    memory and at every shard width, converged or cut off."""
    from repro.perf import engine as perf_engine

    vectors = _parity_vectors(zoo_graph.num_nodes)

    def solves():
        out = []
        for max_iter in (10_000, CUT_OFF):
            for graph in (zoo_graph, *sharded_variants.values()):
                out.append(PagerankEngine().solve_many(
                    graph, vectors, tol=TOL, max_iter=max_iter, check=False,
                ))
        return out

    sweep_threads(1)
    inline = solves()
    sweep_threads(threads)
    ran_on = set()
    product = perf_engine._block_product

    def spy(block, z, out):
        ran_on.add(threading.get_ident())
        product(block, z, out)

    monkeypatch.setattr(perf_engine, "_block_product", spy)
    threaded = solves()
    for a, b in zip(inline, threaded):
        assert _solves_bitwise_equal(a, b)
    if zoo_graph.num_edges:
        assert ran_on and threading.get_ident() not in ran_on


# ---------------------------------------------------------------------------
# the block BiCGSTAB kernel: within c·tol of the exact solution
# ---------------------------------------------------------------------------


def _lu(graph, vectors):
    """Each column's direct sparse LU solve."""
    transition_t = transition_matrix(graph).T.tocsr()
    return np.stack(
        [
            solve("direct", transition_t, vectors[:, j], damping=DAMPING,
                  tol=TOL).scores
            for j in range(vectors.shape[1])
        ],
        axis=1,
    )


def _kernel(graph, vectors, x0=None, max_iter=10_000):
    from repro.perf.engine import _block_bicgstab

    return _block_bicgstab(
        PagerankEngine().bundle(graph), vectors, damping=DAMPING, tol=TOL,
        max_iter=max_iter,
        labels=[f"col{j}" for j in range(vectors.shape[1])], x0=x0,
    )


def _assert_within_c_tol(batch, exact):
    """Every column converged and lies within ``c·tol`` (L1) of
    ``exact``."""
    assert batch.converged.all()
    errors = np.abs(batch.scores - exact).sum(axis=0)
    assert (errors <= DAMPING * TOL).all(), errors


def _kernel_accuracy(graph):
    """Cold and warm (from a perturbed solution) solves of 1, 2 and 3
    stacked columns."""
    vectors = _parity_vectors(graph.num_nodes)
    exact = _lu(graph, vectors)
    rng = np.random.default_rng(7)
    for k in (1, 2, 3):
        cold = PagerankEngine().solve_many(
            graph, vectors[:, :k], damping=DAMPING, tol=TOL
        )
        _assert_within_c_tol(cold, exact[:, :k])
        start = exact[:, :k] * (1.0 + 1e-3 * rng.standard_normal((
            graph.num_nodes, k,
        )))
        warm = _kernel(graph, np.ascontiguousarray(vectors[:, :k]),
                       x0=start)
        assert warm.scores is start
        _assert_within_c_tol(warm, exact[:, :k])


def test_kernel_lands_within_c_tol_of_lu(zoo_graph):
    _kernel_accuracy(zoo_graph)


def test_kernel_lands_within_c_tol_of_lu_on_table1():
    from repro.datasets import figure2_graph

    _kernel_accuracy(figure2_graph().graph)


#: Ways to force the kernel off BiCGSTAB: the inner product that
#: comes back 0 (its call number: ρ at the start, r̂ᵀv and tᵀs in the
#: first step), or an a-priori sweep bound of 2 products.
FALLBACKS = ["rho", "alpha", "omega", "bound"]


def _force(fallback, monkeypatch):
    """Force ``fallback``; returns the list the Jacobi finish appends
    to whenever it runs."""
    import itertools

    from repro.perf import engine as perf_engine

    if fallback == "bound":
        monkeypatch.setattr(
            perf_engine, "_sweep_bound",
            lambda q0, damping, bar: np.full(len(q0), 2.0),
        )
    else:
        real, calls = perf_engine._dot, itertools.count()
        zeroed = FALLBACKS.index(fallback)

        def dot(a, b):
            if next(calls) == zeroed:
                return np.zeros(a.shape[1])
            return real(a, b)

        monkeypatch.setattr(perf_engine, "_dot", dot)
    finished = []
    jacobi = perf_engine._BlockSolve.jacobi

    def spy(self):
        finished.append(len(self.pending))
        jacobi(self)

    monkeypatch.setattr(perf_engine._BlockSolve, "jacobi", spy)
    return finished


@pytest.mark.parametrize("fallback", FALLBACKS)
def test_kernel_fallbacks_converge_bitwise_threaded(
    zoo_graph, fallback, sweep_threads, monkeypatch
):
    """A breakdown (an inner product of 0) or a passed a-priori sweep
    bound finishes the column with Jacobi sweeps: still within
    ``c·tol`` of LU, and bitwise the same inline and on 2 threads."""
    vectors = _parity_vectors(zoo_graph.num_nodes)
    exact = _lu(zoo_graph, vectors)
    solves = []
    for threads in (1, 2):
        sweep_threads(threads)
        with monkeypatch.context() as patch:
            finished = _force(fallback, patch)
            solves.append(PagerankEngine().solve_many(
                zoo_graph, vectors, damping=DAMPING, tol=TOL,
            ))
        _assert_within_c_tol(solves[-1], exact)
        if zoo_graph in (dict(ZOO)["plain-sparse"], dict(ZOO)["tiny"]):
            assert finished == [3], fallback
    assert _solves_bitwise_equal(*solves)


def test_exact_half_step_finishes_with_a_jacobi_sweep(sweep_threads):
    """With |S| = 1 and ``(Tᵀ)_SS = 0`` the first half step lands
    exactly (``s = 0``, so ``ω = 0/0``): the column leaves for the
    Jacobi finish, whose first sweep confirms it — 4 products."""
    graph = dict(ZOO)["two-node"]
    vectors = _parity_vectors(graph.num_nodes)
    solves = []
    for threads in (1, 3):
        sweep_threads(threads)
        solves.append(PagerankEngine().solve_many(graph, vectors, tol=TOL))
    assert np.isfinite(solves[0].scores).all()
    assert solves[0].iterations.tolist() == [4, 4, 4]
    _assert_within_c_tol(solves[0], _lu(graph, vectors))
    assert _solves_bitwise_equal(*solves)
