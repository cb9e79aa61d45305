"""Unit tests for the perf engine: cache behavior, batched-solve
mechanics, and parallel Monte Carlo."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse

from repro.core.pagerank import pagerank, uniform_jump_vector
from repro.errors import ConvergenceError
from repro.graph.webgraph import WebGraph
from repro.perf import (
    OperatorCache,
    PagerankEngine,
    get_engine,
    graph_fingerprint,
    pagerank_montecarlo_parallel,
    plan_chunks,
    set_engine,
)


@pytest.fixture()
def chain_graph():
    return WebGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)])


def _ring(n, offset=0):
    return WebGraph.from_edges(
        n, [((i + offset) % n, (i + offset + 1) % n) for i in range(n)]
    )


# ----------------------------------------------------------------------
# fingerprint + cache
# ----------------------------------------------------------------------


def test_fingerprint_ignores_names():
    edges = [(0, 1), (1, 2)]
    bare = WebGraph.from_edges(3, edges)
    named = WebGraph.from_edges(3, edges, names=["a", "b", "c"])
    assert graph_fingerprint(bare) == graph_fingerprint(named)


def test_fingerprint_sensitive_to_structure():
    a = WebGraph.from_edges(4, [(0, 1), (2, 3)])
    b = WebGraph.from_edges(4, [(0, 3), (2, 1)])  # same counts, moved
    c = WebGraph.from_edges(5, [(0, 1), (2, 3)])  # extra node
    assert graph_fingerprint(a) != graph_fingerprint(b)
    assert graph_fingerprint(a) != graph_fingerprint(c)


def test_fingerprint_is_cached_on_the_instance():
    graph = _ring(40)
    baseline = WebGraph.fingerprint_computations
    first = graph.structural_fingerprint()
    assert WebGraph.fingerprint_computations == baseline + 1
    # repeated cache keying never rehashes the CSR
    cache = OperatorCache()
    cache.bundle_for(graph)
    cache.bundle_for(graph)
    assert graph.structural_fingerprint() == first
    assert WebGraph.fingerprint_computations == baseline + 1
    # a distinct (if identical) object pays its own single computation
    clone = _ring(40)
    clone.structural_fingerprint()
    clone.structural_fingerprint()
    assert WebGraph.fingerprint_computations == baseline + 2


def test_cache_hits_and_structural_sharing(chain_graph):
    cache = OperatorCache(maxsize=4)
    first = cache.bundle_for(chain_graph)
    # a structurally identical but distinct object shares the entry
    clone = WebGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
    second = cache.bundle_for(clone)
    assert second is first
    info = cache.cache_info()
    assert info == {
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "derives": 0,
        "size": 1,
        "maxsize": 4,
    }


def test_cache_lru_eviction():
    cache = OperatorCache(maxsize=2)
    g1, g2, g3 = _ring(5), _ring(6), _ring(7)
    b1 = cache.bundle_for(g1)
    cache.bundle_for(g2)
    cache.bundle_for(g1)  # refresh g1 → g2 becomes LRU
    cache.bundle_for(g3)  # evicts g2
    assert g1 in cache and g3 in cache and g2 not in cache
    assert cache.bundle_for(g1) is b1
    assert cache.cache_info()["evictions"] == 1


def test_cache_rejects_zero_size():
    with pytest.raises(ValueError, match="maxsize"):
        OperatorCache(maxsize=0)


def test_bundle_restriction_partitions_nodes(chain_graph):
    bundle = OperatorCache().bundle_for(chain_graph)
    # nodes 4 and 5 have no outlinks
    assert set(bundle.dangling.tolist()) == {4, 5}
    assert set(bundle.non_dangling.tolist()) == {0, 1, 2, 3}
    assert bundle.tt_ss.shape == (4, 4)
    assert bundle.tt_ds.shape == (2, 4)
    assert bundle.nbytes() > 0


def _random_csr(seed, rows, cols, density=0.05):
    """A CSR matrix with empty rows and entries of mixed magnitude, so
    any change in a row's summation order changes its bits."""
    rng = np.random.default_rng(seed)
    matrix = sparse.random(
        rows, cols, density=density, format="csr", random_state=rng,
        data_rvs=lambda size: rng.random(size) * 10.0 ** rng.integers(
            -8, 8, size
        ),
    )
    matrix.data[: matrix.nnz // 7] = 0.1  # repeated values, exact ties
    return matrix


@pytest.mark.parametrize("parts", [1, 2, 3, 5, 64])
def test_row_blocks_are_views_of_the_restriction(parts):
    """The in-memory split copies no entry: every block's arrays share
    memory with the bundle's ``(Tᵀ)_SS``/``(Tᵀ)_DS`` (scipy's
    ``csr_matrix`` constructor would copy small views), and the blocks
    cover the rows in order."""
    graph = WebGraph.from_edges(
        200, [(i, (i * 7 + j) % 200) for i in range(0, 200, 3)
              for j in range(1, 6)]
    )
    bundle = OperatorCache().bundle_for(graph)
    for matrix, blocks in zip(
        (bundle.tt_ss, bundle.tt_ds), bundle.row_blocks(parts)
    ):
        assert 1 <= len(blocks) <= parts
        assert blocks[0].lo == 0 and blocks[-1].hi == matrix.shape[0]
        for block, following in zip(blocks, blocks[1:]):
            assert block.hi == following.lo
        for block in blocks:
            assert block.hi > block.lo
            assert np.shares_memory(block.indptr, matrix.indptr)
            assert np.shares_memory(block.indices, matrix.indices)
            assert np.shares_memory(block.data, matrix.data)
            assert np.array_equal(
                block.indptr, matrix.indptr[block.lo:block.hi + 1]
            )
    assert bundle.nnz == bundle.tt_ss.nnz + bundle.tt_ds.nnz


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("threads", [None, 2])
def test_block_product_is_bitwise_the_scipy_matmul(k, threads):
    """The private scipy kernels the sweeps call give ``A @ z`` bit for
    bit, for one column (``csr_matvec``) and several (``csr_matvecs``),
    from row blocks inline or on a pool."""
    from repro.perf.cache import row_blocks
    from repro.perf.engine import _block_product, _run

    matrix = _random_csr(k, 301, 257)
    z = np.random.default_rng(k).standard_normal((257, k))
    expected = matrix @ z
    for parts in (1, 4):
        got = np.zeros_like(expected)
        tasks = [(block, z, got) for block in row_blocks(matrix, parts)]
        if threads is None:
            _run(None, _block_product, tasks)
        else:
            with ThreadPoolExecutor(threads) as pool:
                _run(pool, _block_product, tasks)
        assert np.array_equal(got, expected)


def test_threaded_solve_leaves_no_threads_behind(sweep_threads, monkeypatch):
    """The sweep pool lives for one solve: its threads run the products
    and are joined before ``solve_many`` returns, so a Monte Carlo fork
    pool started afterwards inherits none of them."""
    from repro.perf import engine as perf_engine

    graph = WebGraph.from_edges(
        300, [(i, (i * 11 + j) % 300) for i in range(300) for j in (1, 2)]
    )
    sweep_threads(2)
    during = []
    product = perf_engine._block_product

    def spy(block, z, out):
        during.append(threading.active_count())
        product(block, z, out)

    monkeypatch.setattr(perf_engine, "_block_product", spy)
    before = threading.active_count()
    PagerankEngine().solve_many(graph, [None, [0, 1]], tol=1e-12)
    assert during and before < max(during) <= before + 2
    assert threading.active_count() == before


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------


def test_solve_many_input_validation(chain_graph):
    engine = PagerankEngine()
    n = chain_graph.num_nodes
    v = uniform_jump_vector(n)
    with pytest.raises(ValueError, match="at least one"):
        engine.solve_many(chain_graph, np.empty((n, 0)))
    with pytest.raises(ValueError, match="rows"):
        engine.solve_many(chain_graph, np.ones((n + 1, 2)) / (n + 1))
    with pytest.raises(ValueError, match="norm"):
        engine.solve_many(chain_graph, np.stack([v, v * 0.0], axis=1))
    with pytest.raises(ValueError, match="exceed"):
        engine.solve_many(chain_graph, np.stack([v, v * n], axis=1))
    # NaN passes the sign and norm checks; even best-effort mode rejects
    nan = v.copy()
    nan[2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        engine.solve_many(chain_graph, np.stack([v, nan], axis=1), check=False)
    with pytest.raises(ValueError, match="labels"):
        engine.solve_many(chain_graph, [v, v], labels=["only-one"])


def test_a_validated_read_only_block_is_scanned_once(
    chain_graph, monkeypatch
):
    """The engine scans the entries of a read-only block that owns its
    data once; a writeable block, a view, or another block is scanned
    on every call, so an invalid one is still rejected."""
    import repro.perf.engine as engine_module

    scans = []
    validate = engine_module._validate_block

    def recording(vectors, damping, tol, *, scan=True):
        scans.append(scan)
        validate(vectors, damping, tol, scan=scan)

    monkeypatch.setattr(engine_module, "_validate_block", recording)
    engine = PagerankEngine()
    n = chain_graph.num_nodes
    v = uniform_jump_vector(n)
    block = np.stack([v, v], axis=1)
    block.setflags(write=False)
    first = engine.solve_many(chain_graph, block)
    again = engine.solve_many(chain_graph, block)
    assert scans == [True, False]
    assert np.array_equal(first.scores, again.scores)
    engine.solve_many(chain_graph, block.copy())
    view = np.stack([v, v, v], axis=1)[:, :2]
    view.setflags(write=False)
    engine.solve_many(chain_graph, view)
    engine.solve_many(chain_graph, view)
    assert scans[2:] == [True, True, True]
    nan = v.copy()
    nan[2] = np.nan
    bad = np.stack([v, nan], axis=1)
    bad.setflags(write=False)
    with pytest.raises(ValueError, match="finite"):
        engine.solve_many(chain_graph, bad, check=False)
    with pytest.raises(ValueError, match="damping"):
        engine.solve_many(chain_graph, block, damping=1.0)


def test_solve_many_edgeless_graph():
    graph = WebGraph.from_edges(5, [])
    engine = PagerankEngine()
    batch = engine.solve_many(graph, [None], damping=0.85)
    # (I - cT^T) = I: the solution is the jump term
    expected = 0.15 * uniform_jump_vector(5)
    assert np.allclose(batch.scores[:, 0], expected)
    assert batch.converged.all()


def test_solve_many_raises_on_iteration_exhaustion(chain_graph):
    engine = PagerankEngine()
    with pytest.raises(ConvergenceError, match="col0"):
        engine.solve_many(chain_graph, [None], tol=1e-15, max_iter=2)
    batch = engine.solve_many(
        chain_graph, [None], tol=1e-15, max_iter=2, check=False
    )
    assert not batch.converged[0]
    assert batch.iterations[0] == 2


def test_max_iter_caps_products_exactly(monkeypatch):
    """``iterations`` counts ``(Tᵀ)_SS`` products per column and
    ``max_iter`` caps them exactly, whichever phase of the kernel the
    cap lands in: a cut-off column has made exactly ``max_iter``."""
    from repro.perf import engine as perf_engine

    graph = WebGraph.from_edges(
        40, [(i, (i * 7 + j) % 40) for i in range(30) for j in (1, 3)]
    )
    products = []
    apply_block = perf_engine._apply_block

    def spy(block, z, out, c):
        products.append(z.shape[1])
        apply_block(block, z, out, c)

    monkeypatch.setattr(perf_engine, "_apply_block", spy)
    for max_iter in range(1, 16):
        products.clear()
        batch = PagerankEngine().solve_many(
            graph, [None, [0, 1], [5]], tol=1e-15, max_iter=max_iter,
            check=False,
        )
        assert sum(products) == batch.iterations.sum()
        assert (batch.iterations <= max_iter).all()
        assert (batch.iterations[~batch.converged] == max_iter).all()
        assert np.isfinite(batch.scores).all()


def test_batch_result_columns_roundtrip(chain_graph):
    engine = PagerankEngine()
    batch = engine.solve_many(chain_graph, [None, [0, 1]], tol=1e-12)
    columns = batch.columns()
    assert len(columns) == batch.num_columns == 2
    for j, column in enumerate(columns):
        assert np.array_equal(column.scores, batch.scores[:, j])
        assert column.converged
        assert column.method == "batched_bicgstab"


def test_default_engine_is_shared_and_replaceable():
    previous = set_engine(None)
    try:
        a = get_engine()
        assert get_engine() is a
        mine = PagerankEngine(cache_size=2)
        assert set_engine(mine) is a
        assert get_engine() is mine
    finally:
        set_engine(previous)


def test_pagerank_populates_shared_cache(chain_graph):
    previous = set_engine(None)
    try:
        pagerank(chain_graph, tol=1e-12)
        info = get_engine().cache.cache_info()
        assert info["misses"] == 1
        pagerank(chain_graph, [0, 1], tol=1e-12)
        assert get_engine().cache.cache_info()["hits"] >= 1
    finally:
        set_engine(previous)


# ----------------------------------------------------------------------
# parallel Monte Carlo
# ----------------------------------------------------------------------


def test_plan_chunks_partitions_budget():
    assert sum(plan_chunks(100)) == 100
    assert plan_chunks(10, chunks=4) == [3, 3, 2, 2]
    assert plan_chunks(3, chunks=8) == [1, 1, 1]
    with pytest.raises(ValueError):
        plan_chunks(0)


@pytest.mark.parametrize("workers", [None, 1, 2, 3])
def test_montecarlo_deterministic_across_worker_counts(chain_graph, workers):
    """The fixed chunk plan makes the pooled estimate bitwise the same
    for any worker count, including more workers than the host has
    cores and a count that does not divide the eight chunks."""
    kwargs = dict(num_walks=5_000, seed=11)
    serial = pagerank_montecarlo_parallel(chain_graph, workers=None, **kwargs)
    result = pagerank_montecarlo_parallel(
        chain_graph, workers=workers, **kwargs
    )
    assert np.array_equal(serial.scores, result.scores)
    assert result.num_walks == 5_000
    assert result.total_steps == serial.total_steps


def test_montecarlo_approximates_linear_pagerank():
    graph = _ring(12)
    exact = pagerank(graph, tol=1e-12).scores
    mc = pagerank_montecarlo_parallel(graph, num_walks=200_000, seed=3)
    assert np.abs(mc.scores - exact).sum() < 0.01


def test_montecarlo_pool_failure_falls_back(monkeypatch, chain_graph):
    import repro.perf.parallel as parallel_mod

    class ExplodingPool:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this sandbox")

    monkeypatch.setattr(
        parallel_mod, "ProcessPoolExecutor", ExplodingPool
    )
    reference = pagerank_montecarlo_parallel(
        chain_graph, num_walks=2_000, workers=None, seed=5
    )
    with pytest.warns(RuntimeWarning, match="sequentially"):
        degraded = pagerank_montecarlo_parallel(
            chain_graph, num_walks=2_000, workers=4, seed=5
        )
    assert np.array_equal(degraded.scores, reference.scores)
