"""The sharded out-of-core backend: round-trip, corruption, deltas.

Companion to the bitwise solver-parity sweep in
``test_differential_solvers.py``.  This file owns everything about the
*store* itself: the external bucket-sort builder, manifest/digest
integrity (corruption must surface as typed
:class:`~repro.errors.GraphIOError` subclasses, never as a partially
loaded graph), the bounded shard LRU, memory-mapped loading,
hypothesis-generated partition boundaries (uneven and zero-width
shards included), copy-on-write delta overlays, the per-shard operator
cache, and the ``repro-spam shard`` CLI.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import EXIT_DATA, EXIT_OK, main
from repro.errors import (
    DeltaError,
    EmptyGraphError,
    GraphIOError,
    ManifestVersionError,
    ShardDigestMismatchError,
    ShardIntegrityError,
    ShardMissingError,
    ShardTruncatedError,
)
from repro.graph.delta import GraphDelta
from repro.graph.sharded import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    ShardedWebGraph,
    default_boundaries,
    iter_edge_chunks,
    partition_graph,
    sharded_from_edges,
    verify_store,
)
from repro.graph.webgraph import WebGraph, compose_fingerprint, edge_digest
from repro.perf import OperatorCache, PagerankEngine, sharded_operator_for

TOL = 1e-12

#: Shard counts of the bitwise build check; ``REPRO_TEST_SHARDS`` pins
#: one per CI ``scale`` leg, as in ``test_differential_solvers.py``.
SHARD_COUNTS = [
    int(part)
    for part in os.environ.get("REPRO_TEST_SHARDS", "1,2,7,32").split(",")
    if part.strip()
]


def _random_graph(seed: int, n: int, num_edges: int) -> WebGraph:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=num_edges)
    dst = rng.integers(0, n, size=num_edges)
    keep = src != dst
    return WebGraph.from_edges(n, list(zip(src[keep], dst[keep])))


@pytest.fixture(scope="module")
def graph():
    return _random_graph(23, 97, 600)


@pytest.fixture(scope="module")
def store_dir(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("store") / "k5"
    partition_graph(graph, out, num_shards=5)
    return out


@pytest.fixture()
def store(store_dir):
    return ShardedWebGraph.open(store_dir)


def _manifest(directory: Path) -> dict:
    return json.loads((directory / MANIFEST_NAME).read_text())


def _shard_files(directory: Path):
    return [directory / s["file"] for s in _manifest(directory)["shards"]]


def _copy_store(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------


def test_round_trip_bitwise(graph, store):
    assert store.backend_name == "sharded"
    assert store.num_nodes == graph.num_nodes
    assert store.num_edges == graph.num_edges
    assert store.structural_fingerprint() == graph.structural_fingerprint()
    back = store.to_webgraph()
    assert np.array_equal(back.indptr, graph.indptr)
    assert np.array_equal(back.indices, graph.indices)
    # to_webgraph does not stamp the fingerprint: recomputation is the check
    assert back.structural_fingerprint() == graph.structural_fingerprint()
    assert np.array_equal(store.out_degree(), graph.out_degree())
    assert np.array_equal(store.dangling_mask(), graph.dangling_mask())


def test_shard_edges_union_is_the_graph(graph, store):
    srcs, dsts = [], []
    for k in range(store.num_shards):
        s, d = store.iter_shard_edges(k)
        srcs.append(s)
        dsts.append(d)
    rebuilt = WebGraph.from_edges(
        graph.num_nodes,
        list(zip(np.concatenate(srcs), np.concatenate(dsts))),
    )
    assert np.array_equal(rebuilt.indptr, graph.indptr)
    assert np.array_equal(rebuilt.indices, graph.indices)


def test_builder_dedups_and_drops_self_links(tmp_path):
    # from_edges semantics: duplicates collapse, self-links vanish —
    # the out-of-core bucket sort must agree exactly
    edges = [(0, 1), (0, 1), (2, 2), (3, 1), (1, 0), (3, 1)]
    reference = WebGraph.from_edges(5, edges)
    chunks = [np.array(edges[:3]), np.array(edges[3:])]
    built = sharded_from_edges(5, iter(chunks), tmp_path / "s", num_shards=3)
    assert built.structural_fingerprint() == reference.structural_fingerprint()
    assert built.num_edges == reference.num_edges
    back = built.to_webgraph()
    assert np.array_equal(back.indptr, reference.indptr)
    assert np.array_equal(back.indices, reference.indices)


def _reference_build(n, edges, bounds):
    """The CSR and each shard's arrays and digest, built with
    ``np.unique`` and a stable argsort: the construction the sort-based
    dedup replaced."""
    edges = edges[edges[:, 0] != edges[:, 1]]
    keys = np.unique(edges[:, 0] * n + edges[:, 1])
    src, dst = keys // n, keys % n
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    shards = []
    for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        out = (src >= a) & (src < b)
        into = (dst >= a) & (dst < b)
        t_src, t_dst = src[into], dst[into]
        order = np.argsort(t_dst * n + t_src, kind="stable")
        t_indptr = np.zeros(b - a + 1, dtype=np.int64)
        t_indptr[1:] = np.cumsum(np.bincount(t_dst - a, minlength=b - a))
        shards.append({
            "indptr": indptr[a:b + 1] - indptr[a],
            "indices": dst[out],
            "t_indptr": t_indptr,
            "t_indices": t_src[order],
            "digest": edge_digest(n, src[out], dst[out]),
        })
    return indptr, dst, shards


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_sort_dedup_builds_are_bitwise_the_unique_reference(
    tmp_path, num_shards
):
    # a duplicate- and self-link-heavy stream in uneven chunks, one of
    # them all self-links and one empty
    n = 61
    rng = np.random.default_rng(num_shards)
    edges = rng.integers(0, n, size=(4000, 2))
    loops = rng.random(len(edges)) < 0.3
    edges[loops, 1] = edges[loops, 0]
    chunks = np.array_split(edges, [0, 700, 1900, 1901, 3300])
    chunks.append(np.repeat(np.arange(n), 2).reshape(-1, 2))
    bounds = default_boundaries(n, num_shards)
    indptr, indices, shards = _reference_build(
        n, np.concatenate(chunks), bounds
    )

    graph = WebGraph.from_edges(n, np.concatenate(chunks))
    for got, want in ((graph.indptr, indptr), (graph.indices, indices)):
        assert got.dtype == want.dtype and np.array_equal(got, want)

    store_dir = tmp_path / "store"
    sharded_from_edges(n, iter(chunks), store_dir, num_shards=num_shards)
    manifest = _manifest(store_dir)
    for record, want in zip(manifest["shards"], shards):
        with np.load(store_dir / record["file"]) as stored:
            for name in ("indptr", "indices", "t_indptr", "t_indices"):
                got = stored[name]
                assert got.dtype == want[name].dtype, name
                assert np.array_equal(got, want[name]), name
        assert record["digest"] == f"{want['digest']:016x}"
    digest = sum(shard["digest"] for shard in shards) & (2**64 - 1)
    fingerprint = compose_fingerprint(n, len(indices), digest)
    assert manifest["fingerprint"] == fingerprint
    assert graph.structural_fingerprint() == fingerprint


def test_zero_node_store_rejected(tmp_path):
    with pytest.raises(EmptyGraphError):
        sharded_from_edges(0, iter([]), tmp_path / "s", num_shards=1)


def test_out_of_range_edge_rejected_and_no_store_left(tmp_path):
    out = tmp_path / "s"
    with pytest.raises(Exception):
        sharded_from_edges(
            4, iter([np.array([[0, 9]])]), out, num_shards=2
        )
    # a failed build must not leave a readable (partial) store behind
    with pytest.raises(ShardMissingError):
        ShardedWebGraph.open(out)


def test_iter_edge_chunks_recovers_edges(graph):
    chunks = list(iter_edge_chunks(graph, chunk_edges=100))
    stacked = np.concatenate(chunks)
    assert len(stacked) == graph.num_edges
    rebuilt = WebGraph.from_edges(graph.num_nodes, list(map(tuple, stacked)))
    assert rebuilt.structural_fingerprint() == graph.structural_fingerprint()


def test_boundaries_validation(graph, tmp_path):
    with pytest.raises(ValueError):
        default_boundaries(10, 0)
    with pytest.raises(ValueError):
        partition_graph(
            graph, tmp_path / "a", num_shards=2, boundaries=[0, 5, 9]
        )  # does not end at num_nodes
    with pytest.raises(ValueError):
        partition_graph(
            graph, tmp_path / "b", num_shards=3, boundaries=[0, 97]
        )  # count disagreement


# ---------------------------------------------------------------------------
# hypothesis: arbitrary partition boundaries
# ---------------------------------------------------------------------------

_HYPO_GRAPH = _random_graph(31, 57, 260)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cuts=st.lists(
        st.integers(min_value=0, max_value=57), min_size=0, max_size=6
    )
)
def test_arbitrary_boundaries_round_trip(cuts):
    # includes uneven partitions, duplicate cuts (zero-width shards),
    # and the trivial single-shard partition
    boundaries = [0] + sorted(cuts) + [57]
    with tempfile.TemporaryDirectory() as tmp:
        store = partition_graph(
            _HYPO_GRAPH, Path(tmp) / "s", boundaries=boundaries
        )
        assert store.num_shards == len(boundaries) - 1
        assert (
            store.structural_fingerprint()
            == _HYPO_GRAPH.structural_fingerprint()
        )
        back = store.to_webgraph()
        assert np.array_equal(back.indptr, _HYPO_GRAPH.indptr)
        assert np.array_equal(back.indices, _HYPO_GRAPH.indices)
        report = verify_store(Path(tmp) / "s", deep=True)
        assert report["ok"], report["problems"]


@settings(max_examples=20, deadline=None)
@given(
    node=st.integers(min_value=0, max_value=56),
    cuts=st.lists(
        st.integers(min_value=0, max_value=57), min_size=0, max_size=4
    ),
)
def test_shard_of_matches_shard_ranges(node, cuts):
    boundaries = np.array([0] + sorted(cuts) + [57], dtype=np.int64)
    with tempfile.TemporaryDirectory() as tmp:
        store = partition_graph(
            _HYPO_GRAPH, Path(tmp) / "s", boundaries=boundaries
        )
        k = int(store.shard_of(np.array([node]))[0])
        a, b = store.shard_range(k)
        assert a <= node < b


# ---------------------------------------------------------------------------
# corruption injection: typed errors, never partial graphs
# ---------------------------------------------------------------------------


def test_missing_manifest(tmp_path):
    with pytest.raises(ShardMissingError):
        ShardedWebGraph.open(tmp_path)


def test_garbage_manifest(store_dir, tmp_path):
    bad = _copy_store(store_dir, tmp_path)
    (bad / MANIFEST_NAME).write_text("{not json")
    with pytest.raises(ShardIntegrityError):
        ShardedWebGraph.open(bad)


def test_stale_manifest_version(store_dir, tmp_path):
    bad = _copy_store(store_dir, tmp_path)
    manifest = _manifest(bad)
    manifest["version"] = MANIFEST_VERSION + 1
    (bad / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(ManifestVersionError) as exc_info:
        ShardedWebGraph.open(bad)
    assert exc_info.value.found == MANIFEST_VERSION + 1
    assert exc_info.value.supported == MANIFEST_VERSION


def test_missing_shard_file_fails_at_open(store_dir, tmp_path):
    bad = _copy_store(store_dir, tmp_path)
    _shard_files(bad)[2].unlink()
    # eagerly at open(), not at first touch of shard 2
    with pytest.raises(ShardMissingError):
        ShardedWebGraph.open(bad)


def test_truncated_shard_file(store_dir, tmp_path):
    bad = _copy_store(store_dir, tmp_path)
    target = _shard_files(bad)[1]
    blob = target.read_bytes()
    target.write_bytes(blob[: len(blob) // 2])
    store = ShardedWebGraph.open(bad)  # manifest still consistent
    with pytest.raises(ShardTruncatedError):
        store.shard(1)
    report = verify_store(bad)
    assert not report["ok"]
    assert any("shard 1" in p or "truncat" in p.lower() for p in report["problems"])


def test_manifest_digest_tampering(store_dir, tmp_path):
    bad = _copy_store(store_dir, tmp_path)
    manifest = _manifest(bad)
    manifest["shards"][0]["digest"] = f"{0xDEADBEEF:016x}"
    (bad / MANIFEST_NAME).write_text(json.dumps(manifest))
    # per-shard digests no longer compose to the manifest fingerprint
    with pytest.raises(ShardDigestMismatchError):
        ShardedWebGraph.open(bad)


def test_perturbed_shard_contents_fail_digest(graph, store_dir, tmp_path):
    # a *structurally valid* shard file with one wrong destination:
    # counts and ranges all pass, only the digest check can catch this
    bad = _copy_store(store_dir, tmp_path)
    target = _shard_files(bad)[1]
    with np.load(target) as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    assert len(arrays["indices"]), "shard 1 unexpectedly edgeless"
    arrays["indices"][0] = (arrays["indices"][0] + 1) % graph.num_nodes
    np.savez(target, **arrays)
    store = ShardedWebGraph.open(bad)
    with pytest.raises(ShardDigestMismatchError):
        store.shard(1)
    # digest verification is gated by verify=; an unverified open loads
    lenient = ShardedWebGraph.open(bad, verify=False)
    lenient.shard(1)
    # deep verification still reports the problem
    report = verify_store(bad, deep=True)
    assert not report["ok"]


def test_typed_errors_are_graph_io_errors():
    for exc in (
        ShardMissingError,
        ShardIntegrityError,
        ShardTruncatedError,
        ShardDigestMismatchError,
        ManifestVersionError,
    ):
        assert issubclass(exc, GraphIOError)
    assert issubclass(ShardMissingError, FileNotFoundError)
    assert issubclass(GraphIOError, OSError)


# ---------------------------------------------------------------------------
# shard LRU + memory mapping
# ---------------------------------------------------------------------------


def test_lru_counters_and_eviction(store_dir):
    store = ShardedWebGraph.open(store_dir, cache_shards=2)
    for k in range(store.num_shards):
        store.shard(k)
    info = store.cache_info()
    assert info["maxsize"] == 2
    assert info["loads"] == store.num_shards
    assert info["resident"] == 2
    assert info["evictions"] == store.num_shards - 2
    # most-recently-used shards hit without a reload
    store.shard(store.num_shards - 1)
    assert store.cache_info()["hits"] == 1
    assert store.cache_info()["loads"] == store.num_shards


def test_shards_are_memory_mapped(store):
    shard = next(
        store.shard(k)
        for k in range(store.num_shards)
        if store.shard_meta(k).num_edges
    )
    mapped = lambda a: isinstance(a, np.memmap) or isinstance(
        getattr(a, "base", None), np.memmap
    )
    assert mapped(shard.indices)
    assert mapped(shard.indptr)


# ---------------------------------------------------------------------------
# deltas: copy-on-write overlays, exact in-memory parity
# ---------------------------------------------------------------------------


def _pick_delta(graph):
    # delete two existing edges, insert two absent ones
    srcs, dsts = [], []
    for u in range(graph.num_nodes):
        row = graph.indices[graph.indptr[u] : graph.indptr[u + 1]]
        for v in row[:1]:
            srcs.append((u, int(v)))
        if len(srcs) >= 2:
            break
    present = {
        (u, int(v))
        for u in range(graph.num_nodes)
        for v in graph.indices[graph.indptr[u] : graph.indptr[u + 1]]
    }
    inserts = []
    for u in range(graph.num_nodes):
        for v in range(graph.num_nodes):
            if u != v and (u, v) not in present:
                inserts.append((u, v))
                if len(inserts) == 2:
                    return GraphDelta(insertions=inserts, deletions=srcs[:2])
    raise AssertionError("graph too dense for the test delta")


def test_delta_matches_in_memory_bitwise(graph, store):
    delta = _pick_delta(graph)
    mem_app = delta.apply(graph)
    shard_app = store.apply_delta(delta)
    after = shard_app.after
    assert (
        after.structural_fingerprint()
        == mem_app.after.structural_fingerprint()
    )
    assert after.num_edges == mem_app.after.num_edges
    back = after.to_webgraph()
    assert np.array_equal(back.indptr, mem_app.after.indptr)
    assert np.array_equal(back.indices, mem_app.after.indices)
    # copy-on-write: only owning shards were overridden
    touched = set(
        after.shard_of(np.asarray(delta.touched_nodes())).tolist()
    )
    assert after.delta_touched_shards <= touched
    # the base graph and the on-disk store are untouched
    assert store.structural_fingerprint() == graph.structural_fingerprint()
    assert verify_store(store.directory, deep=True)["ok"]


def test_chained_deltas(graph, store):
    delta = _pick_delta(graph)
    inverse = GraphDelta(
        insertions=[tuple(e) for e in delta.deletions],
        deletions=[tuple(e) for e in delta.insertions],
    )
    once = store.apply_delta(delta).after
    back = once.apply_delta(inverse).after
    assert back.structural_fingerprint() == graph.structural_fingerprint()
    assembled = back.to_webgraph()
    assert np.array_equal(assembled.indptr, graph.indptr)
    assert np.array_equal(assembled.indices, graph.indices)


def test_delta_error_messages_match_in_memory(graph, store):
    cases = [
        GraphDelta(insertions=[(0, graph.num_nodes + 5)]),
        GraphDelta(deletions=[(0, graph.num_nodes + 5)]),
    ]
    # a definitely-absent edge and a definitely-present edge
    delta = _pick_delta(graph)
    absent = tuple(int(x) for x in delta.insertions[0])
    present = tuple(int(x) for x in delta.deletions[0])
    cases.append(GraphDelta(deletions=[absent]))
    cases.append(GraphDelta(insertions=[present]))
    for bad in cases:
        with pytest.raises(DeltaError) as mem_exc:
            bad.apply(graph)
        with pytest.raises(DeltaError) as shard_exc:
            store.apply_delta(bad)
        assert str(shard_exc.value) == str(mem_exc.value)


# ---------------------------------------------------------------------------
# per-shard operator cache + derived operators
# ---------------------------------------------------------------------------


def test_partition_key_distinguishes_partitions(graph, store, tmp_path):
    other = partition_graph(graph, tmp_path / "k2", num_shards=2)
    assert store.structural_fingerprint() == other.structural_fingerprint()
    assert store.partition_key != other.partition_key


def test_operator_cache_reuses_shard_operator(store):
    cache = OperatorCache(maxsize=64)
    first = sharded_operator_for(cache, store)
    second = sharded_operator_for(cache, store)
    assert first is second


def test_derived_operator_reuses_untouched_blocks(tmp_path):
    # five independent 20-node chains, one per shard — a delta confined
    # to shard 0 leaves the other shards' operator blocks reusable
    n, block = 100, 20
    edges = [
        (u, u + 1)
        for start in range(0, n, block)
        for u in range(start, start + block - 1)
    ]
    local = WebGraph.from_edges(n, edges)
    store = partition_graph(local, tmp_path / "s", num_shards=5)
    engine = PagerankEngine()
    vectors = np.full((n, 2), 1.0 / n)
    base_batch = engine.solve_many(store, vectors, tol=TOL)
    # insertion only: out-degrees stay positive, dangling set unchanged
    delta = GraphDelta(insertions=[(0, 2)])
    shard_app = store.apply_delta(delta)
    op = engine.shard_cache.derive_for(shard_app)
    derived_batch = engine.solve_many(shard_app.after, vectors, tol=TOL)
    assert engine.shard_cache.derives == 1
    # the solve found the derived operator under the after-graph's key
    assert sharded_operator_for(engine.shard_cache, shard_app.after) is op
    assert op.block_reuses > 0
    assert op.block_builds > 0
    # and the derived solve is still bitwise-identical to in-memory
    mem_batch = engine.solve_many(delta.apply(local).after, vectors, tol=TOL)
    assert np.array_equal(derived_batch.scores, mem_batch.scores)
    assert np.array_equal(derived_batch.iterations, mem_batch.iterations)
    assert np.array_equal(base_batch.converged, derived_batch.converged)


def test_sharded_rejects_non_jacobi_and_policies(store):
    from repro.runtime.resilient import RuntimePolicy

    engine = PagerankEngine()
    with pytest.raises(ValueError, match="sharded"):
        engine.solve(store, method="power")
    with pytest.raises(ValueError, match="sharded"):
        engine.solve_many(store, [None], policy=RuntimePolicy())
    with pytest.raises(TypeError, match="sharded"):
        engine.bundle(store)


# ---------------------------------------------------------------------------
# CLI: repro-spam shard partition / inspect / verify
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("world") / "bundle"
    assert main(
        ["generate", "--scale", "small", "--seed", "3", "--out", str(out)]
    ) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def cli_store(world_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "store"
    code = main(
        [
            "shard",
            "partition",
            "--world",
            str(world_dir),
            "--out",
            str(out),
            "--shards",
            "4",
        ]
    )
    assert code == EXIT_OK
    return out


def test_cli_partition_produces_valid_store(cli_store):
    store = ShardedWebGraph.open(cli_store)
    assert store.num_shards == 4
    assert verify_store(cli_store, deep=True)["ok"]


def test_cli_partition_with_boundaries(world_dir, tmp_path):
    from repro.graph import read_graph_bundle

    bundle_graph, _, _ = read_graph_bundle(world_dir)
    n = bundle_graph.num_nodes
    out = tmp_path / "store"
    code = main(
        [
            "shard",
            "partition",
            "--world",
            str(world_dir),
            "--out",
            str(out),
            "--boundaries",
            f"0,{n // 3},{n // 3},{n}",
        ]
    )
    assert code == EXIT_OK
    assert ShardedWebGraph.open(out).num_shards == 3


def test_cli_inspect(cli_store, capsys):
    assert main(["shard", "inspect", "--store", str(cli_store)]) == EXIT_OK
    human = capsys.readouterr().out
    assert "fingerprint" in human
    assert main(
        ["shard", "inspect", "--store", str(cli_store), "--json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["num_shards"] == 4
    assert len(payload["shards"]) == 4


def test_cli_verify_ok(cli_store, capsys):
    assert main(["shard", "verify", "--store", str(cli_store)]) == EXIT_OK
    capsys.readouterr()
    assert main(
        ["shard", "verify", "--store", str(cli_store), "--deep", "--json"]
    ) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["deep"]


def test_cli_verify_catches_corruption(cli_store, tmp_path, capsys):
    bad = _copy_store(cli_store, tmp_path)
    target = _shard_files(bad)[0]
    target.write_bytes(target.read_bytes()[:40])
    assert main(["shard", "verify", "--store", str(bad)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.strip()


def test_cli_inspect_missing_store(tmp_path):
    assert main(
        ["shard", "inspect", "--store", str(tmp_path / "nope")]
    ) == EXIT_DATA
