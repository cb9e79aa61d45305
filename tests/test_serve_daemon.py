"""Daemon-level contracts: queries, guarded ingest, crash recovery.

The acceptance story under test, end to end but in-process: queries
answer from one immutable epoch; an accepted delta is durable before
it is acknowledged; a warm apply matches a cold re-solve; kill-mid-swap
leaves readers on the previous epoch; repeated ingest failure opens the
circuit and degrades to stale-reads-only (reads stay available); and a
restart replays the WAL to bitwise-identical scores — including after
a crash between apply and the watermark fsync.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.mass import estimate_spam_mass
from repro.errors import InjectedFault, SnapshotMismatchError, WalError
from repro.graph import write_graph_bundle, write_host_list
from repro.perf import PagerankEngine
from repro.runtime import save_solution
from repro.runtime.chaos import ServeChaos, truncate_wal_tail
from repro.serve import (
    DaemonConfig,
    DeltaWAL,
    ScoringDaemon,
    ScoringServer,
    ServeClient,
)
from test_differential_solvers import _random_graph

GAMMA = 0.85
DELTAS = [
    ([(0, 5), (1, 7)], []),
    ([(2, 9)], [(0, 5)]),
    ([(3, 11), (4, 13)], []),
]


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(7)
    graph = _random_graph(11, 120, 500)
    core = np.sort(rng.choice(graph.num_nodes, size=12, replace=False))
    estimates = estimate_spam_mass(graph, core, gamma=GAMMA)
    return graph, core, estimates


@pytest.fixture(scope="module")
def world(base, tmp_path_factory):
    """A persisted bundle + core + converged solution snapshot."""
    graph, core, estimates = base
    root = tmp_path_factory.mktemp("serve-world")
    world_dir = root / "world"
    write_graph_bundle(graph, world_dir)
    write_host_list(
        [graph.name_of(int(i)) for i in core], world_dir / "core.hosts"
    )
    ckpt = root / "ckpt-template"
    save_solution(
        ckpt,
        np.stack([estimates.pagerank, estimates.core_pagerank], axis=1),
        fingerprint=graph.structural_fingerprint(),
        extra={"damping": estimates.damping, "gamma": estimates.gamma,
               "labels": ["pagerank", "core"]},
    )
    return world_dir, ckpt


def _fresh_ckpt(world, tmp_path):
    """Copy the template snapshot so tests can mutate it freely."""
    import shutil

    _, template = world
    ckpt = tmp_path / "ckpt"
    shutil.copytree(template, ckpt)
    return ckpt


def _daemon(base, tmp_path, **config_kw):
    graph, core, estimates = base
    return ScoringDaemon(
        graph,
        core,
        estimates,
        checkpoint_dir=tmp_path / "ckpt",
        wal=DeltaWAL(tmp_path / "wal"),
        config=DaemonConfig(**config_kw),
    )


# ----------------------------------------------------------------------
# read path
# ----------------------------------------------------------------------


def test_query_score_matches_estimates(base, tmp_path):
    graph, core, estimates = base
    d = _daemon(base, tmp_path)
    host = graph.name_of(3)
    got = d.query_score(host)
    assert got["host"] == host and got["node"] == 3
    assert got["pagerank"] == pytest.approx(float(estimates.pagerank[3]))
    assert got["relative_mass"] == pytest.approx(
        float(estimates.relative[3])
    )
    assert got["epoch"] == 0 and got["staleness"] == 0
    assert got["mode"] == "full"
    with pytest.raises(KeyError):
        d.query_score("no-such-host")


def test_query_top_applies_algorithm2_gates(base, tmp_path):
    _, _, estimates = base
    d = _daemon(base, tmp_path)
    everything = d.query_top(5, tau=0.0, rho=0.0)
    assert len(everything["candidates"]) == 5
    masses = [c["relative_mass"] for c in everything["candidates"]]
    assert masses == sorted(masses, reverse=True)
    strict = d.query_top(5, tau=0.99, rho=1e9)
    assert strict["candidates"] == []
    assert strict["total_eligible"] == 0
    with pytest.raises(ValueError):
        d.query_top(0)


def test_query_explain_renders(base, tmp_path):
    graph, _, _ = base
    d = _daemon(base, tmp_path)
    got = d.query_explain(graph.name_of(3), top=3)
    assert graph.name_of(3) in got["text"]
    assert got["epoch"] == 0


#: hosts of the resolution check; ``{last}`` and ``{n}`` are the last
#: node and one past it
RESOLUTION_HOSTS = [
    "node0", "node{last}", "node{n}",
    "node007", "node-1", "node+1", "node 1", "node1_0", "node\u0661",
    "node", "", "NODE1", "x.com", "node" + "9" * 5000,
]


def test_unnamed_hosts_resolve_like_a_name_table(base, tmp_path):
    from repro.core.explain import explain_mass
    from repro.serve.epoch import Epoch, score_from_epoch

    graph, core, estimates = base
    n = graph.num_nodes
    d = _daemon(base, tmp_path)
    assert d.store.current.lookup is None  # no per-host name table
    table = {f"node{i}": i for i in range(n)}
    reference = Epoch(0, graph, estimates, lookup=table)
    for host in (h.format(last=n - 1, n=n) for h in RESOLUTION_HOSTS):
        if host not in table:
            for query in (d.query_score, d.query_explain):
                with pytest.raises(KeyError) as info:
                    query(host)
                assert info.value.args == (host,)
            continue
        got = d.query_score(host)
        want = score_from_epoch(reference, host)
        assert {key: got[key] for key in want} == want
        expected = explain_mass(
            graph, table[host], core, damping=estimates.damping, top=3
        ).render(graph)
        assert d.query_explain(host, top=3)["text"] == expected


def test_load_rejects_core_host_past_the_last_node(base, world, tmp_path):
    from repro.errors import DeltaError

    graph, _, _ = base
    world_dir, _ = world
    core_path = tmp_path / "core.hosts"
    write_host_list(["node0", f"node{graph.num_nodes}"], core_path)
    with pytest.raises(DeltaError) as info:
        ScoringDaemon.load(world_dir, _fresh_ckpt(world, tmp_path),
                           core_path=core_path, wal_dir=tmp_path / "wal")
    assert str(info.value) == (
        f"1 core hosts are not in the graph (first: 'node{graph.num_nodes}')"
    )


def test_named_world_resolves_core_and_hosts_by_name(base, world, tmp_path):
    from repro.errors import DeltaError
    from repro.graph import WebGraph

    graph, core, _ = base
    names = [f"h{i}.example" for i in range(graph.num_nodes)]
    named = WebGraph(graph.indptr, graph.indices, names, validate=False)
    world_dir = write_graph_bundle(named, tmp_path / "named")
    write_host_list([names[i] for i in core], world_dir / "core.hosts")
    d = ScoringDaemon.load(world_dir, _fresh_ckpt(world, tmp_path),
                           wal_dir=tmp_path / "wal")
    assert np.array_equal(d.core, core)
    assert d.store.current.lookup == {name: i for i, name in enumerate(names)}
    assert d.query_score("h3.example")["node"] == 3
    with pytest.raises(KeyError):
        d.query_score("node3")
    write_host_list(["h0.example", "node0"], tmp_path / "core.hosts")
    with pytest.raises(DeltaError, match=r"^1 core hosts are not in the "
                       r"graph \(first: 'node0'\)$"):
        ScoringDaemon.load(world_dir, _fresh_ckpt(world, tmp_path / "x"),
                           core_path=tmp_path / "core.hosts",
                           wal_dir=tmp_path / "wal2")


def test_health_reports_serving_state(base, tmp_path):
    d = _daemon(base, tmp_path)
    health = d.health()
    assert health["ready"] is True
    assert health["circuit"] == "closed"
    assert health["mode"] == "full"


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------


def test_applied_deltas_match_cold_resolve(base, tmp_path):
    graph, core, _ = base
    d = _daemon(base, tmp_path)
    for ins, dels in DELTAS:
        ack = d.submit_delta(ins, dels)
        assert ack["accepted"] is True
    assert d.staleness == 3
    assert d.apply_pending() == 3
    assert d.staleness == 0
    assert d.store.current.seq == 3
    cold = estimate_spam_mass(d.store.current.graph, core, gamma=GAMMA)
    assert np.abs(
        d.store.current.estimates.pagerank - cold.pagerank
    ).max() <= 1e-11
    assert np.abs(
        d.store.current.estimates.core_pagerank - cold.core_pagerank
    ).max() <= 1e-11


def test_batched_apply_coalesces_the_queue(base, tmp_path):
    """``batch_deltas=N`` drains N queued deltas per apply.

    One composed warm solve covers the whole batch: the epoch/WAL
    watermark jump to the last coalesced record, and scores match a
    cold re-solve of the final graph.
    """
    graph, core, _ = base
    d = _daemon(base, tmp_path, batch_deltas=2)
    for ins, dels in DELTAS:
        d.submit_delta(ins, dels)
    assert d.staleness == 3
    assert d.apply_pending() == 2  # batch of 2 + batch of 1
    assert d.applies == 2
    assert d.staleness == 0
    assert d.store.current.wal_seq == 3
    assert d.wal.applied_seq() == 3
    cold = estimate_spam_mass(d.store.current.graph, core, gamma=GAMMA)
    assert np.abs(
        d.store.current.estimates.pagerank - cold.pagerank
    ).max() <= 1e-11


def test_batched_apply_scores_match_unbatched(base, tmp_path):
    """Coalescing changes epoch cadence, not where the scores land."""
    one = _daemon(base, tmp_path / "one")
    many = _daemon(base, tmp_path / "many", batch_deltas=3)
    for daemon in (one, many):
        for ins, dels in DELTAS:
            daemon.submit_delta(ins, dels)
        daemon.apply_pending()
    assert one.store.current.wal_seq == many.store.current.wal_seq
    assert (
        one.store.current.fingerprint == many.store.current.fingerprint
    )
    assert np.abs(
        one.store.current.estimates.pagerank
        - many.store.current.estimates.pagerank
    ).max() <= 1e-11


def test_config_rejects_nonpositive_batch(base, tmp_path):
    with pytest.raises(ValueError, match="batch_deltas"):
        DaemonConfig(batch_deltas=0)


def test_background_worker_applies(base, tmp_path):
    d = _daemon(base, tmp_path)
    d.start()
    try:
        d.submit_delta(*DELTAS[0])
        deadline = time.monotonic() + 30
        while d.staleness and time.monotonic() < deadline:
            time.sleep(0.02)
        assert d.staleness == 0
        assert d.store.current.seq == 1
        assert d.wal.applied_seq() == 1
    finally:
        d.close()


def test_ack_means_durable(base, tmp_path):
    d = _daemon(base, tmp_path)
    d.submit_delta(*DELTAS[0])
    records, dropped = DeltaWAL(tmp_path / "wal").recover()
    assert dropped == 0 and len(records) == 1
    assert records[0].after == d._tail.structural_fingerprint()


def test_staleness_bound_degrades_ingest_not_reads(base, tmp_path):
    graph, _, _ = base
    d = _daemon(base, tmp_path, max_staleness=1)
    d.submit_delta(*DELTAS[0])
    d.submit_delta(*DELTAS[1])
    assert d.degraded is True
    with pytest.raises(WalError, match="degraded"):
        d.submit_delta(*DELTAS[2])
    # reads keep flowing, with the staleness visible
    got = d.query_score(graph.name_of(3))
    assert got["mode"] == "degraded" and got["staleness"] == 2
    d.apply_pending()
    assert d.degraded is False
    d.submit_delta(*DELTAS[2])


# ----------------------------------------------------------------------
# chaos: kill-mid-swap, circuit breaker, degrade-to-cold
# ----------------------------------------------------------------------


def test_kill_mid_swap_keeps_previous_epoch(base, tmp_path):
    graph, _, _ = base
    d = _daemon(base, tmp_path)
    d.chaos = ServeChaos(kill_swap_on=(1,))
    d.submit_delta(*DELTAS[0])
    before = d.store.current
    assert d._apply_one() is False
    # readers still see the old epoch, the record is still pending
    assert d.store.current is before
    assert d.staleness == 1 and d.apply_failures == 1
    assert d.wal.applied_seq() == 0
    # the fault is spent; the retry lands the swap
    assert d._apply_one() is True
    assert d.store.current.seq == 1 and d.staleness == 0
    assert d.wal.applied_seq() == 1


def test_repeated_failure_opens_circuit_then_heals(base, tmp_path):
    graph, _, _ = base
    d = _daemon(base, tmp_path, circuit_threshold=2)
    d.chaos = ServeChaos(fail_apply_on=(1,), once=False)
    d.submit_delta(*DELTAS[0])
    assert d._apply_one() is False
    assert d.degraded is False  # one failure: breaker still closed
    assert d._apply_one() is False
    assert d.degraded is True
    assert d.health()["circuit"] == "open"
    with pytest.raises(WalError):
        d.submit_delta(*DELTAS[1])
    # reads survive the whole time
    assert d.query_score(graph.name_of(3))["mode"] == "degraded"
    # the operator fixes the fault; the next retry closes the circuit
    d.chaos = None
    assert d._apply_one() is True
    assert d.degraded is False
    assert d.health()["circuit"] == "closed"
    d.submit_delta(*DELTAS[1])


class _WarmPathDownEngine(PagerankEngine):
    """An engine whose incremental path always fails."""

    def update_many(self, *args, **kwargs):
        raise InjectedFault("warm path down")


def test_warm_failure_degrades_to_cold_resolve(base, tmp_path):
    graph, core, estimates = base
    d = ScoringDaemon(
        graph, core, estimates,
        checkpoint_dir=tmp_path / "ckpt",
        wal=DeltaWAL(tmp_path / "wal"),
        config=DaemonConfig(ingest_retries=0),
        engine=_WarmPathDownEngine(),
    )
    d.submit_delta(*DELTAS[0])
    assert d._apply_one() is True
    assert d.degraded_applies == 1
    cold = estimate_spam_mass(d.store.current.graph, core, gamma=GAMMA)
    assert np.abs(
        d.store.current.estimates.pagerank - cold.pagerank
    ).max() <= 1e-11


def test_no_degrade_forbids_cold_fallback(base, tmp_path):
    graph, core, estimates = base
    d = ScoringDaemon(
        graph, core, estimates,
        checkpoint_dir=tmp_path / "ckpt",
        wal=DeltaWAL(tmp_path / "wal"),
        config=DaemonConfig(ingest_retries=0, allow_degrade=False),
        engine=_WarmPathDownEngine(),
    )
    d.submit_delta(*DELTAS[0])
    assert d._apply_one() is False
    assert d.apply_failures == 1 and d.staleness == 1


def test_poisoned_epoch_rolls_back_on_health_probe(base, tmp_path):
    d = _daemon(base, tmp_path)
    d.submit_delta(*DELTAS[0])
    d.apply_pending()
    # simulate post-publish memory corruption of the live epoch
    d.store.current.estimates.pagerank[0] = np.nan
    health = d.health()
    assert health["poisoned_epoch_rolled_back"] is True
    assert health["epoch"] == 0
    assert d.store.rollbacks == 1


# ----------------------------------------------------------------------
# restart / replay
# ----------------------------------------------------------------------


def test_restart_replays_to_bitwise_identical_scores(base, world, tmp_path):
    _, core, _ = base
    ckpt = _fresh_ckpt(world, tmp_path)
    world_dir, _ = world

    # reference run: all three deltas applied in one life
    ref = ScoringDaemon.load(world_dir, ckpt, wal_dir=tmp_path / "ref-wal")
    for ins, dels in DELTAS:
        ref.submit_delta(ins, dels)
    ref.apply_pending()
    reference = ref.store.current.estimates.pagerank.copy()
    reference_core = ref.store.current.estimates.core_pagerank.copy()

    # crashing run: same deltas accepted, only two applied, and the
    # watermark is rolled back to simulate a crash between apply #2
    # and its watermark fsync
    ckpt2 = _fresh_ckpt(world, tmp_path / "b")
    d1 = ScoringDaemon.load(world_dir, ckpt2, wal_dir=tmp_path / "wal2")
    for ins, dels in DELTAS:
        d1.submit_delta(ins, dels)
    d1._apply_one()
    d1._apply_one()
    d1.wal.mark_applied(1)

    d2 = ScoringDaemon.load(world_dir, ckpt2, wal_dir=tmp_path / "wal2")
    # the applied prefix was deduped by fingerprint, not re-applied
    assert d2.staleness == 1
    assert d2.store.current.seq == 0  # epoch numbering restarts per life
    assert d2.wal.applied_seq() == 2  # watermark caught up
    # loaded scores are bitwise what the crashed instance had
    assert np.array_equal(
        d2.store.current.estimates.pagerank,
        d1.store.current.estimates.pagerank,
    )
    d2.apply_pending()
    assert np.array_equal(d2.store.current.estimates.pagerank, reference)
    assert np.array_equal(
        d2.store.current.estimates.core_pagerank, reference_core
    )

    # a third life replays nothing: double-apply is a no-op
    d3 = ScoringDaemon.load(world_dir, ckpt2, wal_dir=tmp_path / "wal2")
    assert d3.staleness == 0
    assert np.array_equal(d3.store.current.estimates.pagerank, reference)


def test_restart_repairs_torn_wal_tail(base, world, tmp_path):
    world_dir, _ = world
    ckpt = _fresh_ckpt(world, tmp_path)
    d1 = ScoringDaemon.load(world_dir, ckpt, wal_dir=tmp_path / "wal")
    d1.submit_delta(*DELTAS[0])
    d1.submit_delta(*DELTAS[1])
    truncate_wal_tail(d1.wal.segment_path, 9)
    d2 = ScoringDaemon.load(world_dir, ckpt, wal_dir=tmp_path / "wal")
    # the torn (never-acknowledged... from the client's view the crash
    # raced the ack) record is gone; the intact one replays
    assert d2.staleness == 1
    assert d2._pending[0].record.seq == 1


def test_load_rejects_wrong_world_with_both_fingerprints(
    base, world, tmp_path
):
    world_dir, _ = world
    other = _random_graph(23, 80, 300)
    ckpt = tmp_path / "ckpt"
    rng = np.random.default_rng(0)
    scores = rng.random((other.num_nodes, 2)) + 0.01
    save_solution(
        ckpt, scores, fingerprint=other.structural_fingerprint(),
        extra={"damping": 0.85, "gamma": GAMMA,
               "labels": ["pagerank", "core"]},
    )
    with pytest.raises(SnapshotMismatchError) as info:
        ScoringDaemon.load(world_dir, ckpt, wal_dir=tmp_path / "wal")
    assert info.value.expected and info.value.actual
    assert info.value.expected in str(info.value)
    assert info.value.actual in str(info.value)


# ----------------------------------------------------------------------
# socket server
# ----------------------------------------------------------------------


@pytest.fixture()
def server(base, tmp_path):
    d = _daemon(base, tmp_path)
    srv = ScoringServer(d, tmp_path / "serve.sock", max_queue=16,
                        workers=2)
    srv.start()
    try:
        yield srv
    finally:
        srv.stop()


def test_server_round_trip(base, server, tmp_path):
    graph, _, _ = base
    with ServeClient(server.socket_path) as client:
        health = client.health()
        assert health["ok"] is True and health["mode"] == "full"
        score = client.score(graph.name_of(3))
        assert score["ok"] is True
        assert score["staleness"] == 0
        top = client.top(3, tau=0.0, rho=0.0)
        assert top["ok"] is True and len(top["candidates"]) == 3
        explain = client.explain(graph.name_of(3), top=3)
        assert explain["ok"] is True and graph.name_of(3) in explain["text"]
        assert client.score("nope")["error"] == "unknown-host"
        # a request that names no host is malformed, not an unknown host
        assert client.request({"op": "score"})["error"] == "bad-request"
        assert client.request({"op": "explain"})["error"] == "bad-request"
        assert client.request({"op": "wat"})["error"] == "bad-request"
        assert "replication" not in client.stats()
        assert client.request({"op": "top", "k": -1})["error"] == (
            "bad-request"
        )


def test_server_ingest_applies_in_background(base, server):
    with ServeClient(server.socket_path) as client:
        ack = client.ingest([[0, 5], [1, 7]])
        assert ack["ok"] is True and ack["seq"] == 1
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            stats = client.stats()
            if stats["staleness"] == 0 and stats["applies"] >= 1:
                break
            time.sleep(0.05)
        assert stats["applies"] == 1
        assert stats["epoch"] == 1


def test_server_drain_rejects_then_closes(base, server):
    client = ServeClient(server.socket_path)
    assert client.health()["ok"] is True
    server.stop()
    assert not server.socket_path.exists()
    assert server.wait(1.0) is True
    client.close()


def test_score_p99_unmoved_by_explain_storm(base, tmp_path, monkeypatch):
    """Regression: slow explains get their own lane, score stays fast."""
    daemon = _daemon(base, tmp_path)
    slow = threading.Event()

    real_explain = daemon.query_explain

    def glacial_explain(host, *, top=10):
        slow.set()
        time.sleep(0.5)
        return real_explain(host, top=top)

    monkeypatch.setattr(daemon, "query_explain", glacial_explain)
    server = ScoringServer(
        daemon, tmp_path / "sock", workers=2, slow_workers=1
    )
    server.start()
    try:
        graph, _, _ = base
        host = graph.name_of(3)

        def storm():
            with ServeClient(tmp_path / "sock") as client:
                client.explain(host)

        stormers = [
            threading.Thread(target=storm, daemon=True) for _ in range(3)
        ]
        for t in stormers:
            t.start()
        assert slow.wait(5.0)  # an explain is occupying the slow lane
        with ServeClient(tmp_path / "sock") as client:
            started = time.monotonic()
            for _ in range(10):
                assert client.score(host)["ok"]
            elapsed = time.monotonic() - started
        # 10 score round-trips complete while the first explain is
        # still sleeping — far under one explain's 0.5 s
        assert elapsed < 0.45, f"score latency moved: {elapsed:.3f}s"
        for t in stormers:
            t.join(10.0)
        stats = server.stats()
        assert stats["slow_shed"] == 0
    finally:
        server.stop()


def test_concurrent_reads_never_tear(base, tmp_path):
    """Hammer reads from threads while deltas land; every response must
    be internally consistent (epoch fingerprint matches a published
    epoch, scores finite)."""
    graph, _, _ = base
    d = _daemon(base, tmp_path)
    d.start()
    seen = []
    stop = threading.Event()

    def _reader():
        while not stop.is_set():
            got = d.query_score(graph.name_of(7))
            seen.append((got["epoch"], got["fingerprint"],
                         got["pagerank"]))

    threads = [threading.Thread(target=_reader) for _ in range(4)]
    for t in threads:
        t.start()
    try:
        for ins, dels in DELTAS:
            d.submit_delta(ins, dels)
        deadline = time.monotonic() + 60
        while d.staleness and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        stop.set()
        for t in threads:
            t.join()
        d.close()
    assert d.staleness == 0
    fingerprints = {}
    for epoch_seq, fingerprint, pagerank in seen:
        assert np.isfinite(pagerank)
        # one fingerprint per epoch, ever — a torn read would pair an
        # epoch seq with the wrong graph
        assert fingerprints.setdefault(epoch_seq, fingerprint) == (
            fingerprint
        )
    assert len(fingerprints) >= 1
