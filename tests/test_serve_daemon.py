"""Daemon-level contracts: queries, ingest, crash recovery.

The acceptance story under test, end to end but in-process: queries
answer from one immutable epoch; an accepted delta is durable before
it is acknowledged; a warm apply matches a cold re-solve; kill-mid-swap
leaves readers on the previous epoch; repeated ingest failure opens the
circuit and degrades to stale-reads-only (reads stay available); and a
restart replays the WAL to bitwise-identical scores — after a crash
between two applies, after any number of applies, after a quarantine
cut the dropped records off the log, and after a crash at any step of
a re-anchor, from which it replays at most one anchor interval.
"""

import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.mass import estimate_spam_mass
from repro.errors import InjectedFault, SnapshotMismatchError, WalError
from repro.obs.telemetry import capture
from repro.graph import write_graph_bundle, write_host_list
from repro.perf import PagerankEngine
from repro.runtime import load_solution, save_solution
from repro.runtime.chaos import ServeChaos, truncate_wal_tail
from repro.serve import (
    DaemonConfig,
    DeltaWAL,
    ScoringDaemon,
    ScoringServer,
    ServeClient,
)
import repro.serve.daemon as serve_daemon
from repro.serve.daemon import ANCHOR_FILENAME
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
    # nothing to roll back: published epochs are read-only
    assert "poisoned_epoch_rolled_back" not in health
    assert "rollbacks" not in health


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

    One composed warm solve covers the whole batch: the epoch and the
    saved snapshot jump to the last coalesced record, and scores match
    a cold re-solve of the final graph.
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
    assert load_solution(tmp_path / "ckpt").meta["wal_seq"] == 3
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


@pytest.mark.parametrize(
    "gates", [{"tau": float("nan")}, {"rho": float("nan")},
              {"rho": float("-inf")}, {"tau": float("inf")}],
)
def test_config_rejects_non_finite_gates(gates):
    with pytest.raises(ValueError, match="finite"):
        DaemonConfig(**gates)


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
        assert load_solution(tmp_path / "ckpt").meta["wal_seq"] == 1
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


def test_refusal_past_the_staleness_bound_names_it(base, tmp_path):
    """The daemon takes up to ``max_staleness`` unapplied deltas and
    refuses the next submit, naming the bound rather than a circuit
    it never opened."""
    d = _daemon(base, tmp_path, max_staleness=2)
    for ins, dels in DELTAS:
        d.submit_delta(ins, dels)
    with pytest.raises(WalError, match="3 unapplied .* max_staleness 2"):
        d.submit_delta([], [(3, 11)])
    assert d.staleness == 3


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
    assert not (tmp_path / "ckpt").exists()  # nothing saved
    # the fault is spent; the retry lands the swap
    assert d._apply_one() is True
    assert d.store.current.seq == 1 and d.staleness == 0
    assert load_solution(tmp_path / "ckpt").meta["wal_seq"] == 1


def test_repeated_failure_opens_circuit_then_heals(
    base, tmp_path, monkeypatch
):
    graph, _, _ = base
    monkeypatch.setattr(serve_daemon, "CIRCUIT_THRESHOLD", 2)
    d = _daemon(base, tmp_path)
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


def test_circuit_breaker_opens_once_and_resets_on_success(base, tmp_path):
    """The circuit opens on the third *consecutive* apply failure (a
    success in between resets the count), ``serve.circuit_open`` fires
    once per opening, and a success closes it again."""
    d = _daemon(base, tmp_path)

    def failures(seq, count):
        d.chaos = ServeChaos(fail_apply_on=(seq,), once=False)
        for _ in range(count):
            assert d._apply_one() is False
        d.chaos = None

    with capture() as tele:
        d.submit_delta(*DELTAS[0])
        failures(1, 2)
        assert d._apply_one() is True  # success resets the count
        d.submit_delta(*DELTAS[1])
        failures(2, 2)
        assert d.degraded is False
        failures(2, 1)  # the third consecutive failure opens it
        assert d.degraded is True and d.health()["circuit"] == "open"
        failures(2, 1)  # opens exactly once
        assert len(tele.sink.named("serve.circuit_open")) == 1
        assert tele.metrics.value("serve.circuit_state") == 1
        assert d._apply_one() is True
        assert d.degraded is False and d.health()["circuit"] == "closed"
        assert tele.metrics.value("serve.circuit_state") == 0
        assert d.apply_failures == 6


class _WarmPathDownEngine(PagerankEngine):
    """An engine whose incremental path always fails."""

    def __init__(self):
        super().__init__()
        self.warm_calls = 0

    def update_many(self, *args, **kwargs):
        self.warm_calls += 1
        raise InjectedFault("warm path down")


def test_warm_failure_degrades_to_cold_resolve(base, tmp_path):
    """A warm failure repeats on the same inputs, so it runs once and
    the apply falls back to one cold solve."""
    graph, core, estimates = base
    engine = _WarmPathDownEngine()
    d = ScoringDaemon(
        graph, core, estimates,
        checkpoint_dir=tmp_path / "ckpt",
        wal=DeltaWAL(tmp_path / "wal"),
        config=DaemonConfig(),
        engine=engine,
    )
    d.submit_delta(*DELTAS[0])
    assert d._apply_one() is True
    assert engine.warm_calls == 1
    assert d.degraded_applies == 1
    cold = estimate_spam_mass(d.store.current.graph, core, gamma=GAMMA)
    assert np.abs(
        d.store.current.estimates.pagerank - cold.pagerank
    ).max() <= 1e-11


# ----------------------------------------------------------------------
# operator memory
# ----------------------------------------------------------------------


def _fresh_insertions(graph, rng, count=3):
    sources = np.repeat(np.arange(graph.num_nodes), graph.out_degree())
    existing = set(zip(sources.tolist(), graph.indices.tolist()))
    edges = set()
    while len(edges) < count:
        u, v = (int(x) for x in rng.integers(graph.num_nodes, size=2))
        if u != v and (u, v) not in existing:
            edges.add((u, v))
    return sorted(edges)


def test_daemon_engine_keeps_one_operator_bundle(base, tmp_path):
    """A daemon built without an engine caches the tip's bundle alone.
    The retry after a failed swap finds the operator it derived; the
    apply after a quarantine builds cold once and lands bitwise on the
    scores of a daemon that never saw the dropped delta."""
    d = _daemon(base, tmp_path / "a")
    clean = _daemon(base, tmp_path / "b")
    cache = d.engine.cache
    assert cache.maxsize == 1
    rng = np.random.default_rng(17)
    for step in range(10):
        edges = _fresh_insertions(d._tail, rng)
        seq = d.submit_delta(edges)["seq"]
        if step == 6:
            # fails for good: the cached bundle is the dropped graph's
            d.chaos = ServeChaos(kill_swap_on=(seq,), once=False)
            assert d._apply_one() is False
            d.quarantine_pending()
            d.chaos = None
            continue
        clean.submit_delta(edges)
        assert clean._apply_one() is True
        if step == 3:
            # fails after deriving its operator
            d.chaos = ServeChaos(kill_swap_on=(seq,))
            assert d._apply_one() is False
        counts = (cache.hits, cache.derives, cache.misses)
        assert d._apply_one() is True
        assert len(cache) == 1
        hits, derives, misses = (
            now - then
            for now, then in zip(
                (cache.hits, cache.derives, cache.misses), counts
            )
        )
        if step == 3:
            assert (hits, derives, misses) == (1, 0, 0)  # the retry
        elif step in (0, 7):
            # no parent resident: the first apply, and the one after
            # the quarantine, build cold
            assert (hits, derives, misses) == (0, 0, 1)
        else:
            assert (hits, derives, misses) == (0, 1, 0)
    assert d.applies == clean.applies == 9
    for name in ("pagerank", "core_pagerank"):
        assert np.array_equal(
            getattr(d.store.current.estimates, name),
            getattr(clean.store.current.estimates, name),
        )


#: Runs ``windows`` 16-edge deltas through a daemon on a seeded world
#: of ``hosts`` hosts and prints, in JSON: the peak RSS after each
#: window and the size of the cached operator bundle, in MiB; and, with
#: ``trace`` as the third argument, the memory tracemalloc sees held
#: after each window and the rise of each apply's peak above what was
#: held before it, in units of one restricted operator (``nnz`` entries
#: of a float64 and an int32 plus both blocks' int32 row pointers).
_MEMORY_SCRIPT = """
import json, resource, sys, tracemalloc
import numpy as np
from repro.core.mass import estimate_spam_mass
from repro.graph import WebGraph
from repro.serve import ScoringDaemon
from repro.synth.huge import huge_good_core, iter_huge_edges
from repro.synth.scenario import WorldConfig

hosts, windows = int(sys.argv[1]), int(sys.argv[2])
traced = sys.argv[3:] == ["trace"]
config = WorldConfig(13, num_base_hosts=hosts, mean_outdegree=6.0,
                     directory_size=hosts // 10, gov_size=hosts // 10)
graph = WebGraph.from_edges(hosts, np.concatenate(list(iter_huge_edges(config))))
core = huge_good_core(config)
estimates = estimate_spam_mass(graph, core)
unit = graph.num_edges * 12 + (graph.num_nodes + 2) * 4
rng = np.random.default_rng(13)
live = np.flatnonzero(graph.out_degree() > 0)
if traced:
    tracemalloc.start()
daemon = ScoringDaemon(graph, core, estimates)
peaks, held, rises = [], [], []
for _ in range(windows):
    tip = daemon.store.current.graph
    insertions, deletions = [], []
    for i, u in enumerate(rng.choice(live, 16, replace=False)):
        row = tip.indices[tip.indptr[u]:tip.indptr[u + 1]]
        v = int(rng.integers(hosts))
        if i < 6 and len(row):
            deletions.append((int(u), int(row[0])))
        elif v != u and v not in row:
            insertions.append((int(u), v))
    del tip, row  # a row is a view: it would keep the old graph alive
    daemon.submit_delta(insertions, deletions)
    if traced:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
    assert daemon.apply_pending() == 1
    if traced:
        current, peak = tracemalloc.get_traced_memory()
        held.append(current / unit)
        rises.append((peak - before) / unit)
    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
bundle = daemon.engine.cache.bundle_for(daemon.store.current.graph)
print(json.dumps({"peaks": peaks, "bundle_mib": bundle.nbytes() / 2**20,
                  "held": held, "rises": rises}))
"""


def _run_memory_script(*args):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _MEMORY_SCRIPT, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_daemon_memory_stays_flat_over_windows_at_200k_hosts():
    """The cached bundle is ~17 MB at 200k hosts; from the third window
    on, peak RSS must grow by less than one bundle."""
    out = _run_memory_script("200000", "12")
    peaks = out["peaks"]
    assert len(peaks) == 12
    assert peaks[11] - peaks[2] < out["bundle_mib"], out


def test_daemon_holds_the_operator_once_at_200k_hosts():
    """Between windows the daemon holds its graph, its scores and one
    bundle that holds the operator once: under 3 operators' worth,
    where a second cached bundle or a full ``Tᵀ`` beside the blocks
    adds one each.  An apply rises less than 3 operators above that:
    the spliced bundle, the graph-sized push state and, with no n×n
    scatter operator built, nothing of the operator's size besides.
    Measured: 2.38 held and rises of 2.3–2.4, against 5.50 and 4.2
    with two cached bundles that each kept ``Tᵀ`` beside its blocks."""
    out = _run_memory_script("200000", "6", "trace")
    held, rises = out["held"], out["rises"]
    assert len(held) == len(rises) == 6
    # the first apply builds the operator cold: no parent is cached
    assert max(held[1:]) < 3.0, out
    assert max(rises[1:]) < 3.0, out


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

    # crashing run: same deltas accepted, only two applied, then the
    # crash
    ckpt2 = _fresh_ckpt(world, tmp_path / "b")
    d1 = ScoringDaemon.load(world_dir, ckpt2, wal_dir=tmp_path / "wal2")
    for ins, dels in DELTAS:
        d1.submit_delta(ins, dels)
    d1._apply_one()
    d1._apply_one()

    d2 = ScoringDaemon.load(world_dir, ckpt2, wal_dir=tmp_path / "wal2")
    # the applied prefix was deduped by fingerprint, not re-applied
    assert d2.staleness == 1
    assert d2.store.current.seq == 0  # epoch numbering restarts per life
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


def _fresh_deltas(graph, count):
    """``count`` single-edge insertions of edges the graph lacks."""
    present = set(zip(
        np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr)),
        graph.indices,
    ))
    out = []
    for u in range(graph.num_nodes):
        for v in range(graph.num_nodes):
            if u != v and (u, v) not in present and len(out) < count:
                out.append(([(u, v)], []))
    return out


def _assert_restarts_at_the_snapshot(world_dir, ckpt, next_delta):
    """A new life comes up at the saved snapshot, bitwise, with nothing
    to replay, and applies the next delta."""
    snapshot = load_solution(ckpt)
    d = ScoringDaemon.load(world_dir, ckpt)
    assert d.staleness == 0
    assert d.store.current.fingerprint == snapshot.meta["fingerprint"]
    assert np.array_equal(
        d.store.current.estimates.pagerank, snapshot.scores[:, 0]
    )
    assert np.array_equal(
        d.store.current.estimates.core_pagerank, snapshot.scores[:, 1]
    )
    d.submit_delta(*next_delta)
    assert d.apply_pending() == 1
    assert d.store.current.wal_seq == snapshot.meta["wal_seq"] + 1


def test_restart_after_many_applies_with_the_default_config(
    base, world, tmp_path
):
    """The WAL keeps every record since the world bundle: a restart
    after more applies than any periodic cleanup would wait for still
    links the bundle to the snapshot."""
    graph, _, _ = base
    world_dir, _ = world
    ckpt = _fresh_ckpt(world, tmp_path)
    deltas = _fresh_deltas(graph, 34)
    d = ScoringDaemon.load(world_dir, ckpt, config=DaemonConfig())
    for ins, dels in deltas[:33]:
        d.submit_delta(ins, dels)
        assert d.apply_pending() == 1
    _assert_restarts_at_the_snapshot(world_dir, ckpt, deltas[33])
    records, _ = DeltaWAL(ckpt / "wal").recover()
    assert [r.seq for r in records] == list(range(1, 35))


def test_restart_after_an_applied_then_a_quarantined_delta(
    base, world, tmp_path
):
    """A quarantine cuts the dropped record off the segment, which then
    ends at the last applied record; a restart comes up there."""
    graph, _, _ = base
    world_dir, _ = world
    ckpt = _fresh_ckpt(world, tmp_path)
    first, poison, after = _fresh_deltas(graph, 3)
    d = ScoringDaemon.load(
        world_dir, ckpt, chaos=ServeChaos(fail_apply_on=(2,), once=False)
    )
    d.submit_delta(*first)
    assert d.apply_pending() == 1
    applied = d.wal.segment_path.read_bytes()
    d.submit_delta(*poison)
    assert d.apply_pending() == 0
    assert [r.seq for r in d.quarantine_pending()] == [2]
    segment = d.wal.segment_path.read_bytes()
    _assert_restarts_at_the_snapshot(world_dir, ckpt, after)
    assert segment == applied


def test_restart_after_an_edge_inserted_then_deleted(base, world, tmp_path):
    """The snapshot's graph recurs in the WAL chain: one record inserts
    an edge and the next deletes it, so the snapshot after both has the
    bundle's fingerprint.  Its ``wal_seq`` places it after both
    records: a restart replays nothing and goes on bitwise as the
    uninterrupted run does.  A ``wal_seq`` whose record does not end at
    the snapshot's fingerprint refuses to load."""
    graph, _, _ = base
    world_dir, _ = world
    (edge,), _ = _fresh_deltas(graph, 1)[0]
    deltas = [([edge], []), ([], [edge]), _fresh_deltas(graph, 2)[1]]
    ref = _run(world_dir, _fresh_ckpt(world, tmp_path / "ref"), deltas)

    ckpt = _fresh_ckpt(world, tmp_path)
    first = _run(world_dir, ckpt, deltas[:2])
    assert first.store.current.fingerprint == graph.structural_fingerprint()
    restarted = ScoringDaemon.load(world_dir, ckpt)
    assert restarted.staleness == 0
    assert restarted.store.current.wal_seq == 2
    restarted.submit_delta(*deltas[2])
    assert restarted.apply_pending() == 1
    for name in ("pagerank", "core_pagerank"):
        assert np.array_equal(
            getattr(restarted.store.current.estimates, name),
            getattr(ref.store.current.estimates, name),
        )

    snapshot = load_solution(ckpt)
    save_solution(
        ckpt, snapshot.scores,
        fingerprint=snapshot.fingerprint,
        extra={**snapshot.meta, "wal_seq": 2},
    )
    with pytest.raises(WalError, match="wal seq 2"):
        ScoringDaemon.load(world_dir, ckpt)


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


# ----------------------------------------------------------------------
# re-anchoring
# ----------------------------------------------------------------------

#: the anchor interval of the re-anchor tests
K = 4


def _restart(world_dir, ckpt, **kw):
    """A new life on ``ckpt``, and its ``serve.wal_replay`` attrs:
    ``folded`` records spliced onto its start, ``pending`` enqueued."""
    with capture() as tele:
        daemon = ScoringDaemon.load(world_dir, ckpt, **kw)
    (replay,) = tele.sink.named("serve.wal_replay")
    return daemon, replay.attrs


def _layout(ckpt):
    return sorted(path.name for path in (ckpt / "wal").iterdir())


def _run(world_dir, ckpt, deltas, **kw):
    d = ScoringDaemon.load(world_dir, ckpt, **kw)
    for ins, dels in deltas:
        d.submit_delta(ins, dels)
        assert d.apply_pending() == 1
    return d


@pytest.mark.parametrize("step", ["anchor", "switch", "delete"])
def test_a_crash_at_each_reanchor_step_restarts_bitwise(
    base, world, tmp_path, monkeypatch, step
):
    """A crash after the anchor is written, after the segment based on
    it went live, or after the old segment was deleted restarts at the
    snapshot from the anchor, replaying nothing, and goes on to the
    uninterrupted run's scores, bitwise."""
    monkeypatch.setattr(serve_daemon, "ANCHOR_EVERY", K)
    graph, _, _ = base
    world_dir, _ = world
    deltas = _fresh_deltas(graph, 2 * K + 2)
    ref = _run(world_dir, _fresh_ckpt(world, tmp_path / "ref"), deltas)
    reference = ref.store.current

    ckpt = _fresh_ckpt(world, tmp_path / "crash")
    chaos = ServeChaos(kill_anchor_on=[(K, step)])
    d = _run(world_dir, ckpt, deltas[:K], chaos=chaos)
    assert chaos.fired == [(step, K)]
    based = f"wal-{K:012d}.jsonl"
    assert _layout(ckpt) == {
        "anchor": ["wal.jsonl"],
        "switch": [based, "wal.jsonl"],
        "delete": [based],
    }[step]
    assert (ckpt / ANCHOR_FILENAME).exists()
    del d  # the crash

    restarted, replay = _restart(world_dir, ckpt)
    assert (replay["folded"], replay["pending"]) == (0, 0)
    assert restarted.staleness == 0
    assert restarted.store.current.wal_seq == K
    assert restarted.store.current.fingerprint == (
        load_solution(ckpt).meta["fingerprint"]
    )
    for ins, dels in deltas[K:]:
        restarted.submit_delta(ins, dels)
        assert restarted.apply_pending() == 1
    epoch = restarted.store.current
    assert epoch.fingerprint == reference.fingerprint
    assert epoch.graph == reference.graph
    assert np.array_equal(
        epoch.estimates.pagerank, reference.estimates.pagerank
    )
    assert np.array_equal(
        epoch.estimates.core_pagerank, reference.estimates.core_pagerank
    )
    assert _layout(ckpt) == [f"wal-{2 * K + (step == 'anchor'):012d}.jsonl"]


def test_a_reanchor_carries_the_pending_records(
    base, world, tmp_path, monkeypatch
):
    """Records accepted but not applied when the daemon re-anchors
    move to the new segment byte for byte, after its header; a restart
    replays them onto the anchor."""
    monkeypatch.setattr(serve_daemon, "ANCHOR_EVERY", K)
    graph, _, _ = base
    world_dir, _ = world
    deltas = _fresh_deltas(graph, K + 2)
    ref = _run(world_dir, _fresh_ckpt(world, tmp_path / "ref"), deltas)

    ckpt = _fresh_ckpt(world, tmp_path / "carry")
    d = _run(world_dir, ckpt, deltas[:K - 1])
    for ins, dels in deltas[K - 1:]:
        d.submit_delta(ins, dels)
    pending = d.wal.segment_path.read_bytes().splitlines(keepends=True)[K:]
    assert d._apply_one()
    assert _layout(ckpt) == [f"wal-{K:012d}.jsonl"]
    lines = d.wal.segment_path.read_bytes().splitlines(keepends=True)
    header = json.loads(lines[0])
    assert header["base"] == K
    assert header["origin"] == graph.structural_fingerprint()
    assert header["after"] == d.store.current.fingerprint
    assert lines[1:] == pending
    del d

    restarted, replay = _restart(world_dir, ckpt)
    assert (replay["folded"], replay["pending"]) == (0, 2)
    assert restarted.staleness == 2
    assert restarted.apply_pending() == 2
    assert np.array_equal(
        restarted.store.current.estimates.pagerank,
        ref.store.current.estimates.pagerank,
    )


def test_an_unusable_anchor_under_a_based_segment_refuses_to_load(
    base, world, tmp_path, monkeypatch
):
    """Once the first segment is gone, the anchor is the only link to
    the world: a damaged one refuses the restart instead of guessing,
    and a restart with it intact comes up."""
    monkeypatch.setattr(serve_daemon, "ANCHOR_EVERY", K)
    graph, _, _ = base
    world_dir, _ = world
    ckpt = _fresh_ckpt(world, tmp_path)
    _run(world_dir, ckpt, _fresh_deltas(graph, K))
    anchor = ckpt / ANCHOR_FILENAME
    intact = anchor.read_bytes()
    anchor.write_bytes(intact[: len(intact) // 2])
    with pytest.raises(WalError, match="unusable"):
        ScoringDaemon.load(world_dir, ckpt)
    anchor.write_bytes(intact)
    assert ScoringDaemon.load(world_dir, ckpt).store.current.wal_seq == K


def test_a_based_segment_of_another_world_is_rejected(
    base, world, tmp_path, monkeypatch
):
    """A re-anchored checkpoint served against a different world
    fails on the segment header's origin, naming both fingerprints."""
    monkeypatch.setattr(serve_daemon, "ANCHOR_EVERY", K)
    graph, core, _ = base
    world_dir, _ = world
    ckpt = _fresh_ckpt(world, tmp_path)
    _run(world_dir, ckpt, _fresh_deltas(graph, K))
    other = _random_graph(23, graph.num_nodes, 300)
    other_dir = tmp_path / "other"
    write_graph_bundle(other, other_dir)
    write_host_list(
        [other.name_of(int(i)) for i in core], other_dir / "core.hosts"
    )
    with pytest.raises(SnapshotMismatchError) as info:
        ScoringDaemon.load(other_dir, ckpt)
    assert info.value.expected == other.structural_fingerprint()
    assert info.value.actual == graph.structural_fingerprint()


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
    srv = ScoringServer(d, tmp_path / "serve.sock", max_queue=16)
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
        # non-finite gates (json writes NaN/-Infinity tokens, and the
        # server's float() takes the strings) and numbers too large for
        # int() (json reads 1e400 as inf) are malformed requests, not
        # internal errors
        errors = client.stats()["request_errors"]
        for bad in (
            {"op": "top", "tau": float("nan")},
            {"op": "top", "tau": "nan"},
            {"op": "top", "rho": "-inf"},
            {"op": "top", "rho": float("-inf")},
            {"op": "top", "k": float("inf")},
            {"op": "explain", "host": graph.name_of(3),
             "top": float("inf")},
        ):
            reply = client.request(bad)
            assert reply["ok"] is False, bad
            assert reply["error"] == "bad-request", (bad, reply)
        assert client.stats()["request_errors"] == errors


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


def test_admission_decides_on_the_live_mode(base, server):
    """The first request after the daemon turns degraded is judged on
    the degraded mode: a slow op is shed at the door, not answered."""
    graph, _, _ = base
    with ServeClient(server.socket_path) as client:
        assert client.health()["mode"] == "full"
        # the ingest circuit opens
        server.daemon._failures = serve_daemon.CIRCUIT_THRESHOLD
        reply = client.explain(graph.name_of(3))
        assert reply["ok"] is False, reply
        assert reply["error"] == "rejected"
        assert reply["reason"] == "slow-op"
        assert reply["mode"] == "degraded"
        assert client.ingest([[0, 5]])["reason"] == "degraded"
        # reads stay available, and say what they are
        score = client.score(graph.name_of(3))
        assert score["ok"] is True and score["mode"] == "degraded"


def test_an_explain_admitted_as_the_drain_starts_is_answered(base, tmp_path):
    """An ``explain`` admitted just before ``stop()`` gets its reply.
    The hook starts ``stop()`` between the request's admission and its
    slow-lane enqueue, and gives the slow worker's poison pill 0.2 s to
    land first; a pill ahead of the job would leave it unanswered."""
    graph, _, _ = base
    server = ScoringServer(_daemon(base, tmp_path), tmp_path / "sock")
    slow_queue = server._slow_queue
    put = slow_queue.put
    pill = threading.Event()
    stoppers = []

    def racing_put(job):
        if job is None:
            put(job)
            pill.set()
            return
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stoppers.append(stopper)
        pill.wait(0.2)
        put(job)

    slow_queue.put = racing_put
    server.start()
    try:
        with ServeClient(server.socket_path, timeout=3.0) as client:
            reply = client.explain(graph.name_of(3))
        assert reply["ok"] is True, reply
        (stopper,) = stoppers
        stopper.join(10.0)
        assert not stopper.is_alive()
        assert slow_queue.qsize() == 0
    finally:
        server.stop()


class _HealingApply:
    """Chaos hooks: every apply fails while ``failing``; after that the
    next one waits for ``go`` and succeeds."""

    def __init__(self):
        self.failing = True
        self.entered = threading.Event()
        self.go = threading.Event()

    def before_apply(self, seq):
        if self.failing:
            raise InjectedFault("apply down")
        self.entered.set()
        self.go.wait(10.0)

    def before_publish(self, seq):
        pass

    def after_anchor_step(self, seq, step):
        pass


def test_mode_gauge_follows_the_daemon_and_holds_through_a_drain(
    base, tmp_path, monkeypatch
):
    """``serve.mode`` reads 1 once the ingest worker opens the circuit,
    with no request after it, and stays 2 from the start of a drain,
    though the worker heals the circuit with an apply during it."""
    monkeypatch.setattr(serve_daemon, "RETRY_INTERVAL", 0.01)
    daemon = _daemon(base, tmp_path)
    chaos = daemon.chaos = _HealingApply()
    server = ScoringServer(daemon, tmp_path / "sock")

    def wait_for(tele, gauge, value):
        deadline = time.monotonic() + 10.0
        while tele.metrics.value(gauge, None) != value:
            assert time.monotonic() < deadline, (gauge, value)
            time.sleep(0.005)

    with capture() as tele:
        server.start()
        try:
            with ServeClient(server.socket_path) as client:
                assert client.health()["mode"] == "full"
            assert tele.metrics.value("serve.mode") == 0
            daemon.submit_delta(*DELTAS[0])  # not through the server
            wait_for(tele, "serve.circuit_state", 1)
            assert tele.metrics.value("serve.mode") == 1
            chaos.failing = False
            assert chaos.entered.wait(10.0)
            stopper = threading.Thread(target=server.stop, daemon=True)
            stopper.start()
            wait_for(tele, "serve.mode", 2)
            chaos.go.set()  # the held apply succeeds during the close
            stopper.join(10.0)
            assert not stopper.is_alive()
            assert daemon.applies == 1 and not daemon.degraded
            assert tele.metrics.value("serve.mode") == 2
        finally:
            chaos.go.set()
            server.stop()


def test_client_closes_its_socket_when_connect_fails(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FileNotFoundError):
            ServeClient(tmp_path / "missing.sock")
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]


def _in_thread(fn, *args):
    """Run ``fn(*args)`` on a daemon thread; returns (thread, result)."""
    result = {}

    def _run():
        result["reply"] = fn(*args)

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread, result


def _ask_once(socket_path, payload):
    """One request on a fresh connection."""
    with ServeClient(socket_path, timeout=30.0) as client:
        return client.request(payload)


def test_max_requests_drains_after_the_last_reply_is_sent(base, tmp_path):
    """The request that reaches ``max_requests`` gets its reply before
    the drain finishes: ``wait()`` returning is what lets
    ``repro-spam serve`` exit, which would cut a reply still unsent."""
    daemon = _daemon(base, tmp_path)
    server = ScoringServer(daemon, tmp_path / "sock", max_requests=1)
    sent = threading.Event()
    send = server._send

    def slow_send(conn, response):
        time.sleep(0.3)
        send(conn, response)
        sent.set()

    server._send = slow_send
    server.start()
    try:
        thread, result = _in_thread(
            _ask_once, server.socket_path, {"op": "health"}
        )
        assert server.wait(10.0)
        assert sent.is_set()
        thread.join(10.0)
        assert not thread.is_alive()
        assert result["reply"]["ok"] is True
    finally:
        server.stop()


def test_max_requests_drains_when_the_last_reply_cannot_be_sent(
    base, tmp_path
):
    """The client that sent the request reaching ``max_requests`` may
    be gone before its reply is written; the drain starts all the same,
    so ``repro-spam serve --max-requests`` still exits."""
    daemon = _daemon(base, tmp_path)
    server = ScoringServer(daemon, tmp_path / "sock", max_requests=1)
    closed = threading.Event()
    failed = []
    send = server._send

    def send_after_close(conn, response):
        closed.wait(10.0)
        try:
            send(conn, response)
        except OSError as exc:
            # the class only: the exception's traceback would keep the
            # reader's frame, and so its connection, alive
            failed.append(type(exc))
            raise

    server._send = send_after_close
    server.start()
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.connect(str(server.socket_path))
            sock.sendall(b'{"op":"health"}\n')
        closed.set()
        assert server.wait(10.0)
        assert failed, "the reply went out to a closed connection"
    finally:
        server.stop()


def test_max_queue_bounds_requests_across_connections(
    base, tmp_path, monkeypatch
):
    """Fast ops are answered on each connection's reader, and
    ``max_queue`` still bounds them: two held ``score`` requests fill a
    queue of 2, so a third connection is shed with ``overloaded``."""
    graph, _, _ = base
    host = graph.name_of(3)
    daemon = _daemon(base, tmp_path)
    entered = threading.Semaphore(0)
    release = threading.Event()
    real_score = daemon.query_score

    def held_score(name):
        entered.release()
        release.wait(10.0)
        return real_score(name)

    monkeypatch.setattr(daemon, "query_score", held_score)
    server = ScoringServer(daemon, tmp_path / "sock", max_queue=2)
    server.start()
    try:
        held = [
            _in_thread(_ask_once, server.socket_path,
                       {"op": "score", "host": host})
            for _ in range(2)
        ]
        for _ in held:
            assert entered.acquire(timeout=10.0)
        with ServeClient(server.socket_path) as third:
            reply = third.score(host)
            assert reply["ok"] is False, reply
            assert reply["error"] == "rejected"
            assert reply["reason"] == "overloaded"
            release.set()
            for thread, result in held:
                thread.join(10.0)
                assert not thread.is_alive()
                assert result["reply"]["ok"] is True, result
            assert third.score(host)["ok"] is True
            assert server.stats()["shed"] == 1
    finally:
        release.set()
        server.stop()


def test_request_timeout_drops_an_explain_that_waited(
    base, tmp_path, monkeypatch
):
    """With the one slow worker held in an ``explain``, a second
    ``explain`` waits past its deadline and is dropped at dequeue, while
    a ``score`` (answered on its reader) is not held up."""
    graph, _, _ = base
    host = graph.name_of(3)
    daemon = _daemon(base, tmp_path)
    entered = threading.Event()
    release = threading.Event()
    real_explain = daemon.query_explain

    def held_explain(name, *, top=10):
        entered.set()
        release.wait(10.0)
        return real_explain(name, top=top)

    monkeypatch.setattr(daemon, "query_explain", held_explain)
    server = ScoringServer(daemon, tmp_path / "sock", request_timeout=0.2)
    server.start()
    explain = {"op": "explain", "host": host}
    try:
        first, first_result = _in_thread(
            _ask_once, server.socket_path, explain
        )
        assert entered.wait(10.0)
        second, second_result = _in_thread(
            _ask_once, server.socket_path, explain
        )
        deadline = time.monotonic() + 10.0
        while server.stats()["slow_depth"] < 2:
            assert time.monotonic() < deadline, "second explain not admitted"
            time.sleep(0.01)
        time.sleep(0.3)  # past the queued explain's 0.2 s deadline
        with ServeClient(server.socket_path) as client:
            assert client.score(host)["ok"] is True
            release.set()
            first.join(10.0)
            second.join(10.0)
            assert not first.is_alive() and not second.is_alive()
            assert first_result["reply"]["ok"] is True
            dropped = second_result["reply"]
            assert dropped["ok"] is False, dropped
            assert dropped["error"] == "rejected"
            assert dropped["reason"] == "deadline"
            stats = client.stats()
            assert stats["deadline_drops"] == 1
            assert stats["queue_depth"] == 1  # this stats request
            assert stats["slow_depth"] == 0
    finally:
        release.set()
        server.stop()


def test_fast_ops_run_on_the_reader_and_explain_on_the_slow_lane(
    base, tmp_path, monkeypatch
):
    graph, _, _ = base
    host = graph.name_of(3)
    daemon = _daemon(base, tmp_path)
    seen = {}
    real_score, real_explain = daemon.query_score, daemon.query_explain

    def spy_score(name):
        seen["score"] = threading.current_thread().name
        return real_score(name)

    def spy_explain(name, *, top=10):
        seen["explain"] = threading.current_thread().name
        return real_explain(name, top=top)

    monkeypatch.setattr(daemon, "query_score", spy_score)
    monkeypatch.setattr(daemon, "query_explain", spy_explain)
    server = ScoringServer(daemon, tmp_path / "sock")
    server.start()
    try:
        names = [t.name for t in threading.enumerate()]
        assert not [n for n in names if n.startswith("serve-worker")]
        assert "serve-slow-0" in names
        with ServeClient(server.socket_path) as client:
            assert client.score(host)["ok"] is True
            assert client.explain(host)["ok"] is True
        assert seen == {"score": "serve-conn", "explain": "serve-slow-0"}
    finally:
        server.stop()


def test_replies_are_compact_json_byte_for_byte(base, server):
    """The server's encoder writes exactly what ``json.dumps(reply,
    separators=(",", ":"))`` writes, one line per reply."""
    graph, _, _ = base
    requests = [
        {"op": "score", "host": graph.name_of(3)},
        {"op": "top", "k": 5, "tau": 0.0, "rho": 0.0},
        {"op": "health"},
    ]
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(30.0)
    with conn:
        conn.connect(str(server.socket_path))
        with conn.makefile("rb") as fh:
            for request in requests:
                conn.sendall(json.dumps(request).encode("utf-8") + b"\n")
                raw = fh.readline()
                reply = json.loads(raw)
                assert reply["ok"] is True, reply
                assert raw == json.dumps(
                    reply, separators=(",", ":")
                ).encode("utf-8") + b"\n"


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
    server = ScoringServer(daemon, tmp_path / "sock")
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
