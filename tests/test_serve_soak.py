"""Bounded chaos soak of the full serving stack.

An in-process :class:`ScoringServer` is hammered by reader threads
(score/top/health/stats) while an ingest thread feeds delta batches and
:class:`ServeChaos` injects kill-mid-swap and slow-apply faults into
the ingest worker.  The invariants the ISSUE's CI job gates on:

* **zero torn reads** — every response pairs an epoch sequence with
  exactly one graph fingerprint, every score is finite, and every
  ``top`` reply of one epoch is the same answer (a ranking served
  under another epoch's meta would break that);
* **bounded staleness** — no response ever reports more accepted-but-
  unapplied batches than ``max_staleness + 1`` (the one slot the
  degraded check races for);
* **structured refusals only** — under overload or a degraded ingest
  path the server says ``rejected`` with a reason, never an
  ``internal`` error, and never closes a healthy connection;
* **clean drain** — stop() unlinks the socket and the WAL chain still
  replays exactly the pending suffix;
* **bounded restart** — the daemon re-anchors every few applies
  (the interval is lowered for the soak, so the kills land around
  re-anchors, and some kill a re-anchor between its steps), and a
  restart after the soak comes up at the final epoch, bitwise,
  replaying at most one interval.

A second test runs a daemon for many windows at the real anchor
interval (1,000 under ``REPRO_SOAK``) and restarts it.

The default run is a few seconds so the tier-1 suite stays fast; CI
sets ``REPRO_SOAK=1`` for the ~60 s version.  All loops carry their
own wall-clock deadline — the test self-bounds even where
pytest-timeout is not installed.
"""

import itertools
import json
import os
import threading
import time

import numpy as np
import pytest

import repro.serve.daemon as serve_daemon
from repro.core.mass import estimate_spam_mass
from repro.graph import write_graph_bundle, write_host_list
from repro.runtime.chaos import ServeChaos
from repro.serve import (
    DaemonConfig,
    DeltaWAL,
    ScoringDaemon,
    ScoringServer,
    ServeClient,
    plan_replay,
)
from repro.serve.ingest import save_estimates
from test_differential_solvers import _random_graph
from test_serve_daemon import _restart

SOAK = bool(os.environ.get("REPRO_SOAK"))
#: Wall-clock budget of the load phase.
DURATION = 60.0 if SOAK else 3.0
#: Hard safety deadline: if the soak wedges, fail instead of hanging.
HARD_DEADLINE = DURATION + 120.0
READERS = 4
EDGES_PER_DELTA = 2
MAX_DELTAS = 4000 if SOAK else 400
#: The soak's anchor interval: re-anchors at seq 4, then 8 (killed
#: after its anchor), 9 (whose swap is killed first), 13 (killed after
#: the switch), 17 (killed after the delete), 21, ...
SOAK_ANCHOR_EVERY = 4
#: Applies before the restart at the real anchor interval.
RESTART_APPLIES = 1000 if SOAK else 3 * serve_daemon.ANCHOR_EVERY + 10


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(29)
    graph = _random_graph(17, 150, 600)
    core = np.sort(rng.choice(graph.num_nodes, size=15, replace=False))
    estimates = estimate_spam_mass(graph, core, gamma=0.85)
    return graph, core, estimates


def _fresh_deltas(graph, count, rng):
    """Insertion-only batches of edges absent from ``graph`` and from
    each other — valid to submit in any order, so the ingest thread
    never has to coordinate with the apply worker."""
    existing = set()
    for u in range(graph.num_nodes):
        for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]:
            existing.add((u, int(v)))
    deltas, used = [], set()
    while len(deltas) < count:
        batch = []
        while len(batch) < EDGES_PER_DELTA:
            u = int(rng.integers(graph.num_nodes))
            v = int(rng.integers(graph.num_nodes))
            if u == v or (u, v) in existing or (u, v) in used:
                continue
            used.add((u, v))
            batch.append((u, v))
        deltas.append(batch)
    return deltas


def _world(graph, core, root):
    """The bundle a restart loads ``graph`` from, with its core."""
    world = root / "world"
    write_graph_bundle(graph, world)
    write_host_list([graph.name_of(int(i)) for i in core],
                    world / "core.hosts")
    return world


def _assert_same_epoch(got, want):
    assert got.fingerprint == want.fingerprint
    assert got.graph == want.graph
    assert np.array_equal(got.estimates.pagerank, want.estimates.pagerank)
    assert np.array_equal(
        got.estimates.core_pagerank, want.estimates.core_pagerank
    )


def test_soak_chaos_never_tears_reads(base, tmp_path, monkeypatch):
    graph, core, estimates = base
    monkeypatch.setattr(serve_daemon, "ANCHOR_EVERY", SOAK_ANCHOR_EVERY)
    monkeypatch.setattr(serve_daemon, "RETRY_INTERVAL", 0.01)
    world = _world(graph, core, tmp_path)
    config = DaemonConfig(max_staleness=4)
    daemon = ScoringDaemon(
        graph,
        core,
        estimates,
        checkpoint_dir=tmp_path / "ckpt",
        wal=DeltaWAL(tmp_path / "wal"),
        config=config,
    )
    # scripted faults: two kill-mid-swap crashes, one slow apply and a
    # kill after each step of a re-anchor, each spent after one firing
    # so the worker recovers on retry
    anchor_kills = ((8, "anchor"), (13, "switch"), (17, "delete"))
    daemon.chaos = ServeChaos(
        kill_swap_on=(2, 9), slow_apply_on=(5,), slow_seconds=0.05,
        kill_anchor_on=anchor_kills,
    )
    server = ScoringServer(daemon, tmp_path / "soak.sock", max_queue=32)
    server.start()

    stop = threading.Event()
    hard_deadline = time.monotonic() + HARD_DEADLINE
    errors = []          # unexpected responses / exceptions, any thread
    observations = []    # (epoch, fingerprint, staleness, pagerank)
    top_answers = []     # (epoch, candidates, total_eligible)
    modes = set()
    rejections = {"reader": 0, "ingest": 0}
    hosts = [graph.name_of(i) for i in range(0, graph.num_nodes, 7)]

    def _note_meta(response, kind):
        if response.get("ok"):
            if "staleness" in response:
                if response["staleness"] > config.max_staleness + 1:
                    errors.append(
                        f"{kind}: staleness {response['staleness']} "
                        f"exceeds bound {config.max_staleness + 1}"
                    )
                modes.add(response.get("mode"))
            return True
        if response.get("error") == "rejected":
            rejections[kind] += 1
            if not response.get("reason"):
                errors.append(f"{kind}: rejection without a reason")
            return False
        errors.append(f"{kind}: unexpected response {response!r}")
        return False

    def _reader(idx):
        try:
            client = ServeClient(server.socket_path, timeout=30.0)
        except OSError as exc:  # pragma: no cover - startup race
            errors.append(f"reader-{idx}: connect failed: {exc}")
            return
        try:
            for tick in itertools.count():
                if stop.is_set() or time.monotonic() > hard_deadline:
                    return
                kind = tick % 4
                if kind == 0:
                    response = client.health()
                elif kind == 1:
                    response = client.top(3, tau=0.0, rho=0.0)
                    if _note_meta(response, "reader"):
                        top_answers.append((
                            response["epoch"],
                            response["candidates"],
                            response["total_eligible"],
                        ))
                    continue
                elif kind == 2:
                    response = client.stats()
                else:
                    response = client.score(hosts[tick % len(hosts)])
                    if _note_meta(response, "reader") and (
                        "pagerank" in response
                    ):
                        observations.append((
                            response["epoch"],
                            response["fingerprint"],
                            response["staleness"],
                            response["pagerank"],
                        ))
                        continue
                _note_meta(response, "reader")
        except Exception as exc:  # noqa: BLE001 - soak boundary
            errors.append(f"reader-{idx}: {type(exc).__name__}: {exc}")
        finally:
            client.close()

    deltas = _fresh_deltas(graph, MAX_DELTAS, np.random.default_rng(31))

    def _ingester():
        try:
            client = ServeClient(server.socket_path, timeout=30.0)
        except OSError as exc:  # pragma: no cover - startup race
            errors.append(f"ingest: connect failed: {exc}")
            return
        try:
            for batch in deltas:
                if stop.is_set() or time.monotonic() > hard_deadline:
                    return
                _note_meta(client.ingest(batch), "ingest")
                time.sleep(0.002)
        except Exception as exc:  # noqa: BLE001 - soak boundary
            errors.append(f"ingest: {type(exc).__name__}: {exc}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=_reader, args=(i,), daemon=True)
        for i in range(READERS)
    ]
    threads.append(threading.Thread(target=_ingester, daemon=True))
    for t in threads:
        t.start()
    time.sleep(DURATION)
    stop.set()
    for t in threads:
        t.join(timeout=60.0)
        assert not t.is_alive(), "soak thread failed to stop"

    # let the worker absorb what it can, then drain
    settle_deadline = time.monotonic() + (30.0 if SOAK else 10.0)
    while daemon.staleness and time.monotonic() < settle_deadline:
        time.sleep(0.05)
    final_fp = daemon.store.current.fingerprint
    final_staleness = daemon.staleness
    stats = server.stats()
    server.stop()

    assert errors == [], "\n".join(errors[:20])
    assert not server.socket_path.exists()
    assert server.wait(5.0) is True

    # actual load went through, including successful applies despite
    # the injected kill-mid-swap crashes
    assert len(observations) > 50
    assert stats["applies"] >= 1
    assert stats["apply_failures"] >= 1  # chaos did fire
    assert "full" in modes

    # zero torn reads: an epoch seq maps to exactly one fingerprint
    fingerprints = {}
    for epoch_seq, fingerprint, staleness, pagerank in observations:
        assert np.isfinite(pagerank)
        assert staleness <= config.max_staleness + 1
        assert fingerprints.setdefault(epoch_seq, fingerprint) == (
            fingerprint
        ), f"torn read: epoch {epoch_seq} served two fingerprints"
    assert len(fingerprints) >= 2, "soak never advanced an epoch"

    # one top answer per epoch
    answers = {}
    for epoch_seq, candidates, total in top_answers:
        assert answers.setdefault(epoch_seq, (candidates, total)) == (
            candidates, total
        ), f"epoch {epoch_seq} served two top answers"
    assert len(answers) >= 2, "top answers never spanned two epochs"

    # the WAL survived the chaos: a fresh recovery replays exactly the
    # unapplied suffix on top of the final epoch's fingerprint
    records, dropped = DeltaWAL(tmp_path / "wal").recover()
    assert dropped == 0
    assert len(plan_replay(records, final_fp)) == final_staleness

    # every re-anchor kill fired, and a restart comes up at the last
    # applied epoch, bitwise, from the newest anchor: it replays at
    # most one interval besides the records still pending
    assert set(anchor_kills) <= {
        (seq, step) for step, seq in daemon.chaos.fired
    }
    restarted, replay = _restart(
        world, tmp_path / "ckpt", wal_dir=tmp_path / "wal"
    )
    assert replay["folded"] <= SOAK_ANCHOR_EVERY
    assert replay["pending"] == restarted.staleness == daemon.staleness
    _assert_same_epoch(restarted.store.current, daemon.store.current)

    report = {
        "duration_seconds": DURATION,
        "observations": len(observations),
        "epochs": len(fingerprints),
        "applies": stats["applies"],
        "apply_failures": stats["apply_failures"],
        "reader_rejections": rejections["reader"],
        "ingest_rejections": rejections["ingest"],
        "requests": stats["requests"],
    }
    print("soak:", json.dumps(report))


def test_a_restart_after_many_windows_replays_at_most_one_interval(
    base, tmp_path
):
    """At the real anchor interval, a daemon that applied
    ``RESTART_APPLIES`` windows restarts from its newest anchor,
    replaying only the records after it, at the scores it stopped at
    and to the same scores after one more window, bitwise."""
    graph, core, estimates = base
    every = serve_daemon.ANCHOR_EVERY
    world = _world(graph, core, tmp_path)
    ckpt = tmp_path / "ckpt"
    save_estimates(ckpt, estimates, fingerprint=graph.structural_fingerprint())
    deltas = _fresh_deltas(
        graph, RESTART_APPLIES + 1, np.random.default_rng(37)
    )
    daemon = ScoringDaemon.load(world, ckpt)
    for batch in deltas[:-1]:
        daemon.submit_delta(batch)
        assert daemon.apply_pending() == 1
    assert daemon.wal.base_seq == RESTART_APPLIES // every * every
    assert [p.name for p in (ckpt / "wal").iterdir()] == [
        daemon.wal.segment_path.name
    ]

    restarted, replay = _restart(world, ckpt)
    assert replay["folded"] == RESTART_APPLIES % every <= every
    assert replay["pending"] == restarted.staleness == 0
    _assert_same_epoch(restarted.store.current, daemon.store.current)
    for d in (daemon, restarted):
        d.submit_delta(deltas[-1])
        assert d.apply_pending() == 1
    _assert_same_epoch(restarted.store.current, daemon.store.current)
