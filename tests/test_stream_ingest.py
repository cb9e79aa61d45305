"""Streaming ingestion contracts: the differential battery.

The acceptance story, end to end but in-process: a chaos-mangled
stream — torn lines with retransmits, duplicates, bounded reordering,
late stragglers, one poisoned window, and a crash mid-ingest — must
produce **bitwise-identical** scores to the clean sequence, with the
poison quarantined to the DLQ under a typed reason while the daemon
keeps serving.  Re-ingesting a quarantined window is a no-op on
scores; a flood degrades the window size under backpressure and still
converges to the same graph; a concurrent WAL prune never perturbs a
batched apply; and the latency probe catches all three scripted
temporal attacks.
"""

import threading

import numpy as np
import pytest

from repro.core import estimate_spam_mass
from repro.eval import LatencyProbe
from repro.graph import WebGraph, write_graph_bundle, write_host_list
from repro.runtime.chaos import (
    ServeChaos,
    duplicate_stream_events,
    late_straggler_events,
    poison_stream_window,
    reorder_stream_events,
    torn_resend_stream,
)
from repro.runtime.checkpoint import save_solution
from repro.serve import (
    DaemonConfig,
    DeadLetterQueue,
    ScoringDaemon,
    StreamConfig,
    StreamIngestor,
)
from repro.synth import read_stream, synthesize_stream

N, ACTIVE = 100, 40
GAMMA = 0.85


def _daemon_config(**kw):
    return DaemonConfig(max_staleness=16, **kw)


def _stream_config(**kw):
    kw.setdefault("window", 16)
    kw.setdefault("max_lateness", 8)
    return StreamConfig(**kw)


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng(7)
    edges = set()
    while len(edges) < 200:
        u, v = rng.integers(0, ACTIVE, 2)
        if u != v:
            edges.add((int(u), int(v)))
    graph = WebGraph.from_edges(N, sorted(edges))
    core = np.arange(0, 10, dtype=np.int64)
    estimates = estimate_spam_mass(graph, core, gamma=GAMMA)
    stream = synthesize_stream(
        graph,
        core=core,
        seed=3,
        num_events=300,
        boosters_per_attack=8,
        attack_stride=3,
    )
    return graph, core, estimates, sorted(edges), stream


@pytest.fixture(scope="module")
def world(base, tmp_path_factory):
    graph, core, estimates, _, stream = base
    root = tmp_path_factory.mktemp("stream-world")
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
        extra={"damping": 0.85, "gamma": GAMMA,
               "labels": ["pagerank", "core"]},
    )
    stream_path = root / "events.jsonl"
    stream.write(stream_path)
    return world_dir, ckpt, stream_path


def _fresh_ckpt(world, tmp_path):
    import shutil

    _, template, _ = world
    ckpt = tmp_path / "ckpt"
    shutil.copytree(template, ckpt)
    return ckpt


def _load(world, tmp_path, *, chaos=None, config=None, **stream_kw):
    """A daemon + ingestor pair on a fresh checkpoint copy."""
    world_dir, _, _ = world
    daemon = ScoringDaemon.load(
        world_dir,
        _fresh_ckpt(world, tmp_path),
        config=config or _daemon_config(),
        chaos=chaos,
    )
    ingestor = StreamIngestor(
        daemon, tmp_path / "state", config=_stream_config(), **stream_kw
    )
    return daemon, ingestor


@pytest.fixture(scope="module")
def clean(base, world, tmp_path_factory):
    """The reference run: the untouched stream, no faults, one pass."""
    tmp = tmp_path_factory.mktemp("clean-run")
    daemon, ingestor = _load(world, tmp)
    _, _, stream_path = world
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    epoch = daemon.store.current
    return {
        "fingerprint": epoch.graph.structural_fingerprint(),
        "pagerank": epoch.estimates.pagerank.copy(),
        "core_pagerank": epoch.estimates.core_pagerank.copy(),
        "stats": ingestor.stats(),
    }


def _chaos_lines(base):
    """The full injector battery over the stream's wire lines."""
    graph, _, _, edges, stream = base
    touched = {(e.src, e.dst) for e in stream.events}
    surviving = [e for e in edges if e not in touched]
    lines = stream.lines()
    lines = torn_resend_stream(lines, seed=1, count=3, displacement=2)
    lines = duplicate_stream_events(lines, seed=2, count=4, displacement=3)
    lines = reorder_stream_events(lines, seed=3, count=6, max_shift=2)
    last_ts = max(e.ts for e in stream.events)
    lines = late_straggler_events(
        lines, seed=4, count=2, num_nodes=N, next_id=1000, ts=0
    )
    lines = poison_stream_window(
        lines, surviving, next_id=1100, ts=last_ts + 16 + 8 + 2, count=3
    )
    return lines


# ----------------------------------------------------------------------
# clean path
# ----------------------------------------------------------------------


def test_clean_ingest_matches_cold_solve(base, world, clean):
    """The streamed graph equals the replayed live set, scores match a
    cold estimate of it."""
    graph, core, _, edges, stream = base
    live = set(edges)
    for event in stream.events:
        (live.add if event.op == "+" else live.remove)(event.edge())
    final = WebGraph.from_edges(N, sorted(live))
    assert clean["fingerprint"] == final.structural_fingerprint()
    cold = estimate_spam_mass(final, core, gamma=GAMMA)
    np.testing.assert_allclose(
        clean["pagerank"], cold.pagerank, rtol=0, atol=1e-8
    )
    assert clean["stats"]["windows_quarantined"] == 0
    assert clean["stats"]["dlq_entries"] == 0
    assert clean["stats"]["events_consumed"] == len(stream.events)


def test_reingest_is_idempotent(world, tmp_path, clean):
    """A second pass over the same file resumes at EOF: pure no-op."""
    daemon, ingestor = _load(world, tmp_path)
    _, _, stream_path = world
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    before = ingestor.stats()
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    after = ingestor.stats()
    assert after == before
    assert np.array_equal(
        daemon.store.current.estimates.pagerank, clean["pagerank"]
    )


# ----------------------------------------------------------------------
# the differential battery
# ----------------------------------------------------------------------


def test_chaos_crash_resume_bitwise(base, world, tmp_path, clean):
    """Torn/dup/reorder/late/poison + a crash: bitwise-identical."""
    lines = _chaos_lines(base)
    chaos_path = tmp_path / "chaos.jsonl"
    chaos_path.write_text("\n".join(lines) + "\n")

    daemon, ingestor = _load(world, tmp_path)
    # first incarnation: ingest ~60% of the bytes, then crash (no
    # flush, no close — the journal and WAL are all that survives)
    raw = chaos_path.read_bytes()
    cut = len(raw) * 6 // 10
    with open(chaos_path, "rb") as fh:
        while fh.tell() < cut:
            start = fh.tell()
            line = fh.readline()
            if not line:
                break
            ingestor._position = fh.tell()
            ingestor.ingest_line(line.decode(), offset=start)
    del daemon, ingestor

    # second incarnation: same state dir, same file, runs to the end
    world_dir, _, _ = world
    daemon = ScoringDaemon.load(
        world_dir, tmp_path / "ckpt", config=_daemon_config()
    )
    ingestor = StreamIngestor(
        daemon, tmp_path / "state", config=_stream_config()
    )
    ingestor.ingest_file(chaos_path)
    ingestor.flush()

    epoch = daemon.store.current
    assert epoch.graph.structural_fingerprint() == clean["fingerprint"]
    assert np.array_equal(epoch.estimates.pagerank, clean["pagerank"])
    assert np.array_equal(
        epoch.estimates.core_pagerank, clean["core_pagerank"]
    )
    reasons = [e["reason"] for e in DeadLetterQueue(tmp_path / "state").entries()]
    assert reasons.count("bad-json") == 3  # the torn halves
    assert reasons.count("late") == 2  # the stragglers
    assert reasons.count("poison-delta") == 1  # the poisoned window
    stats = ingestor.stats()
    assert stats["windows_quarantined"] == 1
    assert stats["duplicates"] >= 4


def test_dlq_replay_is_noop_on_scores(base, world, tmp_path, clean):
    """Re-ingesting a quarantined window changes nothing: its event
    ids are consumed, so every line is a duplicate."""
    lines = _chaos_lines(base)
    chaos_path = tmp_path / "chaos.jsonl"
    chaos_path.write_text("\n".join(lines) + "\n")
    daemon, ingestor = _load(world, tmp_path)
    ingestor.ingest_file(chaos_path)
    ingestor.flush()
    epoch_before = daemon.store.current
    dlq = DeadLetterQueue(tmp_path / "state")
    windows = [e for e in dlq.entries() if e["reason"] == "poison-delta"]
    assert len(windows) == 1 and windows[0]["lines"]

    # replay through the *same* ingestor state (a new incarnation of
    # it): the quarantined ids are consumed, so every line is a
    # duplicate — the defining property that makes DLQ re-ingestion
    # after an operator inspection safe by default
    replayer = StreamIngestor(
        daemon, tmp_path / "state", config=_stream_config()
    )
    before = replayer.stats()
    for line in windows[0]["lines"]:
        replayer.ingest_line(line)
    replayer.flush()
    after = replayer.stats()
    epoch_after = daemon.store.current
    assert epoch_after.seq == epoch_before.seq
    assert np.array_equal(
        epoch_after.estimates.pagerank, clean["pagerank"]
    )
    assert after["duplicates"] - before["duplicates"] == len(
        windows[0]["lines"]
    )
    assert after["windows_committed"] == before["windows_committed"]
    assert after["events_consumed"] == before["events_consumed"]


def test_poison_window_quarantined_daemon_keeps_serving(
    base, world, tmp_path, clean
):
    """The poisoned window lands in the DLQ; queries stay available
    and later windows still commit."""
    graph, _, _, edges, stream = base
    touched = {(e.src, e.dst) for e in stream.events}
    surviving = [e for e in edges if e not in touched]
    lines = stream.lines()
    # poison the *middle* of the stream, then let it keep going: a
    # window re-inserting edges that already exist fails validation
    mid_ts = stream.events[len(stream.events) // 2].ts
    poison = poison_stream_window(
        [], surviving, next_id=1100, ts=mid_ts, count=3
    )
    cutoff = next(
        i for i, e in enumerate(stream.events) if e.ts > mid_ts
    )
    lines = lines[:cutoff] + poison + lines[cutoff:]
    chaos_path = tmp_path / "poisoned.jsonl"
    chaos_path.write_text("\n".join(lines) + "\n")

    daemon, ingestor = _load(world, tmp_path)
    ingestor.ingest_file(chaos_path)
    ingestor.flush()
    stats = ingestor.stats()
    assert stats["windows_quarantined"] >= 1
    entries = DeadLetterQueue(tmp_path / "state").entries()
    assert any(e["reason"] == "poison-delta" for e in entries)
    # serving never stopped: the current epoch answers queries and
    # carries windows committed *after* the quarantine
    assert stats["windows_committed"] > 0
    got = daemon.query_score(graph.name_of(3))
    assert got["mode"] == "full"
    assert daemon.store.current.seq == stats["windows_committed"]


def test_apply_failure_quarantines_and_serving_survives(
    base, world, tmp_path
):
    """Both warm and cold solves rejecting a durable window must not
    wedge the stream: the window is dead-lettered as 'apply-failed'
    and the daemon keeps answering from the last good epoch."""
    graph, _, _, _, stream = base
    chaos = ServeChaos(fail_apply_on=(1,), once=False)
    daemon, ingestor = _load(
        world,
        tmp_path,
        chaos=chaos,
        config=_daemon_config(),
    )
    _, _, stream_path = world
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    entries = DeadLetterQueue(tmp_path / "state").entries()
    assert any(e["reason"] == "apply-failed" for e in entries)
    assert ingestor.stats()["windows_quarantined"] >= 1
    got = daemon.query_score(graph.name_of(3))
    assert got["host"] == graph.name_of(3)


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------


def test_flood_degrades_window_and_recovers(base, world, tmp_path):
    """A same-instant burst trips the flow control: the effective
    window shrinks under load, recovers after the flood drains, and
    the final graph still matches the clean replay."""
    graph, core, _, edges, _ = base
    flood_stream = synthesize_stream(
        graph,
        core=core,
        seed=5,
        num_events=260,
        attacks=(),
        burst=(80, 120),
    )
    path = tmp_path / "flood.jsonl"
    flood_stream.write(path)

    world_dir, _, _ = world
    daemon = ScoringDaemon.load(
        world_dir, _fresh_ckpt(world, tmp_path), config=_daemon_config()
    )
    ingestor = StreamIngestor(
        daemon,
        tmp_path / "state",
        config=StreamConfig(
            window=16, max_lateness=8, min_window=2, flood_threshold=48
        ),
    )
    min_cw = ingestor.config.window
    with open(path, "rb") as fh:
        offset = 0
        for line in fh:
            ingestor.ingest_line(line.decode(), offset=offset)
            offset += len(line)
            min_cw = min(min_cw, ingestor.stats()["effective_window"])
    ingestor.flush()
    assert min_cw < ingestor.config.window, "flood never degraded"
    assert ingestor.stats()["effective_window"] > min_cw, "never recovered"

    # windowing changed under pressure, so scores are not bitwise
    # against a fixed-window run — but the final graph must be, and
    # the scores must match a cold solve of it
    live = set(edges)
    for event in flood_stream.events:
        (live.add if event.op == "+" else live.remove)(event.edge())
    final = WebGraph.from_edges(N, sorted(live))
    epoch = daemon.store.current
    assert epoch.graph.structural_fingerprint() == final.structural_fingerprint()
    cold = estimate_spam_mass(final, core, gamma=GAMMA)
    np.testing.assert_allclose(
        epoch.estimates.pagerank, cold.pagerank, rtol=0, atol=1e-8
    )
    assert ingestor.stats()["windows_quarantined"] == 0


# ----------------------------------------------------------------------
# WAL interplay
# ----------------------------------------------------------------------


def test_concurrent_wal_prune_during_batched_apply(
    base, world, tmp_path, clean
):
    """An aggressive pruner racing the batched stream apply never
    perturbs the result: prune only drops records at or below the
    applied watermark.

    Batching changes the warm-start trajectory, so the reference is
    the *same* batched configuration without the pruner — those two
    must be bitwise-identical (and both reach the clean final graph).
    """
    world_dir, _, stream_path = world

    def _batched_run(tag, with_pruner):
        root = tmp_path / tag
        root.mkdir()
        daemon = ScoringDaemon.load(
            world_dir,
            _fresh_ckpt(world, root),
            config=_daemon_config(batch_deltas=4),
        )
        ingestor = StreamIngestor(
            daemon,
            root / "state",
            config=StreamConfig(window=16, max_lateness=8, apply_every=3),
        )
        stop = threading.Event()
        errors = []

        def _pruner():
            while not stop.is_set():
                try:
                    daemon.wal.prune()
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        thread = None
        if with_pruner:
            thread = threading.Thread(target=_pruner)
            thread.start()
        try:
            ingestor.ingest_file(stream_path)
            ingestor.flush()
        finally:
            if thread is not None:
                stop.set()
                thread.join(timeout=10)
        assert not errors
        return daemon

    racy = _batched_run("racy", with_pruner=True)
    quiet = _batched_run("quiet", with_pruner=False)
    a, b = racy.store.current, quiet.store.current
    assert a.graph.structural_fingerprint() == clean["fingerprint"]
    assert (
        a.graph.structural_fingerprint() == b.graph.structural_fingerprint()
    )
    assert np.array_equal(a.estimates.pagerank, b.estimates.pagerank)
    assert np.array_equal(
        a.estimates.core_pagerank, b.estimates.core_pagerank
    )
    # everything applied: a final prune empties the racy log entirely
    racy.wal.prune()
    records, _ = racy.wal.recover(repair=False)
    assert records == []


# ----------------------------------------------------------------------
# detection latency
# ----------------------------------------------------------------------


def test_latency_probe_catches_all_three_attacks(base, world, tmp_path):
    graph, core, _, _, _ = base
    stream = synthesize_stream(
        graph,
        core=core,
        seed=3,
        num_events=400,
        boosters_per_attack=12,
        attack_stride=3,
    )
    path = tmp_path / "attacks.jsonl"
    stream.write(path)
    probe = LatencyProbe(read_stream(path).attacks, rho=1.5, tau=0.9)

    world_dir, _, _ = world
    daemon = ScoringDaemon.load(
        world_dir, _fresh_ckpt(world, tmp_path), config=_daemon_config()
    )
    ingestor = StreamIngestor(
        daemon,
        tmp_path / "state",
        config=_stream_config(),
        on_commit=probe.observe,
    )
    ingestor.ingest_file(path)
    ingestor.flush()
    report = {v["kind"]: v for v in probe.report()}
    assert probe.all_caught(), report
    for verdict in report.values():
        assert verdict["events_until_caught"] >= 0
        assert verdict["caught_at_id"] >= verdict["onset_id"]
    # the gradual farm stays under the radar for a while by design:
    # onset alone must not trigger the gate in the same window
    assert report["gradual-farm"]["windows_until_caught"] >= 1
