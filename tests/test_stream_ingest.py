"""Streaming ingestion contracts: the differential battery.

The acceptance story, end to end but in-process: a chaos-mangled
stream — torn lines with retransmits, duplicates, bounded reordering,
late stragglers, one poisoned window, and a crash mid-ingest — must
produce **bitwise-identical** scores to the clean sequence, with the
poison quarantined to the DLQ under a typed reason while the daemon
keeps serving.  A crash anywhere in the stream, flooded or not, resumes
from the last WAL record to the uninterrupted run's scores and
counters, at two fsyncs per committed window.  Re-ingesting a
quarantined window is a no-op on scores; a flood degrades the window
size under backpressure and still converges to the same graph; a
run whose wider window coalesces more churn per apply restarts at its
own scores; and the latency probe catches all three scripted temporal
attacks.
"""

import os

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
import repro.serve.daemon as serve_daemon
import repro.serve.stream as serve_stream

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


def _load(
    world, tmp_path, *, chaos=None, config=None, stream=None, **stream_kw
):
    """A daemon + ingestor pair on a fresh checkpoint copy."""
    world_dir, _, _ = world
    daemon = ScoringDaemon.load(
        world_dir,
        _fresh_ckpt(world, tmp_path),
        config=config or _daemon_config(),
        chaos=chaos,
    )
    ingestor = StreamIngestor(
        daemon,
        tmp_path / "state",
        config=stream or _stream_config(),
        **stream_kw,
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
    records, _ = daemon.wal.recover(repair=False)
    return {
        "fingerprint": epoch.graph.structural_fingerprint(),
        "pagerank": epoch.estimates.pagerank.copy(),
        "core_pagerank": epoch.estimates.core_pagerank.copy(),
        "stats": ingestor.stats(),
        "first_window": records[0].position,
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


def test_queue_knobs_change_no_bit_under_the_ingestor(
    world, tmp_path, clean
):
    """Each window is applied in the call that submits it, so at most
    one delta waits: the daemon's queue coalescing and staleness bound
    never bind, and the run is bitwise the clean one."""
    daemon, ingestor = _load(
        world,
        tmp_path,
        config=DaemonConfig(batch_deltas=4, max_staleness=1),
    )
    _, _, stream_path = world
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    epoch = daemon.store.current
    assert np.array_equal(epoch.estimates.pagerank, clean["pagerank"])
    assert np.array_equal(
        epoch.estimates.core_pagerank, clean["core_pagerank"]
    )
    assert ingestor.stats() == clean["stats"]
    assert daemon.applies == clean["stats"]["windows_committed"]


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
    # flush, no close — the WAL is all that survives)
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

    # second incarnation: same checkpoint, same file, runs to the end
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


def _ingest_until(ingestor, path, stop):
    """Feed whole lines as ``ingest_file`` does until ``stop(ingestor)``
    holds after one; returns the byte offset reached.  Leaving off
    there without a flush is the crash."""
    with open(path, "rb") as fh:
        while True:
            start = fh.tell()
            line = fh.readline()
            if not line:
                return start
            ingestor._position = fh.tell()
            ingestor.ingest_line(line.decode(), offset=start)
            if stop(ingestor):
                return fh.tell()


def _resume(world, root, path, config, daemon_config=None):
    """A new incarnation on ``root``'s checkpoint, run to the end."""
    world_dir, _, _ = world
    daemon = ScoringDaemon.load(
        world_dir, root / "ckpt", config=daemon_config or _daemon_config()
    )
    ingestor = StreamIngestor(daemon, root / "state", config=config)
    ingestor.ingest_file(path)
    ingestor.flush()
    return daemon, ingestor


def _stream_stats(ingestor):
    """Every counter but the epoch, which restarts with each daemon
    life."""
    stats = ingestor.stats()
    del stats["epoch"]
    return stats


@pytest.mark.parametrize(
    "span, batch_deltas",
    [
        pytest.param(1, 1, id="1"),
        pytest.param(3, 1, id="3"),
        pytest.param(3, 3, id="3-batched"),
    ],
)
def test_crash_at_every_tenth_resumes_to_the_uninterrupted_run(
    world, tmp_path, span, batch_deltas
):
    """A crash after any 10% of the stream's bytes resumes from the
    last WAL record to the uninterrupted run's scores, bitwise, and to
    its counters — ``duplicates`` included: lines the record's position
    had already decided only refill the open windows.  ``span`` is how
    many 16-tick windows' churn one apply coalesces: the window is
    ``16 * span`` ticks wide.  A daemon whose queue may coalesce
    ``batch_deltas`` deltas resumes the same way."""
    _, _, stream_path = world
    config = _stream_config(window=16 * span)
    daemon_config = _daemon_config(batch_deltas=batch_deltas)
    ref_root = tmp_path / "ref"
    ref_root.mkdir()
    daemon, ingestor = _load(
        world, ref_root, config=daemon_config, stream=config
    )
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    reference = daemon.store.current
    expected = _stream_stats(ingestor)

    size = stream_path.stat().st_size
    for tenth in range(1, 10):
        root = tmp_path / f"crash-{tenth}"
        root.mkdir()
        daemon, ingestor = _load(
            world, root, config=daemon_config, stream=config
        )
        cut = size * tenth // 10
        _ingest_until(ingestor, stream_path, lambda i: i._position >= cut)
        del daemon, ingestor

        daemon, ingestor = _resume(
            world, root, stream_path, config, daemon_config
        )
        epoch = daemon.store.current
        assert epoch.fingerprint == reference.fingerprint, tenth
        assert np.array_equal(
            epoch.estimates.pagerank, reference.estimates.pagerank
        ), tenth
        assert np.array_equal(
            epoch.estimates.core_pagerank, reference.estimates.core_pagerank
        ), tenth
        assert _stream_stats(ingestor) == expected, tenth


class _Crash(Exception):
    """The process dying inside an apply."""


@pytest.mark.parametrize("span", [1, 3], ids=["1", "3"])
def test_crash_between_submit_and_apply_resumes_to_the_uninterrupted_run(
    world, tmp_path, span
):
    """A crash after a window's WAL record is durable but before the
    daemon applied it leaves that record pending; the resumed run
    applies it and ends at the uninterrupted run's scores, bitwise,
    and counters."""
    _, _, stream_path = world
    config = _stream_config(window=16 * span)
    ref_root = tmp_path / "ref"
    ref_root.mkdir()
    daemon, ingestor = _load(world, ref_root, stream=config)
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    reference = daemon.store.current
    expected = _stream_stats(ingestor)

    def crash():
        raise _Crash

    size = stream_path.stat().st_size
    for tenth in (2, 5, 8):
        root = tmp_path / f"crash-{tenth}"
        root.mkdir()
        daemon, ingestor = _load(world, root, stream=config)
        cut = size * tenth // 10
        _ingest_until(ingestor, stream_path, lambda i: i._position >= cut)
        daemon.apply_pending = crash
        with pytest.raises(_Crash):
            ingestor.ingest_file(stream_path)
            ingestor.flush()
        committed = daemon.store.current.wal_seq
        del daemon, ingestor

        world_dir, _, _ = world
        daemon = ScoringDaemon.load(
            world_dir, root / "ckpt", config=_daemon_config()
        )
        assert daemon.staleness == 1, tenth
        assert daemon.store.current.wal_seq == committed, tenth
        ingestor = StreamIngestor(daemon, root / "state", config=config)
        assert daemon.staleness == 0, tenth
        ingestor.ingest_file(stream_path)
        ingestor.flush()
        epoch = daemon.store.current
        assert epoch.fingerprint == reference.fingerprint, tenth
        assert np.array_equal(
            epoch.estimates.pagerank, reference.estimates.pagerank
        ), tenth
        assert np.array_equal(
            epoch.estimates.core_pagerank, reference.estimates.core_pagerank
        ), tenth
        assert _stream_stats(ingestor) == expected, tenth


def test_flood_crash_resume_keeps_the_flood_state(
    base, world, tmp_path, monkeypatch
):
    """A crash while a flood drains resumes flooded: the window keeps
    recovering and the resumed run commits the uninterrupted run's
    windows with its scores, bitwise."""
    graph, core, _, _, _ = base
    flood_stream = synthesize_stream(
        graph, core=core, seed=5, num_events=260, attacks=(),
        burst=(80, 120),
    )
    path = tmp_path / "flood.jsonl"
    flood_stream.write(path)
    monkeypatch.setattr(serve_stream, "FLOOD_THRESHOLD", 48)
    config = StreamConfig(window=16, max_lateness=8)

    def drained_at_the_narrowest(ingestor):
        return ingestor._cw == 2 and ingestor.buffered < 48 // 2

    ref_root = tmp_path / "ref"
    ref_root.mkdir()
    daemon, ingestor = _load(world, ref_root, stream=config)
    crash = _ingest_until(ingestor, path, drained_at_the_narrowest)
    assert crash < path.stat().st_size, "the flood never drained at cw 2"
    ingestor.ingest_file(path)
    ingestor.flush()
    reference = daemon.store.current
    expected = _stream_stats(ingestor)

    root = tmp_path / "crash"
    root.mkdir()
    daemon, ingestor = _load(world, root, stream=config)
    _ingest_until(ingestor, path, lambda i: i._position >= crash)
    assert ingestor._flooded
    del daemon, ingestor

    daemon, ingestor = _resume(world, root, path, config)
    epoch = daemon.store.current
    assert _stream_stats(ingestor) == expected
    assert epoch.fingerprint == reference.fingerprint
    assert np.array_equal(
        epoch.estimates.pagerank, reference.estimates.pagerank
    )


def test_a_committed_window_costs_two_fsyncs(world, tmp_path, monkeypatch):
    """The WAL append and the solution snapshot are a window's only
    fsyncs; flush adds none of its own."""
    calls = []
    fsync = os.fsync

    def counting(fd):
        calls.append(fd)
        fsync(fd)

    daemon, ingestor = _load(world, tmp_path)
    _, _, stream_path = world
    monkeypatch.setattr(os, "fsync", counting)
    ingestor.ingest_file(stream_path)
    before_flush = (len(calls), ingestor.windows_committed)
    ingestor.flush()
    monkeypatch.undo()
    committed = ingestor.stats()["windows_committed"]
    records, _ = daemon.wal.recover(repair=False)
    assert committed == len(records) > 0
    assert len(calls) == 2 * committed
    assert len(calls) - before_flush[0] == 2 * (committed - before_flush[1])


def test_dlq_cuts_a_torn_tail_before_appending(tmp_path):
    """An append after a crash mid-append starts a line of its own, so
    every later entry stays visible; an identical verdict is not
    written twice."""
    DeadLetterQueue(tmp_path).append("late", line="a", ids=[1])
    with open(tmp_path / "dlq.jsonl", "ab") as fh:
        fh.write(b'{"n":1,"reason":"la')  # the crash
    dlq = DeadLetterQueue(tmp_path)
    dlq.append("bad-json", line="b")
    dlq.append("bad-json", line="c")
    assert [e["line"] for e in dlq.entries()] == ["a", "b", "c"]
    assert [e["n"] for e in dlq.entries()] == [0, 1, 2]
    assert len(dlq) == 3 and len(DeadLetterQueue(tmp_path)) == 3
    raw = dlq.path.read_bytes()
    assert DeadLetterQueue(tmp_path).append("bad-json", line="b") is None
    assert dlq.path.read_bytes() == raw


def test_second_ingest_over_a_finished_chaos_feed_is_a_noop(
    base, world, tmp_path, clean
):
    """Re-running an ingest over a feed it finished re-decides only
    what followed the last WAL record: no new epoch, the same counters,
    and a byte-identical DLQ."""
    chaos_path = tmp_path / "chaos.jsonl"
    chaos_path.write_text("\n".join(_chaos_lines(base)) + "\n")
    daemon, ingestor = _load(world, tmp_path)
    ingestor.ingest_file(chaos_path)
    ingestor.flush()
    expected = _stream_stats(ingestor)
    dlq = (tmp_path / "state" / "dlq.jsonl").read_bytes()

    daemon, ingestor = _resume(world, tmp_path, chaos_path, _stream_config())
    assert daemon.store.current.seq == 0
    assert np.array_equal(
        daemon.store.current.estimates.pagerank, clean["pagerank"]
    )
    assert (tmp_path / "state" / "dlq.jsonl").read_bytes() == dlq
    assert _stream_stats(ingestor) == expected


def test_dlq_replay_is_noop_on_scores(base, world, tmp_path, clean):
    """Re-ingesting an unrepaired quarantined window changes nothing.

    Its ids count as consumed only once a later window's WAL record
    commits them.  The poisoned window is the stream's last, so a new
    incarnation of the ingestor re-decides it: quarantined again, with
    no new epoch and no new DLQ entry."""
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

    final = ingestor.stats()

    # replay through a new incarnation of the ingestor: it resumes at
    # the last committed window, so the quarantined lines are not
    # duplicates — the window is re-decided, and poison stays poison.
    # That is what makes DLQ re-ingestion after an operator inspection
    # safe by default
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
    assert after["duplicates"] == before["duplicates"]
    assert after["windows_committed"] == before["windows_committed"]
    assert after["windows_quarantined"] == before["windows_quarantined"] + 1
    assert after["events_consumed"] == before["events_consumed"] + len(
        windows[0]["lines"]
    )
    assert after["dlq_entries"] == final["dlq_entries"]
    for key in ("events_consumed", "windows_committed",
                "windows_quarantined"):
        assert after[key] == final[key], key


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
    base, world, tmp_path, clean
):
    """Both warm and cold solves rejecting a durable window must not
    wedge the stream: that window alone is dead-lettered as
    'apply-failed', its record is cut off the WAL, the daemon keeps
    answering from the last good epoch, and every later window
    commits."""
    graph, _, _, _, stream = base
    # the whole first apply fails, before either solve runs; the fault
    # fires once because the next window's record reuses the cut seq
    chaos = ServeChaos(fail_apply_on=(1,))
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
    failed = [e for e in entries if e["reason"] == "apply-failed"]
    assert len(failed) == 1
    first = clean["first_window"]
    assert failed[0]["window"] == first["window"]
    assert failed[0]["ids"] == first["ids"]
    stats = ingestor.stats()
    assert stats["windows_quarantined"] == 1
    assert stats["windows_committed"] == (
        clean["stats"]["windows_committed"] - 1
    ) == 18
    got = daemon.query_score(graph.name_of(3))
    assert got["host"] == graph.name_of(3)
    assert stats["windows_committed"] > 0
    assert daemon.store.current.seq == stats["windows_committed"]
    records, _ = daemon.wal.recover(repair=False)
    assert [r.seq for r in records] == list(
        range(1, stats["windows_committed"] + 1)
    )


# ----------------------------------------------------------------------
# backpressure
# ----------------------------------------------------------------------


def test_flood_degrades_window_and_recovers(
    base, world, tmp_path, monkeypatch
):
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
    monkeypatch.setattr(serve_stream, "FLOOD_THRESHOLD", 48)
    ingestor = StreamIngestor(
        daemon,
        tmp_path / "state",
        config=StreamConfig(window=16, max_lateness=8),
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


def test_a_window_narrower_than_the_flood_floor_runs_as_set(
    base, world, tmp_path, monkeypatch
):
    """A one-tick window is below ``MIN_WINDOW``: it is accepted, stays
    one tick through a flood, and every event reaches the graph."""
    graph, core, _, edges, _ = base
    flood_stream = synthesize_stream(
        graph, core=core, seed=5, num_events=260, attacks=(),
        burst=(80, 120),
    )
    path = tmp_path / "flood.jsonl"
    flood_stream.write(path)
    monkeypatch.setattr(serve_stream, "FLOOD_THRESHOLD", 48)
    daemon, ingestor = _load(
        world, tmp_path, stream=StreamConfig(window=1, max_lateness=8)
    )
    widths = set()
    _ingest_until(ingestor, path, lambda i: widths.add(i._cw))
    ingestor.flush()
    assert widths == {1}
    live = set(edges)
    for event in flood_stream.events:
        (live.add if event.op == "+" else live.remove)(event.edge())
    final = WebGraph.from_edges(N, sorted(live))
    epoch = daemon.store.current
    assert epoch.graph.structural_fingerprint() == final.structural_fingerprint()
    assert ingestor.stats()["windows_quarantined"] == 0


# ----------------------------------------------------------------------
# WAL interplay
# ----------------------------------------------------------------------


def test_batched_run_restarts_at_its_scores(base, world, tmp_path, clean):
    """A run that coalesces three 16-tick windows' churn per apply (a
    48-tick window) reaches the clean graph, its WAL keeps a record
    per window, and a restart comes up at its scores bitwise with
    nothing to replay.

    Coalescing changes the warm-start trajectory, so the reference for
    the scores is the coalesced run itself, not the clean one.
    """
    world_dir, _, stream_path = world
    daemon = ScoringDaemon.load(
        world_dir, _fresh_ckpt(world, tmp_path), config=_daemon_config()
    )
    ingestor = StreamIngestor(
        daemon,
        tmp_path / "state",
        config=StreamConfig(window=48, max_lateness=8),
    )
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    epoch = daemon.store.current
    assert epoch.graph.structural_fingerprint() == clean["fingerprint"]
    records, _ = daemon.wal.recover(repair=False)
    assert len(records) == ingestor.stats()["windows_committed"]
    assert epoch.wal_seq == records[-1].seq

    restarted = ScoringDaemon.load(
        world_dir, tmp_path / "ckpt", config=_daemon_config()
    )
    assert restarted.staleness == 0
    again = restarted.store.current
    assert again.fingerprint == epoch.fingerprint
    assert np.array_equal(again.estimates.pagerank, epoch.estimates.pagerank)
    assert np.array_equal(
        again.estimates.core_pagerank, epoch.estimates.core_pagerank
    )


def _resumable_state(ingestor):
    """What a resumed ingestor restores from a position: all but the
    open windows' events, which it re-reads from the source."""
    stats = _stream_stats(ingestor)
    del stats["buffered"]
    return {
        **stats,
        "tracker": ingestor._tracker.as_dict(),
        "max_ts": ingestor._max_ts,
        "next_start": ingestor._next_start,
        "flooded": ingestor._flooded,
    }


def test_resume_right_after_a_reanchor_reads_the_segment_header(
    world, tmp_path, clean, monkeypatch
):
    """A re-anchor leaves the live segment empty: the ingestor resumed
    right after one restores the position and counters the new
    segment's header carries — the last folded window's — and ends at
    the uninterrupted run's scores and counters, bitwise."""
    every = 4
    monkeypatch.setattr(serve_daemon, "ANCHOR_EVERY", every)
    _, _, stream_path = world
    daemon, ingestor = _load(world, tmp_path)
    _ingest_until(
        ingestor, stream_path, lambda i: i.daemon.wal.base is not None
    )
    records, _ = daemon.wal.recover(repair=False)
    assert records == [] and daemon.wal.base.seq == every
    assert daemon.wal.base.position["counters"][4] == every
    crashed = _resumable_state(ingestor)
    del daemon, ingestor

    world_dir, _, _ = world
    daemon = ScoringDaemon.load(
        world_dir, tmp_path / "ckpt", config=_daemon_config()
    )
    assert daemon.staleness == 0
    assert daemon.store.current.wal_seq == every
    ingestor = StreamIngestor(
        daemon, tmp_path / "state", config=_stream_config()
    )
    assert _resumable_state(ingestor) == crashed
    ingestor.ingest_file(stream_path)
    ingestor.flush()
    epoch = daemon.store.current
    assert epoch.fingerprint == clean["fingerprint"]
    assert np.array_equal(epoch.estimates.pagerank, clean["pagerank"])
    assert np.array_equal(
        epoch.estimates.core_pagerank, clean["core_pagerank"]
    )
    expected = dict(clean["stats"])
    del expected["epoch"]
    assert _stream_stats(ingestor) == expected


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
