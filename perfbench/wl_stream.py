"""``stream``: closed-loop replay of a seeded, attack-free churn stream.

The stream goes through ``StreamIngestor`` into a ``ScoringDaemon``
with a ``DeltaWAL`` and a checkpoint directory, as ``repro-spam stream
ingest`` runs it, so every window parses, seals, composes its deltas,
journals and fsyncs the WAL, splices the graph, derives the operator,
runs the warm update, publishes an epoch and saves the solution.  The
feed grows one window's worth of events at a time and the ingestor
tails it, until the measured interval is over; then ``flush`` seals
the rest.

The churn is generated here, not with ``synthesize_stream`` (whose
Python loop over every edge costs seconds at 1M hosts): deletions of
distinct base edges and insertions of distinct new edges between
active hosts, with event time advancing 0–2 ticks per event as in the
crawler model.  No edge is both inserted and deleted, so every event
applies in any order and the expected final graph is a set operation.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import checks
from common import (Probe, Report, World, calibrate, median,
                    process_peak_rss_mb, reset_peak_rss, solve_checkpoint)
from layers import layer_metrics, make_tracer

SETUPS = 3
DELETE_SHARE = 0.4
#: peak RSS is taken over set-up and this many windows: the operator
#: cache keeps one bundle per window (up to its bound), so a peak over
#: however many windows fit the interval would vary with machine speed
RSS_WINDOWS = 3


def churn_events(graph, seed: int, count: int):
    """``count`` seeded ``(op, src, dst, ts)`` churn events."""
    rng = np.random.default_rng([seed, 0x5EED])
    n = graph.num_nodes
    base = checks.edge_keys(graph.indptr, graph.indices)
    is_delete = rng.random(count) < DELETE_SHARE
    deletes = base[rng.choice(len(base), int(is_delete.sum()), replace=False)]
    active = np.flatnonzero(~graph.isolated_mask())
    wanted = count - len(deletes)
    inserts = np.empty(0, dtype=np.int64)
    while len(inserts) < wanted:
        draw = 2 * (wanted - len(inserts)) + 64
        src = active[rng.integers(0, len(active), draw)]
        dst = active[rng.integers(0, len(active), draw)]
        keys = (src * n + dst)[src != dst]
        pos = np.searchsorted(base, keys).clip(max=len(base) - 1)
        keys = keys[base[pos] != keys]
        keys = np.concatenate([inserts, keys])
        _, first = np.unique(keys, return_index=True)
        inserts = keys[np.sort(first)]
    inserts = inserts[:wanted]
    keys = np.empty(count, dtype=np.int64)
    keys[is_delete] = deletes
    keys[~is_delete] = inserts
    ts = np.concatenate([[0], np.cumsum(rng.integers(0, 3, count - 1))])
    return [
        ("-" if d else "+", int(k // n), int(k % n), int(t))
        for d, k, t in zip(is_delete, keys, ts)
    ]


def run(args, workdir: Path, report: Report) -> None:
    import repro.core
    from repro.core.mass import MassEstimates
    from repro.perf import PagerankEngine
    from repro.runtime import checkpoint
    from repro.serve import (DaemonConfig, DeltaWAL, ScoringDaemon,
                             StreamConfig, StreamIngestor)
    from repro.synth.crawler import CrawlEvent

    probe = Probe()
    world = World(args.seed, args.hosts)
    graph = world.graph()
    core = world.core
    n = world.num_nodes
    del world
    ckpt = workdir / "ckpt"
    solve_checkpoint(graph, core, ckpt)
    # generous: more events than any window rate can consume
    events = churn_events(graph, args.seed, int(8000 * args.seconds) + 4096)
    tracer = make_tracer() if args.trace else None

    windows = []  # (start, end, events, traced)
    state = {"last": None, "traced": False, "rss": None, "commits": 0}

    def on_commit(info, _epoch) -> None:
        now = time.perf_counter()
        if state["last"] is not None:
            windows.append(
                (state["last"], now, len(info["ids"]), state["traced"])
            )
        state["commits"] += 1
        if state["commits"] == RSS_WINDOWS:
            state["rss"] = process_peak_rss_mb()
        probe.run_between_ops()
        if tracer is not None:
            # traced and untraced windows alternate
            state["traced"] = len(windows) % 2 == 0
            (tracer.install if state["traced"] else tracer.uninstall)()
        state["last"] = time.perf_counter()
        if tracer is not None:
            # this runs inside the ingestor's call stack: keep the
            # probe out of the enclosing spans' self time
            tracer.record("bench.between_ops", now, state["last"])

    def build(index: int):
        snapshot = checkpoint.load_solution(ckpt)
        estimates = MassEstimates(
            snapshot.scores[:, 0].copy(),
            snapshot.scores[:, 1].copy(),
            float(snapshot.meta["damping"]),
            snapshot.meta["gamma"],
        )
        wal = DeltaWAL(ckpt / "wal")
        wal.recover()
        daemon = ScoringDaemon(
            graph, core, estimates, checkpoint_dir=ckpt, wal=wal,
            config=DaemonConfig(),
        )
        ingestor = StreamIngestor(
            daemon,
            workdir / f"state-{index}",
            config=StreamConfig(
                window=args.window, max_lateness=args.max_lateness
            ),
            on_commit=on_commit,
        )
        return daemon, ingestor

    reset_peak_rss()
    if tracer is not None:
        tracer.install()
    setups = []
    for index in range(SETUPS):
        probe.run()
        start = time.perf_counter()
        daemon, ingestor = build(index)
        setups.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.uninstall()

    feed = workdir / "events.jsonl"
    fed = 0
    replay = 0.0
    deadline = time.perf_counter() + args.seconds
    with open(feed, "w", encoding="utf-8") as fh:
        while time.perf_counter() < deadline and fed < len(events):
            chunk = events[fed:fed + args.window]
            fh.write("".join(
                CrawlEvent(fed + j, ts, op, u, v).to_line() + "\n"
                for j, (op, u, v, ts) in enumerate(chunk)
            ))
            fh.flush()
            fed += len(chunk)
            start = time.perf_counter()
            ingestor.ingest_file(feed)
            replay += time.perf_counter() - start
        start = time.perf_counter()
        ingestor.flush()
        replay += time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if fed >= len(events):
        raise RuntimeError("the churn stream ran out before the interval")
    rss = state["rss"] if state["rss"] is not None else process_peak_rss_mb()

    stats = ingestor.stats()
    report.attempted = stats["windows_committed"] + stats["windows_quarantined"]
    epoch = daemon.store.current
    expected = checks.apply_events(
        checks.edge_keys(graph.indptr, graph.indices), n, events[:fed]
    )
    if not np.array_equal(
        checks.edge_keys(epoch.graph.indptr, epoch.graph.indices), expected
    ):
        report.fail("stream: final graph differs from the base graph with "
                    "every event applied")
    cold = repro.core.estimate_spam_mass(
        epoch.graph, core, engine=PagerankEngine()
    )
    report.fail(*checks.check_stream(
        stats, epoch.fingerprint, checks.expected_fingerprint(n, expected),
        epoch.estimates, cold, fed,
    ))

    probe_s = probe.median()

    def scale(raw: float) -> float:
        return calibrate(raw, args.probe_ref_ms, probe_s)

    untraced = [end - start for start, end, _e, t in windows if not t]
    traced = [end - start for start, end, _e, t in windows if t]
    window_s = median(untraced)
    setup_s = median(setups)
    per_window = median([e for _s, _e2, e, _t in windows])
    report.line("setup_s", scale(setup_s), "s", len(setups),
                f"raw {setup_s:.4f} s")
    report.line("window_p50_s", scale(window_s), "s", len(untraced),
                f"raw {window_s:.4f} s")
    report.line("events_per_s", fed / scale(replay), "events/s",
                stats["windows_committed"],
                f"raw {fed / replay:.2f}, {fed} events in {replay:.3f} s")
    report.line("peak_rss_mb", rss, "MiB", 1,
                f"set-up and the first {RSS_WINDOWS} windows")
    report.line("serve.events_per_window", per_window, "count", len(windows))
    report.line("bench.probe_ms", probe_s * 1e3, "ms", len(probe.samples))

    if tracer is None:
        report.metric("setup_s", scale(setup_s), "s")
        report.metric("op_ms", scale(window_s) * 1e3, "ms")
        report.metric("peak_rss_mb", rss, "MiB")
        return

    extra = {
        "serve.events_per_window": per_window,
        "serve.dlq_entries": stats["dlq_entries"],
        "bench.probe_ms": probe_s * 1e3,
        "bench.trace_overhead": median(traced) / window_s,
    }
    traced_ops = [(s, e) for s, e, _n, t in windows if t]
    for name, (value, unit) in layer_metrics(
        tracer.spans, traced_ops, extra
    ).items():
        report.metric(name, value, unit)
