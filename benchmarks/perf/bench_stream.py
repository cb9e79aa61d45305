#!/usr/bin/env python
"""Benchmark: stream ingestion throughput, detection latency, recovery.

The streaming front door (``repro-spam stream``, :mod:`repro.serve.stream`)
turns a crawler's timestamped edge-event feed into committed scoring
epochs: events are validated, windowed by event time, compacted and
applied through the daemon's WAL, with poison quarantined to a DLQ.
This bench measures the three numbers an operator sizes the pipeline
by:

1. **Ingest throughput** — events/sec over a churn-only stream, file
   to final flush, best of ``--repeats`` runs on fresh state.  This is
   the end-to-end number: validation, window compaction, the WAL
   append that commits each window and the incremental re-estimate
   per window all included.
2. **Detection latency** — the three scripted temporal attacks
   (expired-domain takeover, sub-threshold gradual farm, stale good-
   core member) replayed across ``--seeds`` worlds; reported as the
   median number of events between attack onset and the spam-mass
   gates catching the target.  An attack that is never caught is a
   correctness failure, not a regression.
3. **Recovery after a crash** — the full chaos battery (torn lines
   with retransmits, duplicates, bounded reordering, late stragglers,
   one poisoned window) is ingested to ~60% of the bytes and the
   process dies without a flush; the bench times the second
   incarnation (resume from the newest WAL record's position +
   re-ingest to EOF) and verifies the scores are bitwise-identical to
   a clean single-pass run.

Typical usage::

    PYTHONPATH=src python benchmarks/perf/bench_stream.py \
        --out benchmarks/perf/BENCH_stream.json

    # CI gate: no >4x throughput / latency / recovery regression
    PYTHONPATH=src python benchmarks/perf/bench_stream.py \
        --check benchmarks/perf/BENCH_stream.json --factor 4.0

This is a plain script, not a pytest module — ``benchmarks/`` is
excluded from test collection and the bench must run standalone in CI.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import emit_report, median, new_report, split_csv  # noqa: E402

#: The attack world recipe the detection section replays.  Small on
#: purpose: detection latency is a property of the gates, not of graph
#: scale, and the committed numbers must be cheap to re-measure in CI.
N, ACTIVE = 100, 40
GAMMA = 0.85
RHO, TAU = 1.5, 0.9
ATTACK_EVENTS, BOOSTERS, STRIDE = 400, 12, 3


def build_world(root, *, n=N, active=ACTIVE, num_edges=200, core_size=10):
    """A reference world: ``num_edges`` live edges among the first
    ``active`` hosts, the rest dormant for the attack scripts to
    claim, a ``core_size``-host good core, and a solved checkpoint
    template to copy per run."""
    from repro.core import estimate_spam_mass
    from repro.graph import WebGraph, write_graph_bundle, write_host_list
    from repro.runtime.checkpoint import save_solution

    rng = np.random.default_rng(7)
    edges = set()
    while len(edges) < num_edges:
        u, v = rng.integers(0, active, 2)
        if u != v:
            edges.add((int(u), int(v)))
    graph = WebGraph.from_edges(n, sorted(edges))
    core = np.arange(0, core_size, dtype=np.int64)
    estimates = estimate_spam_mass(graph, core, gamma=GAMMA)
    world_dir = root / "world"
    write_graph_bundle(graph, world_dir)
    write_host_list(
        [graph.name_of(int(i)) for i in core], world_dir / "core.hosts"
    )
    template = root / "ckpt-template"
    save_solution(
        template,
        np.stack([estimates.pagerank, estimates.core_pagerank], axis=1),
        fingerprint=graph.structural_fingerprint(),
        extra={"damping": 0.85, "gamma": GAMMA,
               "labels": ["pagerank", "core"]},
    )
    return graph, core, sorted(edges), world_dir, template


def _spawn(world_dir, template, run_dir, **stream_kw):
    """A daemon + ingestor pair on a fresh checkpoint copy."""
    from repro.serve import (
        DaemonConfig,
        ScoringDaemon,
        StreamConfig,
        StreamIngestor,
    )

    ckpt = run_dir / "ckpt"
    shutil.copytree(template, ckpt)
    daemon = ScoringDaemon.load(
        world_dir, ckpt, config=DaemonConfig(max_staleness=16)
    )
    ingestor = StreamIngestor(
        daemon,
        run_dir / "state",
        config=StreamConfig(window=16, max_lateness=8),
        **stream_kw,
    )
    return daemon, ingestor


def bench_throughput(root, *, events, repeats):
    """Events/sec over a churn-only stream, best of ``repeats``.

    Measured on its own, larger world (the tiny attack world's 40
    active hosts cannot absorb thousands of churn inserts), so the
    per-window incremental re-estimate pays a realistic graph size.
    """
    from repro.synth import synthesize_stream

    world_root = root / "throughput-world"
    world_root.mkdir()
    graph, core, _, world_dir, template = build_world(
        world_root, n=1000, active=600, num_edges=3000, core_size=50
    )
    stream = synthesize_stream(
        graph, core=core, seed=13, num_events=events, attacks=()
    )
    path = root / "churn.jsonl"
    stream.write(path)
    runs = []
    for i in range(repeats):
        run_dir = root / f"throughput-{i}"
        run_dir.mkdir()
        daemon, ingestor = _spawn(world_dir, template, run_dir)
        started = time.perf_counter()
        ingestor.ingest_file(path)
        ingestor.flush()
        runs.append(time.perf_counter() - started)
        stats = ingestor.stats()
        del daemon, ingestor
    best = min(runs)
    return {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "events": events,
        "windows_committed": stats["windows_committed"],
        "repeats": repeats,
        "best_seconds": round(best, 4),
        "median_seconds": round(median(runs), 4),
        "events_per_sec": round(events / best, 1),
    }


def bench_detection(graph, core, world_dir, template, root, *, seeds):
    """Median events-to-catch per scripted attack across seeds."""
    from repro.eval import LatencyProbe
    from repro.synth import synthesize_stream

    failures = []
    per_kind = {}
    for seed in seeds:
        stream = synthesize_stream(
            graph,
            core=core,
            seed=seed,
            num_events=ATTACK_EVENTS,
            boosters_per_attack=BOOSTERS,
            attack_stride=STRIDE,
        )
        probe = LatencyProbe(stream.attacks, rho=RHO, tau=TAU)
        run_dir = root / f"detect-{seed}"
        run_dir.mkdir()
        daemon, ingestor = _spawn(
            world_dir, template, run_dir, on_commit=probe.observe
        )
        path = run_dir / "events.jsonl"
        stream.write(path)
        ingestor.ingest_file(path)
        ingestor.flush()
        del daemon, ingestor
        for verdict in probe.report():
            kind = verdict["kind"]
            bucket = per_kind.setdefault(
                kind, {"events": [], "windows": [], "missed": 0}
            )
            if verdict["caught"]:
                bucket["events"].append(verdict["events_until_caught"])
                bucket["windows"].append(verdict["windows_until_caught"])
            else:
                bucket["missed"] += 1
                failures.append(
                    f"seed {seed}: {kind} attack on host "
                    f"{verdict['target']} was never caught"
                )
    result = {
        "seeds": list(seeds),
        "rho": RHO,
        "tau": TAU,
        "events_per_stream": ATTACK_EVENTS,
        "attacks": {},
    }
    for kind, bucket in sorted(per_kind.items()):
        caught = len(bucket["events"])
        result["attacks"][kind] = {
            "caught": caught,
            "missed": bucket["missed"],
            "catch_rate": round(caught / (caught + bucket["missed"]), 4),
            "median_events_to_catch": (
                round(median(bucket["events"]), 1) if caught else None
            ),
            "median_windows_to_catch": (
                round(median(bucket["windows"]), 1) if caught else None
            ),
        }
    return result, failures


def _chaos_lines(graph, core, edges):
    """The full injector battery over a fresh attack stream's lines."""
    from repro.runtime.chaos import (
        duplicate_stream_events,
        late_straggler_events,
        poison_stream_window,
        reorder_stream_events,
        torn_resend_stream,
    )
    from repro.synth import synthesize_stream

    stream = synthesize_stream(
        graph,
        core=core,
        seed=3,
        num_events=300,
        boosters_per_attack=8,
        attack_stride=3,
    )
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
    return stream, lines


def bench_recovery(graph, core, edges, world_dir, template, root):
    """Wall clock of a crash-resume over the chaos battery, with a
    bitwise check of the recovered scores against a clean pass."""
    from repro.serve import ScoringDaemon, StreamConfig, StreamIngestor
    from repro.serve import DaemonConfig

    failures = []
    stream, lines = _chaos_lines(graph, core, edges)
    chaos_path = root / "chaos.jsonl"
    chaos_path.write_text("\n".join(lines) + "\n")

    # the clean reference: the untouched stream, one pass
    clean_dir = root / "recovery-clean"
    clean_dir.mkdir()
    clean_path = clean_dir / "events.jsonl"
    stream.write(clean_path)
    daemon, ingestor = _spawn(world_dir, template, clean_dir)
    ingestor.ingest_file(clean_path)
    ingestor.flush()
    clean_epoch = daemon.store.current
    clean_fingerprint = clean_epoch.graph.structural_fingerprint()
    clean_pagerank = clean_epoch.estimates.pagerank.copy()
    del daemon, ingestor

    # first incarnation: ~60% of the bytes, then the process dies
    run_dir = root / "recovery"
    run_dir.mkdir()
    daemon, ingestor = _spawn(world_dir, template, run_dir)
    raw = chaos_path.read_bytes()
    cut = len(raw) * 6 // 10
    consumed_before_crash = 0
    with open(chaos_path, "rb") as fh:
        while fh.tell() < cut:
            start = fh.tell()
            line = fh.readline()
            if not line:
                break
            ingestor._position = fh.tell()
            ingestor.ingest_line(line.decode(), offset=start)
    consumed_before_crash = ingestor.stats()["events_consumed"]
    del daemon, ingestor  # no flush, no close: the crash

    # second incarnation: load, resume from the WAL position, run to EOF
    started = time.perf_counter()
    daemon = ScoringDaemon.load(
        world_dir, run_dir / "ckpt", config=DaemonConfig(max_staleness=16)
    )
    ingestor = StreamIngestor(
        daemon, run_dir / "state",
        config=StreamConfig(window=16, max_lateness=8),
    )
    ingestor.ingest_file(chaos_path)
    ingestor.flush()
    recovery_seconds = time.perf_counter() - started

    epoch = daemon.store.current
    if epoch.graph.structural_fingerprint() != clean_fingerprint:
        failures.append(
            "recovered graph fingerprint differs from the clean run"
        )
    if not np.array_equal(epoch.estimates.pagerank, clean_pagerank):
        failures.append(
            "recovered scores are not bitwise-identical to the clean run"
        )
    stats = ingestor.stats()
    if stats["windows_quarantined"] != 1:
        failures.append(
            f"expected exactly 1 quarantined window, saw "
            f"{stats['windows_quarantined']}"
        )
    return {
        "stream_events": len(stream.events),
        "consumed_before_crash": consumed_before_crash,
        "recovery_seconds": round(recovery_seconds, 4),
        "windows_committed": stats["windows_committed"],
        "windows_quarantined": stats["windows_quarantined"],
        "dlq_entries": stats["dlq_entries"],
        "bitwise_identical": not failures,
    }, failures


def bench_preset(*, events, repeats, seeds):
    root = Path(tempfile.mkdtemp(prefix="bench-stream-"))
    graph, core, edges, world_dir, template = build_world(root)
    preset = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
    }
    failures = []
    preset["throughput"] = bench_throughput(
        root, events=events, repeats=repeats
    )
    preset["detection"], detect_failures = bench_detection(
        graph, core, world_dir, template, root, seeds=seeds
    )
    failures.extend(detect_failures)
    preset["recovery"], recovery_failures = bench_recovery(
        graph, core, edges, world_dir, template, root
    )
    failures.extend(recovery_failures)
    preset["failures"] = failures
    return preset


def verify(report):
    """Correctness failures (a missed attack, a non-bitwise recovery)."""
    problems = []
    for name, preset in report["presets"].items():
        for failure in preset.get("failures", ()):
            problems.append(f"{name}: {failure}")
        for kind, attack in preset["detection"]["attacks"].items():
            if attack["catch_rate"] < 1.0:
                problems.append(
                    f"{name}: {kind} catch rate "
                    f"{attack['catch_rate']:.2f} is below 1.0 — the "
                    "gates missed a scripted attack"
                )
        if not preset["recovery"]["bitwise_identical"]:
            problems.append(
                f"{name}: crash recovery did not reproduce the clean "
                "run bitwise"
            )
    return problems


def check_regression(report, baseline_path, factor):
    """Throughput/latency regression vs the baseline (empty = pass)."""
    failures = []
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    for name, preset in report["presets"].items():
        base = baseline.get("presets", {}).get(name)
        if base is None:
            continue
        current_eps = preset["throughput"]["events_per_sec"]
        reference_eps = base["throughput"]["events_per_sec"]
        if reference_eps > 0 and current_eps < reference_eps / factor:
            failures.append(
                f"{name}: ingest throughput {current_eps:.0f} events/s "
                f"is less than 1/{factor:g} of the baseline "
                f"{reference_eps:.0f} events/s"
            )
        for kind, attack in preset["detection"]["attacks"].items():
            base_attack = base["detection"]["attacks"].get(kind)
            if base_attack is None:
                continue
            current_med = attack["median_events_to_catch"]
            reference_med = base_attack["median_events_to_catch"]
            if (
                current_med is not None
                and reference_med
                and current_med > factor * reference_med
            ):
                failures.append(
                    f"{name}: {kind} median detection latency "
                    f"{current_med:.0f} events is more than {factor:g}x "
                    f"the baseline {reference_med:.0f} events"
                )
        current_rec = preset["recovery"]["recovery_seconds"]
        # tiny wall clocks are noisy; gate against a 50ms floor
        reference_rec = max(base["recovery"]["recovery_seconds"], 0.05)
        if current_rec > factor * reference_rec:
            failures.append(
                f"{name}: crash recovery took {current_rec:.3f}s, more "
                f"than {factor:g}x the baseline {reference_rec:.3f}s"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events",
        type=int,
        default=2000,
        help="churn events in the throughput section (default 2000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="throughput repeats on fresh state; best is reported",
    )
    parser.add_argument(
        "--seeds",
        default="3,4,5,6,7",
        help="comma-separated attack-world seeds for the detection "
        "section (default 3,4,5,6,7)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON report here (default: print to stdout)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline BENCH_stream.json and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=4.0,
        help="max allowed throughput/latency regression vs the "
        "baseline (default 4.0)",
    )
    args = parser.parse_args(argv)

    seeds = [int(s) for s in split_csv(args.seeds)]
    report = new_report(
        "stream",
        {
            "events": args.events,
            "repeats": args.repeats,
            "seeds": seeds,
            "gamma": GAMMA,
            "rho": RHO,
            "tau": TAU,
            "window": 16,
            "max_lateness": 8,
        },
    )
    print("benchmarking stream ingestion ...", file=sys.stderr, flush=True)
    report["presets"]["default"] = bench_preset(
        events=args.events, repeats=args.repeats, seeds=seeds
    )

    emit_report(report, args.out)

    for name, preset in report["presets"].items():
        thr = preset["throughput"]
        rec = preset["recovery"]
        print(
            f"{name}: {thr['events_per_sec']} events/s "
            f"({thr['windows_committed']} windows), crash recovery "
            f"{rec['recovery_seconds']}s "
            f"(bitwise: {rec['bitwise_identical']})",
            file=sys.stderr,
        )
        for kind, attack in preset["detection"]["attacks"].items():
            print(
                f"{name}: {kind}: caught {attack['caught']}/"
                f"{attack['caught'] + attack['missed']}, median "
                f"{attack['median_events_to_catch']} events / "
                f"{attack['median_windows_to_catch']} windows to catch",
                file=sys.stderr,
            )

    problems = verify(report)
    if args.check:
        problems.extend(check_regression(report, args.check, args.factor))
    if problems:
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        return 1
    if args.check:
        print("regression check passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
