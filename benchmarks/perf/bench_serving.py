#!/usr/bin/env python
"""Benchmark: serving latency, sustained QPS, availability under ingest.

The always-on daemon (``repro-spam serve``, :mod:`repro.serve`) answers
per-host spam-mass queries from an immutable epoch while a background
worker folds accepted deltas into the next one.  This bench measures
the three numbers an operator sizes the service by, over the real
socket path (NDJSON over a unix socket — the same bytes a production
client would pay for):

1. **Query latency** — p50/p99 over ``--requests`` sequential requests
   per op (``score``, ``top``, ``health``), one warm client.  The
   first and last ``top`` replies must equal a NumPy top-k over the
   bench's own estimates.
2. **Sustained QPS** — ``--threads`` clients hammering ``score`` for
   ``--duration`` seconds; reported as total responses / wall time.
3. **Availability under ingest** — a churn delta (1% of the edge
   count, diffuse targets: the slow flavor for the incremental
   engine) is submitted and applied while one client keeps reading.
   Every read during the in-flight re-estimate must answer — from the
   previous epoch, with ``staleness`` set — and the bench reports the
   read latencies and the availability ratio.  Availability below 1.0
   is a correctness failure, not a regression.  Once the apply lands,
   one ``top`` must equal the NumPy top-k over the new epoch's scores.

Typical usage::

    PYTHONPATH=src python benchmarks/perf/bench_serving.py \
        --out benchmarks/perf/BENCH_serving.json

    # CI gate: no >4x p99 latency or QPS regression vs the baseline
    PYTHONPATH=src python benchmarks/perf/bench_serving.py \
        --check benchmarks/perf/BENCH_serving.json --factor 4.0

This is a plain script, not a pytest module — ``benchmarks/`` is
excluded from test collection and the bench must run standalone in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import emit_report, new_report, split_csv  # noqa: E402

#: Ops the sequential latency section measures.
LATENCY_OPS = ("score", "top", "health")


def _percentiles_ms(samples):
    arr = np.asarray(samples, dtype=np.float64) * 1e3
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p99_ms": round(float(np.percentile(arr, 99)), 4),
        "max_ms": round(float(arr.max()), 4),
        "requests": int(arr.size),
    }


def reference_top(graph, estimates, k, *, tau, rho):
    """Algorithm 2's top-k straight from the score vectors, ties in
    node order: what a ``top`` reply's candidates must be."""
    scaled = estimates.pagerank * (
        graph.num_nodes / (1.0 - estimates.damping)
    )
    relative = estimates.relative
    eligible = np.flatnonzero((scaled >= rho) & (relative >= tau))
    order = eligible[np.argsort(-relative[eligible], kind="stable")][:k]
    return {
        "candidates": [
            {
                "host": graph.name_of(int(node)),
                "relative_mass": float(relative[node]),
                "scaled_pagerank": float(scaled[node]),
            }
            for node in order
        ],
        "total_eligible": int(len(eligible)),
    }


def top_problems(label, reply, expected):
    """A failure line when ``reply`` is not the ``expected`` top-k."""
    got = {key: reply.get(key) for key in expected}
    if got == expected:
        return []
    return [
        f"top ({label}): {got['total_eligible']} eligible and "
        f"{len(got['candidates'] or ())} candidates differ from the "
        f"NumPy top-k ({expected['total_eligible']} eligible)"
    ]


def churn_delta(graph, *, churn, rng):
    """Insertion-only churn sized to ``churn * num_edges``: link-less
    hosts sprout outlinks at uniformly random targets (the diffuse
    flavor of ``bench_incremental.py`` — the slowest apply, so the
    availability window is as wide as it honestly gets)."""
    from repro.graph import GraphDelta

    n = graph.num_nodes
    out_degree = np.diff(graph.indptr)
    silent = np.flatnonzero(out_degree == 0)
    budget = max(1, int(round(churn * graph.num_edges)))
    links_per_host = 20
    num_sources = max(1, min(len(silent), budget // links_per_host))
    sources = rng.choice(silent, size=num_sources, replace=False)
    insertions = []
    for src in sources:
        targets = rng.choice(n - 1, size=links_per_host, replace=False)
        targets = np.where(targets >= src, targets + 1, targets)
        insertions.extend((int(src), int(t)) for t in targets)
    return GraphDelta(insertions=insertions)


def bench_preset(config, *, requests, threads, duration, churn, seed):
    from repro.core.mass import estimate_spam_mass
    from repro.serve import (
        DaemonConfig,
        DeltaWAL,
        ScoringDaemon,
        ScoringServer,
        ServeClient,
    )
    from repro.synth.scenario import build_world, default_good_core

    world = build_world(config)
    graph = world.graph
    core = default_good_core(world)
    estimates = estimate_spam_mass(graph, core, gamma=0.85)

    rng = np.random.default_rng(seed)
    hosts = [
        graph.name_of(int(i))
        for i in rng.choice(graph.num_nodes, size=256, replace=False)
    ]
    failures = []
    root = Path(tempfile.mkdtemp(prefix="bench-serving-"))
    daemon = ScoringDaemon(
        graph,
        core,
        estimates,
        wal=DeltaWAL(root / "wal"),
        config=DaemonConfig(),
    )
    server = ScoringServer(
        daemon, root / "bench.sock", max_queue=max(64, threads * 4)
    )
    server.start()
    try:
        preset = {
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
        }

        # 1. sequential latency per op, one warm client
        gates = {"tau": daemon.config.tau, "rho": daemon.config.rho}
        with ServeClient(server.socket_path) as client:
            client.health()  # connection + first-dispatch warmup
            latency = {}
            tops = []
            for op in LATENCY_OPS:
                samples = []
                for i in range(requests):
                    start = time.perf_counter()
                    if op == "score":
                        response = client.score(hosts[i % len(hosts)])
                    elif op == "top":
                        response = client.top(10)
                    else:
                        response = client.health()
                    samples.append(time.perf_counter() - start)
                    if not response.get("ok"):
                        failures.append(f"{op}: {response!r}")
                    if op == "top" and i in (0, requests - 1):
                        tops.append(response)
                latency[op] = _percentiles_ms(samples)
            preset["latency"] = latency
        expected = reference_top(graph, estimates, 10, **gates)
        for label, reply in zip(("first", "last"), tops):
            failures.extend(top_problems(label, reply, expected))

        # 2. sustained QPS, many clients
        counts = [0] * threads
        stop = threading.Event()

        def _hammer(idx):
            with ServeClient(server.socket_path) as c:
                i = 0
                while not stop.is_set():
                    response = c.score(hosts[(idx + i) % len(hosts)])
                    if not response.get("ok"):
                        failures.append(f"qps: {response!r}")
                        return
                    counts[idx] += 1
                    i += 1

        pool = [
            threading.Thread(target=_hammer, args=(i,), daemon=True)
            for i in range(threads)
        ]
        started = time.perf_counter()
        for t in pool:
            t.start()
        time.sleep(duration)
        stop.set()
        for t in pool:
            t.join(timeout=30.0)
        elapsed = time.perf_counter() - started
        preset["throughput"] = {
            "threads": threads,
            "duration_seconds": round(elapsed, 3),
            "requests": sum(counts),
            "qps": round(sum(counts) / elapsed, 1),
        }

        # 3. read availability while a churn delta re-estimates
        delta = churn_delta(graph, churn=churn, rng=rng)
        with ServeClient(server.socket_path) as client:
            before_epoch = client.health()["epoch"]
            ack = client.ingest(
                [[int(u), int(v)] for u, v in delta.insertions]
            )
            if not ack.get("ok"):
                failures.append(f"ingest: {ack!r}")
            apply_started = time.perf_counter()
            reads, stale_reads, max_staleness = [], 0, 0
            epoch = before_epoch
            deadline = apply_started + 120.0
            while epoch == before_epoch:
                start = time.perf_counter()
                response = client.score(hosts[len(reads) % len(hosts)])
                reads.append(time.perf_counter() - start)
                if not response.get("ok"):
                    failures.append(f"read during apply: {response!r}")
                    break
                epoch = response["epoch"]
                stale_reads += response["staleness"] > 0
                max_staleness = max(max_staleness, response["staleness"])
                if time.perf_counter() > deadline:
                    failures.append("apply never finished within 120s")
                    break
            apply_seconds = time.perf_counter() - apply_started
            applied = daemon.store.current
            failures.extend(top_problems(
                "after the apply",
                client.top(10),
                reference_top(
                    applied.graph, applied.estimates, 10, **gates
                ),
            ))
            answered = len(reads) - sum(
                1 for f in failures if f.startswith("read during apply")
            )
            preset["ingest"] = {
                "delta_insertions": int(delta.num_insertions),
                "apply_seconds": round(apply_seconds, 4),
                "reads_during_apply": len(reads),
                "availability": round(answered / max(1, len(reads)), 6),
                "stale_reads": stale_reads,
                "max_staleness_seen": max_staleness,
                "read_latency": _percentiles_ms(reads),
            }
    finally:
        server.stop()
    preset["failures"] = failures
    return preset


def verify(report):
    """Correctness failures (an unavailable read path, failed requests)."""
    problems = []
    for name, preset in report["presets"].items():
        for failure in preset.get("failures", ()):
            problems.append(f"{name}: {failure}")
        ingest = preset.get("ingest", {})
        if ingest and ingest["availability"] < 1.0:
            problems.append(
                f"{name}: read availability during apply was "
                f"{ingest['availability']:.4f}, not 1.0 — the degraded "
                "read path went down during an in-flight re-estimate"
            )
        if ingest and ingest["reads_during_apply"] < 1:
            problems.append(
                f"{name}: no reads landed during the apply window"
            )
    return problems


def check_regression(report, baseline_path, factor):
    """Latency/QPS regression vs the committed baseline (empty = pass)."""
    failures = []
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    for name, preset in report["presets"].items():
        base = baseline.get("presets", {}).get(name)
        if base is None:
            continue
        for op in LATENCY_OPS:
            current = preset["latency"][op]["p99_ms"]
            reference = base["latency"][op]["p99_ms"]
            if reference > 0 and current > factor * reference:
                failures.append(
                    f"{name}/{op}: p99 {current:.3f}ms is more than "
                    f"{factor:g}x the baseline {reference:.3f}ms"
                )
        current_qps = preset["throughput"]["qps"]
        reference_qps = base["throughput"]["qps"]
        if reference_qps > 0 and current_qps < reference_qps / factor:
            failures.append(
                f"{name}: sustained {current_qps:.0f} qps is less than "
                f"1/{factor:g} of the baseline {reference_qps:.0f} qps"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--presets",
        default="medium",
        help="comma-separated subset of small,medium,large",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=2000,
        help="sequential requests per op in the latency section",
    )
    parser.add_argument(
        "--threads", type=int, default=4, help="QPS client threads"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=3.0,
        help="seconds of sustained QPS load",
    )
    parser.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="churn fraction for the availability delta (default 1%%)",
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON report here (default: print to stdout)",
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="compare against a baseline BENCH_serving.json and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=4.0,
        help="max allowed p99/QPS regression vs the baseline "
        "(default 4.0)",
    )
    args = parser.parse_args(argv)

    from repro.synth.scenario import WorldConfig

    factories = {
        "small": WorldConfig.small,
        "medium": WorldConfig.medium,
        "large": WorldConfig.large,
    }
    names = split_csv(args.presets)
    unknown = sorted(set(names) - set(factories))
    if unknown:
        parser.error(f"unknown presets: {', '.join(unknown)}")

    report = new_report(
        "serving",
        {
            "seed": args.seed,
            "requests": args.requests,
            "threads": args.threads,
            "duration": args.duration,
            "churn": args.churn,
            "gamma": 0.85,
        },
    )
    for name in names:
        print(f"benchmarking preset {name} ...", file=sys.stderr, flush=True)
        report["presets"][name] = bench_preset(
            factories[name](args.seed),
            requests=args.requests,
            threads=args.threads,
            duration=args.duration,
            churn=args.churn,
            seed=args.seed,
        )

    emit_report(report, args.out)

    for name, preset in report["presets"].items():
        lat = preset["latency"]["score"]
        thr = preset["throughput"]
        ing = preset["ingest"]
        print(
            f"{name}: score p50 {lat['p50_ms']}ms / p99 {lat['p99_ms']}ms"
            f", {thr['qps']} qps over {thr['threads']} clients, "
            f"availability {ing['availability']} during a "
            f"{ing['apply_seconds']}s apply "
            f"({ing['reads_during_apply']} reads)",
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
