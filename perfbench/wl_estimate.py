"""``estimate``: cold spam-mass estimates, alternating two backends.

Closed loop, one caller.  Each op is one cold
``estimate_spam_mass(graph, core, engine=PagerankEngine())`` with the
library defaults (float64, tol 1e-12, γ 0.85); ops alternate between
the in-memory ``WebGraph`` and a freshly opened 8-shard
``ShardedWebGraph`` of the same edges.  The fresh engine and store
make every op pay the operator build and the shard loads, as each
``repro-spam estimate`` invocation does.  Nothing in ``serve`` or
``runtime`` runs.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import checks
from common import (NUM_SHARDS, Probe, Report, World, calibrate, median,
                    op_time, process_peak_rss_mb)
from layers import layer_metrics, make_tracer

KINDS = ("memory", "sharded")
WEIGHTS = {"memory": 1.0, "sharded": 1.0}


def sweep_mb(engine, graph) -> float:
    """Bytes one block-Jacobi sweep moves, from the array sizes: the
    restricted operator ``(Tᵀ)_SS`` plus reading, writing and adding
    the (|S|, 2) iterate."""
    bundle = engine.bundle(graph)
    tt = bundle.tt_ss
    operator = tt.data.nbytes + tt.indices.nbytes + tt.indptr.nbytes
    return (operator + 3 * len(bundle.non_dangling) * 2 * 8) / 1e6


def run(args, workdir: Path, report: Report) -> None:
    import repro.core
    import repro.graph
    from repro.graph import ShardedWebGraph, WebGraph
    from repro.perf import PagerankEngine

    probe = Probe()
    world = World(args.seed, args.hosts)
    tracer = make_tracer() if args.trace else None
    store_dir = workdir / "store"

    # set-up: the in-memory CSR and the 8-shard store of the same edges
    if tracer is not None:
        tracer.install()
    probe.run()
    start = time.perf_counter()
    graph = WebGraph.from_edges(world.num_nodes, world.edges)
    repro.graph.sharded_from_edges(
        world.num_nodes, world.chunks, store_dir, num_shards=NUM_SHARDS
    )
    setup = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    core = world.core
    del world

    times = {kind: [] for kind in KINDS}
    traced_times = {kind: [] for kind in KINDS}
    traced_ops, shard_loads = [], []
    reference = None
    sweep = 0.0
    deadline = time.perf_counter() + args.seconds
    # a traced run alternates two traced ops with two untraced ones
    min_ops = 4 if tracer is not None else 2
    i = 0
    while time.perf_counter() < deadline or i < min_ops:
        kind = KINDS[i % 2]
        traced = tracer is not None and (i // 2) % 2 == 0
        # each op stands for one CLI invocation, which starts with an
        # empty heap: a ShardedWebGraph sits in reference cycles, so
        # without a collection here the last op's store (~170 MB of
        # loaded shards) lingers for as long as the collector waits
        gc.collect()
        target = graph if kind == "memory" else ShardedWebGraph.open(store_dir)
        engine = PagerankEngine()
        probe.run_between_ops()
        report.attempted += 1
        if traced:
            tracer.install()
        try:
            start = time.perf_counter()
            estimates = repro.core.estimate_spam_mass(
                target, core, engine=engine
            )
            end = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            report.fail(f"op {i} ({kind}): {type(exc).__name__}: {exc}")
            continue
        finally:
            if traced:
                tracer.uninstall()
            i += 1
        (traced_times if traced else times)[kind].append(end - start)
        if kind == "sharded":
            shard_loads.append(target.cache_info()["loads"])
        if traced:
            traced_ops.append((start, end))
        if reference is None:
            reference = estimates
            problems = checks.check_estimate(graph, core, estimates)
            sweep = sweep_mb(engine, graph)
        else:
            problems = checks.check_bitwise(
                reference, estimates, f"op {i - 1} ({kind}) vs op 0"
            )
        report.fail(*problems)

    probe_s = probe.median()

    def scale(raw: float) -> float:
        return calibrate(raw, args.probe_ref_ms, probe_s)

    op_s = op_time(times, WEIGHTS)
    rss = process_peak_rss_mb()

    report.line("setup_s", scale(setup), "s", 1, f"raw {setup:.4f} s")
    for kind, name in (("memory", "cold_s"), ("sharded", "sharded_cold_s")):
        raw = median(times[kind])
        report.line(name, scale(raw), "s", len(times[kind]),
                    f"raw {raw:.4f} s")
    report.line("peak_rss_mb", rss, "MiB", 1)
    report.line("bench.probe_ms", probe_s * 1e3, "ms", len(probe.samples))

    if tracer is None:
        report.metric("setup_s", scale(setup), "s")
        report.metric("op_ms", scale(op_s) * 1e3, "ms")
        report.metric("peak_rss_mb", rss, "MiB")
        return

    extra = {
        "graph.shard_loads": median(shard_loads),
        "perf.sweep_mb": sweep,
        "bench.probe_ms": probe_s * 1e3,
        "bench.trace_overhead": op_time(traced_times, WEIGHTS) / op_s,
    }
    for name, (value, unit) in layer_metrics(
        tracer.spans, traced_ops, extra
    ).items():
        report.metric(name, value, unit)
