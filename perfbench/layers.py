"""Which public functions the traced run wraps, and how their spans
fold into the per-layer metrics.

``PER_LAYER`` is the single list of per-layer metrics; every workload
reports all of them in its traced run (a layer the workload never
calls reads 0).  ``BENCHMARK.json`` mirrors it and the self-test checks
the two agree.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

from common import median
from tracing import Tracer, fold, self_times

#: (name, unit, better) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("graph.from_edges_s", "s", "lower"),
    ("graph.shard_build_s", "s", "lower"),
    ("graph.shard_loads", "count", "lower"),
    ("graph.read_bundle_s", "s", "lower"),
    ("graph.delta_apply_ms", "ms", "lower"),
    ("graph.compose_ms", "ms", "lower"),
    ("perf.operator_build_ms", "ms", "lower"),
    ("perf.solve_ms", "ms", "lower"),
    ("perf.iterations", "count", "lower"),
    ("perf.sweep_mb", "MB", "lower"),
    ("perf.derive_ms", "ms", "lower"),
    ("perf.update_ms", "ms", "lower"),
    ("perf.update_sweeps", "count", "lower"),
    ("perf.update_pushes", "count", "lower"),
    ("perf.escapes", "count", "lower"),
    ("perf.escape_sweeps", "count", "lower"),
    ("perf.max_frontier", "count", "lower"),
    ("perf.no_escape_ratio", "ratio", "higher"),
    ("core.estimate_ms", "ms", "lower"),
    ("runtime.save_solution_ms", "ms", "lower"),
    ("runtime.snapshot_mb", "MB", "lower"),
    ("runtime.load_solution_s", "s", "lower"),
    ("io.fsyncs", "count", "lower"),
    ("io.fsync_ms", "ms", "lower"),
    ("serve.daemon_load_s", "s", "lower"),
    ("serve.query_score_us", "us", "lower"),
    ("serve.query_top_ms", "ms", "lower"),
    ("serve.query_health_ms", "ms", "lower"),
    ("serve.server_us", "us", "lower"),
    ("serve.score_p99_ms", "ms", "lower"),
    ("serve.top_p99_ms", "ms", "lower"),
    ("serve.health_p99_ms", "ms", "lower"),
    ("py.gc_ms", "ms", "lower"),
    ("py.gc_gen2", "count", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.wal_append_ms", "ms", "lower"),
    ("serve.apply_ms", "ms", "lower"),
    ("serve.publish_ms", "ms", "lower"),
    ("serve.ingest_us", "us", "lower"),
    ("serve.events_per_window", "count", "higher"),
    ("serve.dlq_entries", "count", "lower"),
    ("synth.parse_us", "us", "lower"),
    ("bench.probe_ms", "ms", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.layer_coverage", "ratio", "higher"),
]

#: Spans that are not a layer's work: gc pauses (reported apart) and
#: the benchmark's own work between ops.
NOT_LAYERS = ("py.gc", "bench.between_ops")


def _misses(args, _kwargs):
    return args[0].misses


def _mark_miss(span, args, _kwargs, _result, before):
    span.attrs = {"miss": args[0].misses > before}


def _iterations(span, _args, _kwargs, result, _before):
    span.attrs = {"iterations": int(result.iterations.max(initial=0))}


def _push_stats(span, _args, _kwargs, result, _before):
    stats = result.stats
    span.attrs = {
        "sweeps": stats.sweeps,
        "pushes": stats.pushes,
        "escapes": stats.escapes,
        "escape_sweeps": stats.escape_sweeps,
        "max_frontier": stats.max_frontier,
    }


def _snapshot_size(span, _args, _kwargs, result, _before):
    span.attrs = {"bytes": os.path.getsize(result)}


def make_tracer() -> Tracer:
    """A tracer over every layer's public functions (not installed)."""
    import repro.core.mass as mass
    import repro.graph.delta as delta
    import repro.graph.io as graph_io
    import repro.graph.sharded as graph_sharded
    import repro.perf.sharded as perf_sharded
    import repro.runtime.checkpoint as checkpoint
    import repro.synth.crawler as crawler
    from repro.graph import GraphDelta, WebGraph
    from repro.perf import OperatorCache, PagerankEngine
    from repro.serve import DeltaWAL, EpochStore, ScoringDaemon, StreamIngestor

    tracer = Tracer()
    add = tracer.add
    add("graph.from_edges", WebGraph, "from_edges")
    add("graph.sharded_from_edges", graph_sharded, "sharded_from_edges")
    add("graph.read_bundle", graph_io, "read_graph_bundle")
    add("graph.delta_apply", GraphDelta, "apply")
    add("graph.compose_deltas", delta, "compose_deltas")
    add("perf.bundle_for", OperatorCache, "bundle_for",
        pre=_misses, post=_mark_miss)
    add("perf.sharded_operator_for", perf_sharded, "sharded_operator_for")
    add("perf.solve_many", PagerankEngine, "solve_many", post=_iterations)
    add("perf.derive_for", OperatorCache, "derive_for")
    add("perf.update_many", PagerankEngine, "update_many", post=_push_stats)
    add("core.estimate_spam_mass", mass, "estimate_spam_mass")
    add("runtime.save_solution", checkpoint, "save_solution",
        post=_snapshot_size)
    add("runtime.load_solution", checkpoint, "load_solution")
    add("io.fsync", os, "fsync")
    add("serve.daemon_load", ScoringDaemon, "load")
    add("serve.query_score", ScoringDaemon, "query_score")
    add("serve.query_top", ScoringDaemon, "query_top")
    add("serve.health", ScoringDaemon, "health")
    add("serve.submit_delta", ScoringDaemon, "submit_delta")
    add("serve.wal_append", DeltaWAL, "append")
    add("serve.apply_pending", ScoringDaemon, "apply_pending")
    add("serve.publish", EpochStore, "publish")
    add("serve.ingest_line", StreamIngestor, "ingest_line")
    add("synth.parse_event_line", crawler, "parse_event_line")
    return tracer


def layer_metrics(
    spans, ops: Sequence[Tuple[float, float]], extra: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Fold spans into every per-layer metric.

    ``ops`` are the traced ops' ``(start, end)`` intervals.  Per-op
    metrics are medians, over the ops that made such a call, of the
    per-op sum of self times; per-call metrics (``*_us`` and the serve
    queries) are medians over calls; set-up metrics (``*_s``) are the
    median duration of the calls outside any op (``serve.daemon_load_s``:
    self time); ``py.gc_*`` total the traced ops' pauses.
    ``extra`` supplies what the workload measured itself (shard loads,
    client latencies, probe, overhead); anything not supplied and not
    traced reads 0.
    """
    own = self_times(spans)
    folded = fold(spans, ops)
    in_op = set(i for op in folded for idx in op.values() for i in idx)

    durations = [span.duration for span in spans]

    def outside(name: str, values=durations) -> float:
        calls = [
            values[i]
            for i, span in enumerate(spans)
            if span.name == name and i not in in_op
        ]
        return median(calls) if calls else 0.0

    def per_op(name: str, values=own, scale=1.0) -> float:
        rows = [sum(values[i] for i in op.get(name, ())) for op in folded]
        used = [r for r, op in zip(rows, folded) if name in op]
        return median(used) * scale if used else 0.0

    def per_call(name: str, scale: float) -> float:
        calls = [own[i] for op in folded for i in op.get(name, ())]
        return median(calls) * scale if calls else 0.0

    def attr_per_op(name: str, key: str, how=sum) -> float:
        rows = [
            how(spans[i].attrs[key] for i in op[name])
            for op in folded if name in op
        ]
        return median(rows) if rows else 0.0

    values = dict.fromkeys((name for name, _u, _b in PER_LAYER), 0.0)
    values.update(
        {
            "graph.from_edges_s": outside("graph.from_edges"),
            "graph.shard_build_s": outside("graph.sharded_from_edges"),
            "graph.read_bundle_s": outside("graph.read_bundle"),
            "graph.delta_apply_ms": per_op("graph.delta_apply", scale=1e3),
            "graph.compose_ms": per_op("graph.compose_deltas", scale=1e3),
            "perf.solve_ms": per_op("perf.solve_many", scale=1e3),
            "perf.derive_ms": per_op("perf.derive_for", scale=1e3),
            "perf.update_ms": per_op("perf.update_many", scale=1e3),
            "core.estimate_ms": per_op("core.estimate_spam_mass", scale=1e3),
            "runtime.save_solution_ms": per_op(
                "runtime.save_solution", scale=1e3),
            "runtime.load_solution_s": outside("runtime.load_solution"),
            "io.fsync_ms": per_op("io.fsync", scale=1e3),
            "io.fsyncs": per_op("io.fsync", values=[1.0] * len(spans)),
            "serve.daemon_load_s": outside("serve.daemon_load", own),
            "serve.query_score_us": per_call("serve.query_score", 1e6),
            "serve.query_top_ms": per_call("serve.query_top", 1e3),
            "serve.query_health_ms": per_call("serve.health", 1e3),
            "serve.submit_ms": per_op("serve.submit_delta", scale=1e3),
            "serve.wal_append_ms": per_op("serve.wal_append", scale=1e3),
            "serve.apply_ms": per_op("serve.apply_pending", scale=1e3),
            "serve.publish_ms": per_op("serve.publish", scale=1e3),
            "serve.ingest_us": per_call("serve.ingest_line", 1e6),
            "synth.parse_us": per_call("synth.parse_event_line", 1e6),
            "perf.iterations": attr_per_op(
                "perf.solve_many", "iterations", max),
            "perf.update_sweeps": attr_per_op("perf.update_many", "sweeps"),
            "perf.update_pushes": attr_per_op("perf.update_many", "pushes"),
            "perf.escapes": attr_per_op("perf.update_many", "escapes"),
            "perf.escape_sweeps": attr_per_op(
                "perf.update_many", "escape_sweeps"),
            "perf.max_frontier": attr_per_op(
                "perf.update_many", "max_frontier", max),
            "runtime.snapshot_mb": attr_per_op(
                "runtime.save_solution", "bytes") / 1e6,
        }
    )
    builds = [
        sum(
            own[i] for i in op.get("perf.bundle_for", ())
            if spans[i].attrs["miss"]
        ) + sum(own[i] for i in op.get("perf.sharded_operator_for", ()))
        for op in folded
    ]
    if any(builds):
        values["perf.operator_build_ms"] = median(builds) * 1e3
    updates = [op for op in folded if "perf.update_many" in op]
    if updates:
        values["perf.no_escape_ratio"] = sum(
            1 for op in updates
            if not any(spans[i].attrs["escapes"]
                       for i in op["perf.update_many"])
        ) / len(updates)
    gc_spans = [spans[i] for op in folded for i in op.get("py.gc", ())]
    values["py.gc_ms"] = sum(span.duration for span in gc_spans) * 1e3
    values["py.gc_gen2"] = sum(
        1 for span in gc_spans if span.attrs["generation"] == 2
    )
    covered = [
        sum(own[i] for name, idx in op.items() if name not in NOT_LAYERS
            for i in idx) / (end - start)
        for op, (start, end) in zip(folded, ops)
    ]
    if covered:
        values["bench.layer_coverage"] = median(covered)
    values.update(extra)
    units = {name: unit for name, unit, _b in PER_LAYER}
    return {name: (float(values[name]), units[name]) for name, _u, _b in PER_LAYER}
