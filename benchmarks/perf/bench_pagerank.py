#!/usr/bin/env python
"""Micro-benchmark for the batched PageRank engine.

Measures, on the synthetic presets, the spam-mass hot path — solving
the (uniform, core) jump pair — three ways:

``sequential``
    Two ``pagerank()`` calls against a cold engine: the operator is
    built on the first call and the two vectors solve one at a time.
    This is the pre-engine behavior an experiment paid per mass
    estimate.
``batched_cold``
    One ``solve_many`` on a cold engine: operator build, restriction
    build, and a single block iteration for both vectors.
``batched_warm``
    The same ``solve_many`` with the operator already cached — the
    steady state inside a sweep.

Emits ``BENCH_pagerank.json``; the committed copy next to this script
is the regression baseline.  Typical usage::

    PYTHONPATH=src python benchmarks/perf/bench_pagerank.py \
        --out benchmarks/perf/BENCH_pagerank.json

    # CI gate: fail on >2x slowdown vs the committed baseline, on the
    # batched path losing its edge over the sequential one, or on
    # telemetry costing more than its <5% budget when enabled
    PYTHONPATH=src python benchmarks/perf/bench_pagerank.py \
        --check benchmarks/perf/BENCH_pagerank.json \
        --factor 2.0 --min-speedup 1.5 --max-overhead 1.05

Each preset also times the warm batched solve twice more — telemetry
disabled (the process default) and enabled with an in-memory sink —
and records the ratio under ``telemetry.overhead_ratio``; see
``docs/observability.md``.

Wall-clock numbers move with hardware; the regression gate is a
*ratio* against the baseline recorded on the same runner class, and
the speedup gate is machine-independent (both paths run on the same
box in the same process).  The two gated ratios, ``speedup_cold`` and
``telemetry.overhead_ratio``, are medians over :data:`RATIO_PAIRS`
back-to-back pairs in alternating order (``_harness.paired_ratio``),
not quotients of the best-of-``--repeats`` seconds reported beside
them: over 10 runs on a 2-vCPU x86 container those quotients spanned
1.50–1.91x and 0.80–1.09x and failed the 1.5x or 1.05x gate in 3,
while over 20 runs with nothing else running the paired medians
spanned 1.58–1.75x and 0.96–1.04x.

This is a plain script, not a pytest module — ``benchmarks/`` is
excluded from test collection (``testpaths = ["tests"]``), and the
bench must be runnable standalone in CI without plugins.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import best_of as _best_of  # noqa: E402
from _harness import emit_report, new_report, paired_ratio  # noqa: E402
from _harness import split_csv  # noqa: E402

#: Back-to-back timing pairs behind each gated ratio.
RATIO_PAIRS = 9


def bench_preset(name, config, *, repeats, mc_walks):
    from repro.core.pagerank import (
        pagerank,
        scaled_core_jump_vector,
        uniform_jump_vector,
    )
    from repro.perf import PagerankEngine, pagerank_montecarlo_parallel
    from repro.synth.scenario import build_world, default_good_core

    world = build_world(config)
    graph = world.graph
    core = default_good_core(world)
    n = graph.num_nodes
    uniform = uniform_jump_vector(n)
    core_jump = scaled_core_jump_vector(n, core, gamma=0.85)
    stacked = np.stack([uniform, core_jump], axis=1)

    # sequential baseline: cold engine, one solve at a time
    def run_sequential():
        engine = PagerankEngine()
        r1 = pagerank(
            graph, uniform, tol=1e-12, transition_t=engine.operator(graph)
        )
        r2 = pagerank(
            graph, core_jump, tol=1e-12, transition_t=engine.operator(graph)
        )
        return r1, r2

    seq_seconds, (seq_r1, seq_r2) = _best_of(repeats, run_sequential)

    # batched, cold cache (includes operator + restriction build)
    def run_cold():
        engine = PagerankEngine()
        return engine.solve_many(graph, stacked, tol=1e-12)

    cold_seconds, cold_batch = _best_of(repeats, run_cold)
    speedup_cold = paired_ratio(RATIO_PAIRS, run_sequential, run_cold)

    # batched, warm cache (steady state inside a sweep)
    warm_engine = PagerankEngine()
    warm_engine.solve_many(graph, stacked, tol=1e-12)  # prime

    def run_warm():
        return warm_engine.solve_many(graph, stacked, tol=1e-12)

    warm_seconds, warm_batch = _best_of(repeats, run_warm)

    # telemetry overhead: the same warm solve with telemetry disabled
    # (the default) vs enabled with an in-memory sink, timed in pairs
    # so both sides see the same moment of the host.  The enabled
    # path must stay within the documented <5% budget (CI gates it via
    # --max-overhead on the medium preset).
    from repro.obs import MemorySink, Telemetry, set_telemetry

    telemetry = Telemetry(sink=MemorySink())

    def run_traced():
        previous = set_telemetry(telemetry)
        try:
            return run_warm()
        finally:
            set_telemetry(previous)

    tele_off_seconds, _ = _best_of(repeats, run_warm)
    tele_on_seconds, _ = _best_of(repeats, run_traced)
    overhead = paired_ratio(RATIO_PAIRS, run_traced, run_warm)

    deviation = float(
        np.abs(cold_batch.scores[:, 0] - seq_r1.scores).sum()
        + np.abs(cold_batch.scores[:, 1] - seq_r2.scores).sum()
    )

    mc = None
    if mc_walks > 0:
        mc_seconds, mc_result = _best_of(
            1,
            lambda: pagerank_montecarlo_parallel(
                graph, num_walks=mc_walks, workers=1, seed=0
            ),
        )
        mc = {
            "num_walks": mc_walks,
            "seconds": round(mc_seconds, 4),
            "walks_per_sec": round(mc_walks / mc_seconds, 1),
            "total_steps": mc_result.total_steps,
        }

    return {
        "num_nodes": n,
        "num_edges": graph.num_edges,
        "dangling_frac": round(float(graph.dangling_mask().mean()), 4),
        "sequential": {
            "seconds": round(seq_seconds, 4),
            "iterations": [seq_r1.iterations, seq_r2.iterations],
        },
        "batched_cold": {
            "seconds": round(cold_seconds, 4),
            "iterations": [int(i) for i in cold_batch.iterations],
        },
        "batched_warm": {
            "seconds": round(warm_seconds, 4),
            "iterations": [int(i) for i in warm_batch.iterations],
        },
        "speedup_cold": round(speedup_cold, 3),
        "speedup_warm": round(seq_seconds / warm_seconds, 3),
        "solves_per_sec_warm": round(2.0 / warm_seconds, 2),
        "l1_deviation_vs_sequential": float(f"{deviation:.3e}"),
        "telemetry": {
            "disabled_seconds": round(tele_off_seconds, 4),
            "enabled_seconds": round(tele_on_seconds, 4),
            "overhead_ratio": round(overhead, 3),
        },
        "montecarlo": mc,
    }


def check_regression(report, baseline_path, factor, min_speedup,
                     speedup_presets=("medium",), max_overhead=None,
                     overhead_presets=("medium",)):
    """Return a list of failure messages (empty = pass)."""
    failures = []
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    for name, preset in report["presets"].items():
        base = baseline.get("presets", {}).get(name)
        if base is None:
            continue
        for path in ("batched_cold", "batched_warm"):
            current = preset[path]["seconds"]
            reference = base[path]["seconds"]
            if reference > 0 and current > factor * reference:
                failures.append(
                    f"{name}/{path}: {current:.4f}s is more than "
                    f"{factor:g}x the baseline {reference:.4f}s"
                )
    if min_speedup is not None:
        # the speedup floor targets presets large enough to amortize
        # setup (tiny graphs batch well but have little to save)
        for name in speedup_presets:
            preset = report["presets"].get(name)
            if preset is None:
                continue
            if preset["speedup_cold"] < min_speedup:
                failures.append(
                    f"{name}: batched cold speedup "
                    f"{preset['speedup_cold']:.2f}x is below the "
                    f"required {min_speedup:g}x"
                )
    if max_overhead is not None:
        # the telemetry budget is gated on presets whose solve is long
        # enough that the ratio measures instrumentation, not timer
        # noise (tiny graphs finish in microseconds)
        for name in overhead_presets:
            preset = report["presets"].get(name)
            if preset is None or "telemetry" not in preset:
                continue
            ratio = preset["telemetry"]["overhead_ratio"]
            if ratio > max_overhead:
                failures.append(
                    f"{name}: telemetry-enabled warm solve is "
                    f"{ratio:.3f}x the disabled one, above the "
                    f"allowed {max_overhead:g}x"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--presets",
        default="small,medium",
        help="comma-separated subset of small,medium,large",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of-N timing of the reported seconds (default 3); "
        "the gated ratios are medians over their own "
        f"{RATIO_PAIRS} alternating pairs",
    )
    parser.add_argument(
        "--mc-walks",
        type=int,
        default=20_000,
        help="Monte-Carlo walks to time per preset (0 = skip)",
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
        help="compare against a baseline BENCH_pagerank.json and exit "
        "non-zero on regression",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="max allowed slowdown vs the baseline (default 2.0)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail if batched cold speedup drops below this ratio",
    )
    parser.add_argument(
        "--speedup-presets",
        default="medium",
        help="comma-separated presets the --min-speedup floor applies "
        "to (default: medium — large enough to amortize setup)",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=None,
        help="fail if the telemetry-enabled warm solve exceeds this "
        "ratio of the disabled one (e.g. 1.05 for the <5%% budget)",
    )
    parser.add_argument(
        "--overhead-presets",
        default="medium",
        help="comma-separated presets the --max-overhead ceiling "
        "applies to (default: medium — long enough to beat timer "
        "noise)",
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
        "pagerank_engine",
        {
            "seed": args.seed,
            "repeats": args.repeats,
            "ratio_pairs": RATIO_PAIRS,
            "tol": 1e-12,
            "gamma": 0.85,
        },
    )
    for name in names:
        print(f"benchmarking preset {name} ...", file=sys.stderr, flush=True)
        report["presets"][name] = bench_preset(
            name,
            factories[name](args.seed),
            repeats=args.repeats,
            mc_walks=args.mc_walks,
        )

    emit_report(report, args.out)

    for name, preset in report["presets"].items():
        print(
            f"{name}: sequential {preset['sequential']['seconds']}s, "
            f"batched cold {preset['batched_cold']['seconds']}s "
            f"({preset['speedup_cold']}x), warm "
            f"{preset['batched_warm']['seconds']}s "
            f"({preset['speedup_warm']}x)",
            file=sys.stderr,
        )

    if args.check:
        failures = check_regression(
            report,
            args.check,
            args.factor,
            args.min_speedup,
            speedup_presets=tuple(split_csv(args.speedup_presets)),
            max_overhead=args.max_overhead,
            overhead_presets=tuple(split_csv(args.overhead_presets)),
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression check passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
