#!/usr/bin/env python
"""Benchmark: million-host out-of-core build + solve under a peak-RSS cap.

The paper's host graph has 73.3M hosts (Section 4.1); the sharded
backend (``docs/scale.md``) exists so the reproduction can climb toward
that scale without an edge list ever living in memory.  This bench pins
the claim on the ``WorldConfig.huge`` preset:

1. Stream-generate a huge world (default 1M hosts) straight into a
   block-partitioned shard store via the external bucket sort —
   ``build_huge_store`` never materializes the edge list.
2. Run the full mass-estimation pipeline (`estimate_spam_mass`, two
   batched PageRank solves) against the store: the engine gathers the
   operator from the shards, one at a time, and holds it in memory for
   the block-Jacobi solve, as it does for an in-memory graph.
3. Shallow-verify the store (manifest digests composing to the
   fingerprint).

Reported per phase: wall-clock seconds and the process peak RSS
(``getrusage.ru_maxrss`` — kilobytes on Linux) after the phase.  The CI
gate enforces three things against the committed baseline
``BENCH_scale.json``:

* the store fingerprint is **equal** — the streaming generator and the
  bucket-sort builder are deterministic by construction, so any drift
  is a correctness bug, not noise;
* peak RSS stays under ``--max-rss-mb`` (an absolute cap on the build
  and the solve together: the out-of-core build keeps the edge list out
  of memory, the solve holds the gathered operator, and a cap
  regression is exactly the failure mode the backend exists to
  prevent);
* wall-clock stays within ``--factor`` of the baseline.

Typical usage::

    PYTHONPATH=src python benchmarks/perf/bench_scale.py \
        --out benchmarks/perf/BENCH_scale.json

    # CI gate
    PYTHONPATH=src python benchmarks/perf/bench_scale.py \
        --check benchmarks/perf/BENCH_scale.json \
        --factor 4.0 --max-rss-mb 2048

This is a plain script, not a pytest module — ``benchmarks/`` is
excluded from test collection and the bench must run standalone in CI.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import emit_report, new_report  # noqa: E402


def peak_rss_mb():
    """Lifetime peak RSS of this process in MiB (Linux: ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bench_scale(*, hosts, shards, chunk_edges, seed, workdir):
    from repro.core.mass import estimate_spam_mass
    from repro.graph.sharded import verify_store
    from repro.perf import PagerankEngine
    from repro.synth.huge import build_huge_store, huge_good_core
    from repro.synth.scenario import WorldConfig

    if hosts >= 1_000_000:
        config = WorldConfig.huge(seed=seed, num_base_hosts=hosts)
    else:
        # sub-preset smoke runs (--hosts below the huge floor): same
        # shape knobs, just smaller
        config = WorldConfig(
            seed,
            num_base_hosts=hosts,
            mean_outdegree=6.0,
            directory_size=min(5_000, hosts // 10),
            gov_size=min(20_000, hosts // 10),
        )

    start = time.perf_counter()
    store = build_huge_store(
        config, workdir, num_shards=shards, chunk_edges=chunk_edges
    )
    build_seconds = time.perf_counter() - start
    rss_after_build = peak_rss_mb()

    engine = PagerankEngine()
    start = time.perf_counter()
    estimates = estimate_spam_mass(
        store, huge_good_core(config), engine=engine
    )
    solve_seconds = time.perf_counter() - start
    rss_after_solve = peak_rss_mb()

    start = time.perf_counter()
    verdict = verify_store(workdir)
    verify_seconds = time.perf_counter() - start
    if not verdict["ok"]:  # pragma: no cover - would be a builder bug
        raise SystemExit(
            "store verification failed: " + "; ".join(verdict["problems"])
        )

    return {
        "hosts": store.num_nodes,
        "edges": store.num_edges,
        "shards": store.num_shards,
        "fingerprint": store.structural_fingerprint(),
        "build_seconds": round(build_seconds, 4),
        "solve_seconds": round(solve_seconds, 4),
        "verify_seconds": round(verify_seconds, 4),
        "peak_rss_mb_after_build": round(rss_after_build, 1),
        "peak_rss_mb": round(rss_after_solve, 1),
        # informational float stats (NOT gated: they are deterministic
        # for a fixed numpy, but the gate must survive library bumps)
        "total_absolute_mass": float(estimates.absolute.sum()),
        "max_relative_mass": float(estimates.relative.max()),
        "shard_cache": store.cache_info(),
    }


def check_regression(report, baseline_path, factor, max_rss_mb):
    """Return a list of failure messages (empty = pass)."""
    failures = []
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    for name, preset in report["presets"].items():
        if max_rss_mb is not None and preset["peak_rss_mb"] > max_rss_mb:
            failures.append(
                f"{name}: peak RSS {preset['peak_rss_mb']:.0f} MiB "
                f"exceeds the {max_rss_mb:g} MiB cap"
            )
        base = baseline.get("presets", {}).get(name)
        if base is None:
            continue
        if (
            base["hosts"] == preset["hosts"]
            and base["fingerprint"] != preset["fingerprint"]
        ):
            failures.append(
                f"{name}: store fingerprint {preset['fingerprint']} "
                f"drifted from the baseline {base['fingerprint']} — the "
                "streaming generator or the bucket-sort builder is no "
                "longer deterministic"
            )
        for phase in ("build_seconds", "solve_seconds"):
            current, reference = preset[phase], base.get(phase, 0)
            if reference > 0 and current > factor * reference:
                failures.append(
                    f"{name}: {phase} {current:.2f}s is more than "
                    f"{factor:g}x the baseline {reference:.2f}s"
                )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--hosts",
        type=int,
        default=1_000_000,
        help="world size (default 1M, the huge-preset floor)",
    )
    parser.add_argument(
        "--shards", type=int, default=8, help="shard count (default 8)"
    )
    parser.add_argument(
        "--chunk-edges",
        type=int,
        default=1 << 20,
        help="edges per generated chunk (default 1Mi)",
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument(
        "--workdir",
        default=None,
        help="build the store here (default: a temp dir, removed after)",
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
        help="compare against a baseline BENCH_scale.json and exit "
        "non-zero on regression or fingerprint drift",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=4.0,
        help="max allowed slowdown vs the baseline (default 4.0)",
    )
    parser.add_argument(
        "--max-rss-mb",
        type=float,
        default=None,
        help="absolute peak-RSS cap in MiB of the out-of-core build "
        "plus the in-memory solve",
    )
    args = parser.parse_args(argv)

    name = f"huge-{args.hosts // 1_000_000}m" if (
        args.hosts % 1_000_000 == 0
    ) else f"huge-{args.hosts}"
    report = new_report(
        "sharded_scale",
        {
            "hosts": args.hosts,
            "shards": args.shards,
            "chunk_edges": args.chunk_edges,
            "seed": args.seed,
        },
    )
    print(
        f"building + solving {args.hosts:,} hosts in {args.shards} "
        "shards ...",
        file=sys.stderr,
        flush=True,
    )
    if args.workdir:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
        report["presets"][name] = bench_scale(
            hosts=args.hosts,
            shards=args.shards,
            chunk_edges=args.chunk_edges,
            seed=args.seed,
            workdir=Path(args.workdir),
        )
    else:
        with tempfile.TemporaryDirectory(prefix="bench-scale-") as tmp:
            report["presets"][name] = bench_scale(
                hosts=args.hosts,
                shards=args.shards,
                chunk_edges=args.chunk_edges,
                seed=args.seed,
                workdir=Path(tmp) / "store",
            )

    emit_report(report, args.out)

    for pname, preset in report["presets"].items():
        print(
            f"{pname}: {preset['edges']:,} edges in "
            f"{preset['shards']} shards — build "
            f"{preset['build_seconds']}s, solve "
            f"{preset['solve_seconds']}s, verify "
            f"{preset['verify_seconds']}s, peak RSS "
            f"{preset['peak_rss_mb']:.0f} MiB",
            file=sys.stderr,
        )

    if args.check:
        failures = check_regression(
            report, args.check, args.factor, args.max_rss_mb
        )
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression check passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
