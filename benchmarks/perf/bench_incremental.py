#!/usr/bin/env python
"""Benchmark: incremental push updates vs a cold batched re-solve.

The deployment story of the incremental engine (``docs/perf.md``) is a
mass-estimation service tracking an evolving host graph: between two
crawls a small fraction of edges changes, and the service re-ranks by
warm-starting from yesterday's converged ``(p, p')`` pair instead of
re-solving from scratch.  This bench reproduces that loop on the
synthetic presets:

1. Solve the base graph cold (the state a service holds in memory).
2. For each of ``--events`` independent churn events, materialize an
   edge delta sized to ``--churn`` of the edge count, in two flavors:

   ``farm``
       Spam-farm appearance: previously link-less hosts sprout ~20
       outlinks each, pointing at other link-less leaves — doorway
       pages linking up content leaves, the canonical link-spam event
       the paper's detector exists to catch.  The perturbation stays
       local (leaf targets absorb mass without scattering), which is
       exactly the regime push updates are built for.
   ``diffuse``
       The same sources pointing at uniformly random targets.  The
       residual reaches well-connected hosts and diffuses graph-wide,
       so the push kernel escapes to the cold block kernel (see
       ``docs/perf.md``) and only the warm-start advantage survives.

3. Time, per event, a cold ``solve_many`` on the mutated graph (fresh
   engine: operator build + block solve, what a re-run pays) against
   ``update_many`` on an engine holding the hot operator (operator
   splice + residual push, what the service pays).  ``farm`` events are
   independent perturbations of the base graph; ``diffuse`` events
   *chain* — event ``i`` applies to the graph events ``1..i-1``
   produced, the realistic between-crawl stream — and are additionally
   measured **coalesced**: all ``--events`` deltas composed into one
   net splice and one warm solve (``update_many`` on the application
   list), amortizing the solve across the window.  Per-event rows
   record the push-solver work profile (seed frontier, live frontier,
   escapes, escape sweeps).
4. Verify per event that the incremental scores match the cold ones to
   ``10 * tol`` per node, and report the median speedup per flavor.

Two tolerance scenarios run back-to-back: ``default`` (``1e-12``, the
reproduction default — the incremental solver runs at the same ``tol``
as the cold solve) is the one the CI speedup gates apply to; ``relaxed``
(``1e-8``, plenty for a threshold detector at ``tau = 0.98``) is
reported for reference.  The ``farm`` gate (``--min-speedup``) applies
to the per-event median: a leaf-local push converges in a couple of
sweeps.  The ``diffuse`` per-event speedup is honest but small
(~1.1-1.3x, warm start alone — the residual reaches well-connected
hosts and the push kernel escapes to the cold block kernel), so its
gate (``--min-diffuse-speedup``) applies to the *coalesced* per-event
cost: one composed solve across the window divided by the events it
covers.

Typical usage::

    PYTHONPATH=src python benchmarks/perf/bench_incremental.py \
        --out benchmarks/perf/BENCH_incremental.json

    # CI gate: >=5x median farm-flavor speedup at 1% churn on the
    # medium preset, >=2x amortized coalesced diffuse speedup, and no
    # >4x slowdown vs the committed baseline
    PYTHONPATH=src python benchmarks/perf/bench_incremental.py \
        --check benchmarks/perf/BENCH_incremental.json \
        --factor 4.0 --min-speedup 5.0 --min-diffuse-speedup 2.0

This is a plain script, not a pytest module — ``benchmarks/`` is
excluded from test collection and the bench must run standalone in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _harness import emit_report, median, new_report, split_csv  # noqa: E402

#: Outlinks each appearing farm host sprouts; ~the size of the alliance
#: rings in the synthetic worlds.
LINKS_PER_HOST = 20

SCENARIOS = (
    {"name": "default", "tol": 1e-12, "gated": True},
    {"name": "relaxed", "tol": 1e-8, "gated": False},
)

#: The per-event CI speedup floor (``--min-speedup``) applies to this
#: churn flavor; ``diffuse`` is gated on its coalesced amortized
#: speedup instead (``--min-diffuse-speedup``).
GATED_FLAVOR = "farm"

#: Push-solver work profile copied into every per-event row.
STAT_FIELDS = (
    "sweeps",
    "pushes",
    "max_frontier",
    "seed_frontier",
    "live_seed_frontier",
    "escapes",
    "escape_sweeps",
)


def churn_delta(graph, *, churn, rng, flavor):
    """An insertion-only delta: link-less hosts sprout outlinks.

    Sized to ``churn * num_edges`` new edges, spread over hosts that
    currently have no outlinks (so every insertion is guaranteed
    fresh).  The ``farm`` flavor points them at other link-less leaves
    — doorway pages linking up content leaves, a new spam farm
    lighting up between crawls; ``diffuse`` points them at uniformly
    random hosts, the worst case for push locality.
    """
    from repro.graph import GraphDelta

    n = graph.num_nodes
    out_degree = np.diff(graph.indptr)
    silent = np.flatnonzero(out_degree == 0)
    budget = max(1, int(round(churn * graph.num_edges)))
    num_farms = max(1, min(len(silent), budget // LINKS_PER_HOST))
    sources = rng.choice(silent, size=num_farms, replace=False)
    insertions = []
    for src in sources:
        if flavor == "farm":
            pool = silent[silent != src]
            targets = rng.choice(pool, size=LINKS_PER_HOST, replace=False)
        else:
            targets = rng.choice(n - 1, size=LINKS_PER_HOST, replace=False)
            # shift past src so no self-link is drawn
            targets = np.where(targets >= src, targets + 1, targets)
        insertions.extend((int(src), int(t)) for t in targets)
    return GraphDelta(insertions=insertions)


def bench_preset(config, *, repeats, events, churn, seed):
    from repro.core.pagerank import (
        scaled_core_jump_vector,
        uniform_jump_vector,
    )
    from repro.perf import PagerankEngine
    from repro.synth.scenario import build_world, default_good_core

    world = build_world(config)
    graph = world.graph
    core = default_good_core(world)
    n = graph.num_nodes
    stacked = np.stack(
        [
            uniform_jump_vector(n),
            scaled_core_jump_vector(n, core, gamma=0.85),
        ],
        axis=1,
    )

    rng = np.random.default_rng(seed)
    # farm: independent perturbations of the base graph (drawn first so
    # the rng stream — and thus the gated farm numbers — stay stable)
    farm_apps = [
        churn_delta(graph, churn=churn, rng=rng, flavor="farm").apply(
            graph
        )
        for _ in range(events)
    ]
    # diffuse: a chained stream — each delta applies to the graph the
    # previous events produced.  Sources stay disjoint across events (a
    # host that sprouted links is no longer silent), so the chain
    # composes to one conflict-free net splice.
    diffuse_apps = []
    tip = graph
    for _ in range(events):
        delta = churn_delta(tip, churn=churn, rng=rng, flavor="diffuse")
        application = delta.apply(tip)
        diffuse_apps.append(application)
        tip = application.after

    preset = {
        "num_nodes": n,
        "num_edges": graph.num_edges,
        "dangling_frac": round(float(graph.dangling_mask().mean()), 4),
        "churn": {
            "fraction": churn,
            "events": events,
            "insertions_per_event": farm_apps[0].delta.num_insertions,
            "links_per_host": LINKS_PER_HOST,
        },
        "scenarios": {},
    }

    def _stat_row(stats):
        return {field: getattr(stats, field) for field in STAT_FIELDS}

    def _time_cold(application, tol):
        best = float("inf")
        result = None
        for _ in range(repeats):
            engine = PagerankEngine()  # cold: pays operator build
            start = time.perf_counter()
            result = engine.solve_many(application.after, stacked, tol=tol)
            best = min(best, time.perf_counter() - start)
        return best, result

    def _time_warm(application, previous, tol):
        best = float("inf")
        result = None
        for _ in range(repeats):
            engine = PagerankEngine()
            # untimed: the hot operator a long-running service holds
            engine.cache.bundle_for(application.before)
            start = time.perf_counter()
            result = engine.update_many(
                application, previous, stacked, tol=tol
            )
            best = min(best, time.perf_counter() - start)
        return best, result

    for scenario in SCENARIOS:
        tol = scenario["tol"]
        # the state a long-running service holds: the base solution and
        # the base operator (solved once, outside any timed region)
        base_engine = PagerankEngine()
        base = base_engine.solve_many(graph, stacked, tol=tol)

        flavor_blocks = {}
        for flavor, apps in (
            ("farm", farm_apps), ("diffuse", diffuse_apps),
        ):
            event_rows = []
            previous = base
            last_cold = None
            for application in apps:
                cold_best, cold_result = _time_cold(application, tol)
                inc_best, inc_result = _time_warm(
                    application, previous, tol
                )
                deviation = float(
                    np.abs(inc_result.scores - cold_result.scores).max()
                )
                row = {
                    "cold_seconds": round(cold_best, 4),
                    "incremental_seconds": round(inc_best, 4),
                    "speedup": round(cold_best / inc_best, 2),
                    "max_abs_deviation": float(f"{deviation:.3e}"),
                }
                row.update(_stat_row(inc_result.stats))
                event_rows.append(row)
                last_cold = cold_result
                if flavor == "diffuse":
                    # chained: the next event warm-starts from this one
                    previous = inc_result

            speedups = [row["speedup"] for row in event_rows]
            block = {
                "gated": scenario["gated"] and flavor == GATED_FLAVOR,
                "cold_seconds_median": round(
                    median(row["cold_seconds"] for row in event_rows), 4
                ),
                "incremental_seconds_median": round(
                    median(
                        row["incremental_seconds"] for row in event_rows
                    ),
                    4,
                ),
                "speedup_median": round(median(speedups), 2),
                "speedup_min": round(min(speedups), 2),
                "max_abs_deviation": max(
                    row["max_abs_deviation"] for row in event_rows
                ),
                "events": event_rows,
            }

            if flavor == "diffuse":
                # coalesced window: every chained delta composed into
                # one net splice, one warm solve from the base solution
                coal_best = float("inf")
                coal_result = None
                for _ in range(repeats):
                    engine = PagerankEngine()
                    engine.cache.bundle_for(graph)
                    start = time.perf_counter()
                    coal_result = engine.update_many(
                        list(apps), base, stacked, tol=tol
                    )
                    coal_best = min(
                        coal_best, time.perf_counter() - start
                    )
                coal_dev = float(
                    np.abs(coal_result.scores - last_cold.scores).max()
                )
                per_event = coal_best / len(apps)
                coalesced = {
                    "gated": scenario["gated"],
                    "events": len(apps),
                    "seconds": round(coal_best, 4),
                    "per_event_seconds": round(per_event, 4),
                    "speedup_per_event": round(
                        block["cold_seconds_median"] / per_event, 2
                    ),
                    "max_abs_deviation": float(f"{coal_dev:.3e}"),
                }
                coalesced.update(_stat_row(coal_result.stats))
                block["coalesced"] = coalesced

            flavor_blocks[flavor] = block

        preset["scenarios"][scenario["name"]] = {
            "tol": tol,
            "deviation_bound": 10.0 * tol,
            "flavors": flavor_blocks,
        }
    return preset


def verify_deviations(report):
    """Correctness failures (incremental drifted past ``10 * tol``)."""
    failures = []
    for name, preset in report["presets"].items():
        for sname, scenario in preset["scenarios"].items():
            for fname, flavor in scenario["flavors"].items():
                if flavor["max_abs_deviation"] > scenario[
                    "deviation_bound"
                ]:
                    failures.append(
                        f"{name}/{sname}/{fname}: incremental scores "
                        f"deviate {flavor['max_abs_deviation']:.3e} from "
                        f"the cold solve, above the 10*tol bound "
                        f"{scenario['deviation_bound']:.1e}"
                    )
                coalesced = flavor.get("coalesced")
                if coalesced is not None and (
                    coalesced["max_abs_deviation"]
                    > scenario["deviation_bound"]
                ):
                    failures.append(
                        f"{name}/{sname}/{fname}/coalesced: composed "
                        f"scores deviate "
                        f"{coalesced['max_abs_deviation']:.3e} from the "
                        f"cold solve, above the 10*tol bound "
                        f"{scenario['deviation_bound']:.1e}"
                    )
    return failures


def check_regression(
    report, baseline_path, factor, min_speedup, min_diffuse_speedup=None
):
    """Return a list of failure messages (empty = pass).

    ``min_speedup`` and the slowdown factor apply to *gated* flavor
    blocks only (``farm`` at the reproduction tolerance) — a leaf-local
    push beats the cold solve per event.  ``min_diffuse_speedup``
    applies to the gated ``coalesced`` block of the ``diffuse`` flavor:
    its per-event speedup is warm-start-only (~1.1-1.3x, no meaningful
    floor), but one composed solve amortized across the window must
    beat the per-event cold solve by the floor.  The ``relaxed``
    scenario's cold solve is itself cheap, so it carries no gate —
    machine noise would dominate.
    """
    failures = []
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    for name, preset in report["presets"].items():
        base_preset = baseline.get("presets", {}).get(name)
        for sname, scenario in preset["scenarios"].items():
            for fname, flavor in scenario["flavors"].items():
                coalesced = flavor.get("coalesced")
                if (
                    coalesced is not None
                    and coalesced.get("gated")
                    and min_diffuse_speedup is not None
                    and coalesced["speedup_per_event"]
                    < min_diffuse_speedup
                ):
                    failures.append(
                        f"{name}/{sname}/{fname}/coalesced: amortized "
                        f"speedup {coalesced['speedup_per_event']:.2f}x "
                        f"per event is below the required "
                        f"{min_diffuse_speedup:g}x"
                    )
                if not flavor["gated"]:
                    continue
                if min_speedup is not None and (
                    flavor["speedup_median"] < min_speedup
                ):
                    failures.append(
                        f"{name}/{sname}/{fname}: median incremental "
                        f"speedup {flavor['speedup_median']:.2f}x is "
                        f"below the required {min_speedup:g}x"
                    )
                base_flavor = None
                if base_preset:
                    base_flavor = (
                        base_preset.get("scenarios", {})
                        .get(sname, {})
                        .get("flavors", {})
                        .get(fname)
                    )
                if base_flavor is None:
                    continue
                current = flavor["incremental_seconds_median"]
                reference = base_flavor["incremental_seconds_median"]
                if reference > 0 and current > factor * reference:
                    failures.append(
                        f"{name}/{sname}/{fname}: incremental median "
                        f"{current:.4f}s is more than {factor:g}x the "
                        f"baseline {reference:.4f}s"
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
        "--repeats", type=int, default=3, help="best-of-N timing (default 3)"
    )
    parser.add_argument(
        "--events",
        type=int,
        default=5,
        help="independent churn events per preset (median over them)",
    )
    parser.add_argument(
        "--churn",
        type=float,
        default=0.01,
        help="fraction of the edge count inserted per event (default 1%%)",
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
        help="compare against a baseline BENCH_incremental.json and "
        "exit non-zero on regression",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=4.0,
        help="max allowed slowdown vs the baseline (default 4.0)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail if the gated median speedup drops below this ratio",
    )
    parser.add_argument(
        "--min-diffuse-speedup",
        type=float,
        default=None,
        help="fail if the coalesced diffuse window's amortized "
        "per-event speedup drops below this ratio",
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
        "incremental_pagerank",
        {
            "seed": args.seed,
            "repeats": args.repeats,
            "events": args.events,
            "churn": args.churn,
            "gamma": 0.85,
        },
    )
    for name in names:
        print(f"benchmarking preset {name} ...", file=sys.stderr, flush=True)
        report["presets"][name] = bench_preset(
            factories[name](args.seed),
            repeats=args.repeats,
            events=args.events,
            churn=args.churn,
            seed=args.seed,
        )

    emit_report(report, args.out)

    for name, preset in report["presets"].items():
        for sname, scenario in preset["scenarios"].items():
            for fname, flavor in scenario["flavors"].items():
                print(
                    f"{name}/{sname}/{fname} (tol={scenario['tol']:g}): "
                    f"cold {flavor['cold_seconds_median']}s, incremental "
                    f"{flavor['incremental_seconds_median']}s "
                    f"({flavor['speedup_median']}x median, "
                    f"{flavor['speedup_min']}x min), max deviation "
                    f"{flavor['max_abs_deviation']:.2e}",
                    file=sys.stderr,
                )
                coalesced = flavor.get("coalesced")
                if coalesced is not None:
                    print(
                        f"{name}/{sname}/{fname}/coalesced: "
                        f"{coalesced['events']} events in "
                        f"{coalesced['seconds']}s "
                        f"({coalesced['per_event_seconds']}s/event, "
                        f"{coalesced['speedup_per_event']}x amortized), "
                        f"max deviation "
                        f"{coalesced['max_abs_deviation']:.2e}",
                        file=sys.stderr,
                    )

    failures = verify_deviations(report)
    if args.check:
        failures.extend(
            check_regression(
                report,
                args.check,
                args.factor,
                args.min_speedup,
                args.min_diffuse_speedup,
            )
        )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    if args.check:
        print("regression check passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
