#!/usr/bin/env python3
"""End-to-end benchmark of repro-spam on one seeded 1M-host world.

Three workloads, each driven from this one process (at most one
connection, no engine worker pools) with the seed as its only input:

``estimate``  cold ``estimate_spam_mass`` ops alternating between the
              in-memory graph and an 8-shard store (``perf``, ``core``,
              ``graph``; nothing in ``serve`` or ``runtime``);
``serve``     one connection to ``repro-spam serve`` sending a seeded
              18:1:1 mix of ``score``, ``top`` and ``health`` (the read
              path only);
``stream``    a seeded, attack-free churn stream replayed through
              ``StreamIngestor`` into a WAL-backed ``ScoringDaemon``
              (the write path).

Every run checks every answer (see ``checks.py``); a failed check
counts its op as failed and the command exits 1.  Timings are
drift-calibrated against a probe run between ops (``common.Probe``,
``common.calibrate``); the raw value is printed beside each.

Usage (from the repository root)::

    python3 perfbench/run.py --workload estimate --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload stream --seed 7 --seconds 2 --hosts 20000

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The lines before it print each workload's own metrics
by name, with units and sample counts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("estimate", "serve", "stream")
#: share of a traced op's time the named layers' self times must cover
MIN_COVERAGE = 0.9


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured interval of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--hosts", type=int, default=1_000_000,
                        help="world size (below 1M: the small-host "
                        "self-test mode)")
    parser.add_argument("--probe-ref-ms", type=float, required=True,
                        help="probe time that calibrated timings are "
                        "expressed against")
    parser.add_argument("--window", type=int, required=True,
                        help="stream window, event-time ticks")
    parser.add_argument("--max-lateness", type=int, required=True,
                        help="stream lateness allowance, ticks")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.hosts < 1000:
        parser.error("--seconds must be positive and --hosts >= 1000")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from common import Report

    module = __import__(f"wl_{args.workload}")
    report = Report()
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        module.run(args, workdir, report)
    except Exception:  # noqa: BLE001 - the run is lost; say why, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        covered = report.metrics["bench.layer_coverage"][0]
        if covered < MIN_COVERAGE:
            report.fail(f"the named layers cover only {covered:.1%} of "
                        f"the traced op time (< {MIN_COVERAGE:.0%})")

    print(f"# {args.workload}: seed {args.seed}, {args.hosts:,} hosts, "
          f"{args.seconds:g} s, trace {args.trace}; ops attempted "
          f"{report.attempted}, failed {report.failed}")
    for name, value, unit, samples, note in report.lines:
        print(f"{args.workload:<9} {name:<24} {value:>14.6g} {unit:<8} "
              f"n={samples:<6} {note}")
    if args.trace:
        for name, (value, unit) in report.metrics.items():
            print(f"{args.workload:<9} {name:<24} {value:>14.6g} {unit}")
    for problem in report.failures[:20]:
        print(f"FAILED: {problem}")
    correct = not report.failures
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
