"""Shared plumbing for the perf benchmark scripts.

Both ``bench_pagerank.py`` and ``bench_incremental.py`` need the same
scaffolding — best-of-N timing, a version-stamped report skeleton, JSON
emission to a file or stdout — and CI diffs their committed baselines,
so the report shape must stay consistent across the two.  Keeping the
helpers here keeps the scripts about *what* they measure.

This package directory is excluded from pytest collection
(``testpaths = ["tests"]``); the scripts import it relatively via
``sys.path`` manipulation so they stay runnable as plain
``python benchmarks/perf/bench_*.py`` without installing anything.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

__all__ = [
    "best_of",
    "median",
    "paired_ratio",
    "emit_report",
    "new_report",
    "split_csv",
]


def best_of(repeats, fn):
    """Run ``fn`` ``repeats`` times; return (best seconds, last result).

    Best-of-N is the standard defense against interference from other
    processes: the minimum is the run closest to the true cost.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def paired_ratio(pairs, numerator, denominator):
    """Median over ``pairs`` back-to-back runs of ``numerator`` and
    ``denominator`` of the ratio of their times.

    The two runs of a pair go first in turn.  Two best-of-N timings
    taken one after the other see different moments of a shared host,
    so their ratio moves with whatever else ran then; the two halves
    of a pair see nearly the same moment, and the median drops the
    pairs a burst of load split.
    """
    def timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    ratios = []
    for i in range(pairs):
        if i % 2 == 0:
            top = timed(numerator)
            bottom = timed(denominator)
        else:
            bottom = timed(denominator)
            top = timed(numerator)
        ratios.append(top / bottom)
    return median(ratios)


def median(values):
    """Median of a sequence of floats (no numpy dtype leakage)."""
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


def new_report(benchmark, parameters):
    """The common report skeleton: schema, tool versions, parameters.

    The ``versions`` block exists so a regression investigation can
    tell a code regression from a numpy/scipy upgrade on the runner.
    """
    return {
        "schema": 1,
        "benchmark": benchmark,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "parameters": parameters,
        "presets": {},
    }


def emit_report(report, out):
    """Write ``report`` as JSON to ``out`` (or stdout when ``None``)."""
    payload = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload, encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    else:
        print(payload, end="")


def split_csv(text):
    """``"a, b,c"`` → ``["a", "b", "c"]`` (argparse list flags)."""
    return [item.strip() for item in text.split(",") if item.strip()]
