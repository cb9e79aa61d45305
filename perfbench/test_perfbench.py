"""Self-tests of the benchmark: run with ``python -m pytest perfbench``.

Two things are asserted.  Every metric the benchmark promises is
printed with its unit (small-host mode runs all three workloads in
seconds), and each correctness check fires on a deliberately corrupted
answer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = ["--hosts", "20000", "--seconds", "1", "--seed", "3"]

#: the metrics each workload prints by name, with their units
PRINTED = {
    "estimate": {"setup_s": "s", "cold_s": "s", "sharded_cold_s": "s",
                 "peak_rss_mb": "MiB"},
    "serve": {"setup_s": "s", "score_p50_ms": "ms", "top_p50_ms": "ms",
              "health_p50_ms": "ms", "peak_rss_mb": "MiB"},
    "stream": {"setup_s": "s", "window_p50_s": "s",
               "events_per_s": "events/s", "peak_rss_mb": "MiB"},
}


def bench_command(*extra):
    command = list(BENCH["command"])
    command[0] = sys.executable
    return command + list(extra)


def run_small(workload: str, trace: int):
    proc = subprocess.run(
        bench_command("--workload", workload, "--trace", str(trace), *SMALL),
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(PRINTED))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = run_small(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {}
    for line in lines[1:]:
        fields = line.split()
        if fields[0] == workload:
            printed[fields[1]] = fields[3]
            assert fields[4].startswith("n=")
    for name, unit in PRINTED[workload].items():
        assert printed.get(name) == unit, name


@pytest.mark.parametrize("workload", sorted(PRINTED))
def test_traced_run_prints_every_per_layer_metric(workload):
    _lines, result = run_small(workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["bench.trace_overhead"]["value"] > 0
    assert result["metrics"]["bench.layer_coverage"]["value"] >= 0.9


def test_per_layer_list_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == PER_LAYER


def test_missing_program_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        bench_command("--workload", "estimate", "--trace", "0", *SMALL),
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(
        checks, "check_bitwise", lambda *_a: ["corrupted on purpose"]
    )
    args = bench_command("--workload", "estimate", "--trace", "0", *SMALL)
    assert run.main(args[2:]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("FAILED: corrupted") for line in out)


# -- each check fires on a corrupted answer ------------------------------

@pytest.fixture(scope="module")
def solved():
    from repro.core import estimate_spam_mass
    from repro.graph import WebGraph
    from repro.perf import PagerankEngine

    from common import World

    world = World(5, 5000)
    graph = WebGraph.from_edges(world.num_nodes, world.edges)
    estimates = estimate_spam_mass(graph, world.core, engine=PagerankEngine())
    return graph, world.core, estimates


def corrupt(estimates, field, node, factor):
    from repro.core.mass import MassEstimates

    vectors = {f: getattr(estimates, f).copy()
               for f in ("pagerank", "core_pagerank")}
    vectors[field][node] *= factor
    return MassEstimates(vectors["pagerank"], vectors["core_pagerank"],
                         estimates.damping, estimates.gamma)


def test_residual_check_fires(solved):
    graph, core, estimates = solved
    assert checks.check_estimate(graph, core, estimates) == []
    bad = corrupt(estimates, "core_pagerank", 3, 1.001)
    assert checks.check_estimate(graph, core, bad)


def test_bitwise_check_fires(solved):
    _graph, _core, estimates = solved
    assert checks.check_bitwise(estimates, estimates, "same") == []
    bad = corrupt(estimates, "pagerank", 0, 1 + 2 ** -52)
    assert checks.check_bitwise(estimates, bad, "flipped")


def test_score_check_fires(solved):
    graph, _core, estimates = solved
    expected = checks.score_reply(estimates, graph.num_nodes, 7)
    good = {"ok": True, **expected, "epoch": 0}
    assert checks.check_score(good, expected) == []
    assert checks.check_score(
        {**good, "relative_mass": expected["relative_mass"] + 1e-12},
        expected)
    assert checks.check_score({"ok": False, "error": "unknown-host"},
                              expected)


def test_top_check_fires(solved):
    graph, _core, estimates = solved
    expected = checks.top_reply(estimates, graph.num_nodes, 5, 0.0, 0.0)
    assert len(expected["candidates"]) == 5
    good = {"ok": True, **expected}
    assert checks.check_top(good, expected) == []
    swapped = list(reversed(expected["candidates"]))
    assert checks.check_top({**good, "candidates": swapped}, expected)
    assert checks.check_top(
        {**good, "total_eligible": expected["total_eligible"] - 1}, expected)


def test_health_check_fires():
    good = {"ok": True, "ready": True, "mode": "full", "staleness": 0,
            "epoch": 0, "fingerprint": "g:x"}
    assert checks.check_health(good, "g:x") == []
    assert checks.check_health(good, "g:y")
    assert checks.check_health({**good, "mode": "degraded"}, "g:x")


def test_stream_checks_fire(solved):
    from repro.graph import WebGraph

    graph, _core, estimates = solved
    n = graph.num_nodes
    base = checks.edge_keys(graph.indptr, graph.indices)
    events = [("-", int(base[0] // n), int(base[0] % n)), ("+", 0, n - 1)]
    keys = checks.apply_events(base, n, events)
    after = WebGraph.from_edges(n, np.stack([keys // n, keys % n], axis=1))
    fp = checks.expected_fingerprint(n, keys)
    assert fp == after.structural_fingerprint()
    stats = {"events_consumed": 2, "dlq_entries": 0, "windows_quarantined": 0}
    assert checks.check_stream(stats, fp, fp, estimates, estimates, 2) == []
    assert checks.check_stream({**stats, "dlq_entries": 1}, fp, fp,
                               estimates, estimates, 2)
    assert checks.check_stream({**stats, "windows_quarantined": 1}, fp, fp,
                               estimates, estimates, 2)
    assert checks.check_stream(stats, graph.structural_fingerprint(), fp,
                               estimates, estimates, 2)
    assert checks.check_stream(stats, fp, fp, estimates, estimates, 3)
    off = corrupt(estimates, "pagerank", 1, 1 + 1e-6)
    assert checks.check_stream(stats, fp, fp, off, estimates, 2)


def test_self_time_subtracts_children():
    tracer = Tracer()
    import types

    box = types.SimpleNamespace()

    def inner():
        return 1

    def outer():
        return box.inner() + 1

    box.inner, box.outer = inner, outer
    tracer.add("inner", box, "inner")
    tracer.add("outer", box, "outer")
    tracer.install()
    assert box.outer() == 2
    tracer.uninstall()
    assert box.outer is outer and box.inner is inner
    names = [span.name for span in tracer.spans]
    assert names == ["outer", "inner"]
    own = self_times(tracer.spans)
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == 0
    assert own[0] == pytest.approx(outer_span.duration - inner_span.duration)
