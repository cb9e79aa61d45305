"""Behavioural telemetry invariants of the instrumented pipeline.

These tests run real pipeline stages under the ``telemetry`` fixture
(in-process :class:`~repro.obs.MemorySink` capture) and assert the
*shape* of what was emitted: every stage spanned exactly once, correct
span nesting, counters agreeing with the components' own reports, and
retry events appearing under injected write faults.
"""

import os

import numpy as np

from repro.core.detector import MassDetector
from repro.core.mass import estimate_spam_mass
from repro.perf import PagerankEngine, pagerank_montecarlo_parallel
from repro.runtime import chaos, load_solution, save_solution
from repro.synth import build_world, default_good_core

STAGES = (
    "graph-gen",
    "operator-build",
    "solve:batch",
    "mass-estimate",
    "detect",
)


def test_every_stage_spanned_exactly_once(telemetry, tiny_config):
    """One full pipeline pass emits each stage span exactly once.

    A *fresh* engine is required: the shared engine may already hold the
    graph's operator, which would (correctly) suppress the
    ``operator-build`` span behind a cache hit.
    """
    world = build_world(tiny_config)
    core = default_good_core(world)
    engine = PagerankEngine()
    estimates = estimate_spam_mass(world.graph, core, engine=engine)
    MassDetector(0.98, 10.0).detect(estimates)

    sink = telemetry.sink
    for stage in STAGES:
        assert sink.span_count(stage) == 1, f"{stage} spanned != once"
    # every span completed ok
    for end in sink.of_kind("span_end"):
        assert end.attrs["status"] == "ok"


def test_span_nesting_reflects_the_pipeline_structure(telemetry, tiny_config):
    world = build_world(tiny_config)
    core = default_good_core(world)
    estimates = estimate_spam_mass(world.graph, core, engine=PagerankEngine())
    MassDetector(0.98, 10.0).detect(estimates)

    sink = telemetry.sink
    for child, parent in (
        ("operator-build", "mass-estimate"),
        ("solve:batch", "mass-estimate"),
    ):
        start = sink.named(child, "span_start")[0]
        assert start.attrs["parent"] == parent
    assert sink.named("graph-gen", "span_start")[0].attrs["parent"] is None


def test_batch_solve_emits_per_column_events(telemetry, tiny_world):
    engine = PagerankEngine()
    engine.solve_many(tiny_world.graph, [None, None], labels=("p", "p_prime"))
    columns = telemetry.sink.named("solver.column")
    assert [e.attrs["label"] for e in columns] == ["p", "p_prime"]
    assert all(e.attrs["converged"] for e in columns)
    assert telemetry.metrics.value("engine.batched_solves") == 1
    assert telemetry.metrics.value("engine.columns") == 2


def test_cache_counters_match_engine_reports(telemetry, tiny_world):
    """The telemetry counters and OperatorCache.cache_info agree."""
    engine = PagerankEngine()
    graph = tiny_world.graph
    engine.bundle(graph)  # miss: builds the bundle
    engine.bundle(graph)  # hit
    engine.bundle(graph)  # hit
    info = engine.cache.cache_info()
    assert info == {
        "hits": 2,
        "misses": 1,
        "evictions": 0,
        "derives": 0,
        "size": 1,
        "maxsize": 8,
    }
    assert telemetry.metrics.value("opcache.hits") == info["hits"]
    assert telemetry.metrics.value("opcache.misses") == info["misses"]
    assert telemetry.sink.span_count("operator-build") == 1


def test_transient_write_failure_emits_retry_events(
    telemetry, tmp_path, monkeypatch
):
    import repro.runtime.checkpoint as ckpt_mod

    flaky = chaos.FlakyCalls(os.replace, plan={1: OSError})
    monkeypatch.setattr(ckpt_mod.os, "replace", flaky)
    save_solution(tmp_path, np.ones((4, 2)), fingerprint="fp", backoff=0.0)
    monkeypatch.undo()
    assert load_solution(tmp_path, fingerprint="fp").scores.shape == (4, 2)
    retries = telemetry.sink.named("retry.attempt")
    assert len(retries) == 1
    assert retries[0].attrs["error"] == "OSError"
    assert retries[0].attrs["attempt"] == 1
    assert telemetry.metrics.value("retry.attempts") == 1


def test_montecarlo_reports_walk_counts(telemetry, tiny_world):
    result = pagerank_montecarlo_parallel(
        tiny_world.graph, num_walks=500, workers=None, seed=3
    )
    assert telemetry.metrics.value("mc.walks") == result.num_walks == 500
    runs = telemetry.sink.named("mc.run")
    assert len(runs) == 1
    assert runs[0].attrs["walks"] == 500
    assert runs[0].attrs["steps"] == result.total_steps
