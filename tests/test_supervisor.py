"""Supervised fan-out under chaos: the acceptance suite for ISSUE 5.

Every scenario asserts two things at once:

1. **numbers are untouched** — the supervised Monte-Carlo estimate is
   *bitwise* identical to the fault-free serial run,
   because the chunk plan and RNG streams are fixed before execution;
2. **the telemetry tells the truth** — each fault produces exactly the
   supervision events it should (``supervisor.retry``,
   ``supervisor.task_timeout``, ``supervisor.circuit_open``,
   ``supervisor.degraded``, ``supervisor.salvaged_chunks``) and a
   clean run produces none.

The worker count is taken from ``REPRO_TEST_WORKERS`` (default 2) so
the CI chaos matrix can sweep it; when
``REPRO_SUPERVISION_TELEMETRY_DIR`` is set, each test dumps its
captured event stream as JSON lines for artifact upload.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SupervisionError
from repro.perf.parallel import _simulate_chunk, pagerank_montecarlo_parallel
from repro.runtime.chaos import ChaosWorker
from repro.runtime.retry import BackoffPolicy
from repro.runtime.supervisor import (
    CIRCUIT_STATES,
    CircuitBreaker,
    SupervisorPolicy,
    TaskSupervisor,
)

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
WALKS = 400
SEED = 11

#: zero-sleep backoff so fault storms retry instantly in tests
FAST = BackoffPolicy(retries=4, base=0.0)


@pytest.fixture()
def supervision_telemetry(telemetry, request):
    """The standard telemetry fixture, plus a JSONL dump for CI.

    With ``REPRO_SUPERVISION_TELEMETRY_DIR`` set, the captured event
    stream is written as ``<dir>/<test-name>.jsonl`` after the test —
    the chaos-matrix CI job uploads these as its artifact.
    """
    yield telemetry
    out_dir = os.environ.get("REPRO_SUPERVISION_TELEMETRY_DIR")
    if not out_dir:
        return
    path = Path(out_dir) / f"{request.node.name}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for event in telemetry.sink.events:
            fh.write(
                json.dumps(
                    {"event": event.name, "attrs": dict(event.attrs)},
                    sort_keys=True,
                )
                + "\n"
            )


@pytest.fixture(scope="module")
def baseline(tiny_world):
    """The fault-free serial reference estimate."""
    return pagerank_montecarlo_parallel(
        tiny_world.graph, num_walks=WALKS, workers=None, seed=SEED
    )


def _supervisor_events(sink):
    return [e for e in sink.events if e.name.startswith("supervisor.")]


def _run(graph, chunk_fn=None, supervisor=None, workers=WORKERS):
    return pagerank_montecarlo_parallel(
        graph,
        num_walks=WALKS,
        workers=workers,
        seed=SEED,
        supervisor=supervisor,
        _chunk_fn=chunk_fn,
    )


# ----------------------------------------------------------------------
# clean paths: supervision must be invisible
# ----------------------------------------------------------------------


def test_clean_serial_run_emits_no_supervisor_events(
    supervision_telemetry, tiny_world, baseline
):
    result = _run(tiny_world.graph, workers=None)
    assert np.array_equal(result.scores, baseline.scores)
    assert _supervisor_events(supervision_telemetry.sink) == []


def test_clean_pool_run_is_bitwise_identical_and_silent(
    supervision_telemetry, tiny_world, baseline
):
    result = _run(tiny_world.graph)
    assert np.array_equal(result.scores, baseline.scores)
    assert _supervisor_events(supervision_telemetry.sink) == []


# ----------------------------------------------------------------------
# worker-kill mid-plan: salvage completed chunks, re-execute the rest
# ----------------------------------------------------------------------


def test_worker_kill_mid_plan_salvages_completed_chunks(
    supervision_telemetry, tiny_world, baseline, tmp_path
):
    chaos = ChaosWorker(_simulate_chunk, kill_on=(2,), once_dir=tmp_path)
    sup = TaskSupervisor(SupervisorPolicy(max_task_retries=3, backoff=FAST))
    result = _run(tiny_world.graph, chunk_fn=chaos, supervisor=sup)
    assert np.array_equal(result.scores, baseline.scores)

    sink = supervision_telemetry.sink
    salvaged = sink.named("supervisor.salvaged_chunks")
    assert len(salvaged) == 1
    attrs = salvaged[0].attrs
    assert attrs["tasks"] == 8
    assert attrs["salvaged"] + attrs["reexecuted"] == attrs["tasks"]
    # the kill cost the plan something, but never everything: completed
    # chunks are salvaged, only in-flight/killed ones re-execute
    assert 1 <= attrs["reexecuted"] < attrs["tasks"]
    assert attrs["salvaged"] >= 1


# ----------------------------------------------------------------------
# worker-hang: the watchdog abandons the task at its deadline
# ----------------------------------------------------------------------


def test_worker_hang_is_abandoned_at_deadline(
    supervision_telemetry, tiny_world, baseline
):
    # hang fires only inside a pool worker, so the in-process
    # re-execution after abandonment completes the chunk normally
    chaos = ChaosWorker(_simulate_chunk, hang_on=(1,), hang_seconds=60.0)
    sup = TaskSupervisor(
        SupervisorPolicy(
            max_task_retries=3,
            task_timeout=1.5,
            backoff=FAST,
            poll_interval=0.02,
        )
    )
    result = _run(tiny_world.graph, chunk_fn=chaos, supervisor=sup)
    assert np.array_equal(result.scores, baseline.scores)

    sink = supervision_telemetry.sink
    timeouts = sink.named("supervisor.task_timeout")
    assert [e.attrs["task"] for e in timeouts] == [1]
    assert timeouts[0].attrs["deadline"] == pytest.approx(1.5)
    salvaged = sink.named("supervisor.salvaged_chunks")
    assert len(salvaged) == 1
    assert salvaged[0].attrs["reexecuted"] >= 1
    assert salvaged[0].attrs["salvaged"] >= 1


# ----------------------------------------------------------------------
# slow worker within its deadline: tolerated, never retried
# ----------------------------------------------------------------------


def test_slow_worker_within_deadline_is_tolerated(
    supervision_telemetry, tiny_world, baseline
):
    chaos = ChaosWorker(_simulate_chunk, slow_on=(3,), slow_seconds=0.05)
    sup = TaskSupervisor(
        SupervisorPolicy(max_task_retries=3, task_timeout=30.0, backoff=FAST)
    )
    result = _run(tiny_world.graph, chunk_fn=chaos, supervisor=sup)
    assert np.array_equal(result.scores, baseline.scores)
    assert _supervisor_events(supervision_telemetry.sink) == []


# ----------------------------------------------------------------------
# circuit breaker: repeated pool deaths degrade pool -> serial
# ----------------------------------------------------------------------


def test_circuit_trip_degrades_to_serial_without_changing_results(
    supervision_telemetry, tiny_world, baseline
):
    # no once_dir: chunk 0 kills its worker on *every* pool execution,
    # so each rebuilt pool dies again until the breaker opens; the
    # kill injector is a no-op in-process, so serial execution finishes
    chaos = ChaosWorker(_simulate_chunk, kill_on=(0,))
    sup = TaskSupervisor(
        SupervisorPolicy(
            max_task_retries=5, circuit_threshold=3, backoff=FAST
        )
    )
    with pytest.warns(RuntimeWarning, match="sequentially"):
        result = _run(tiny_world.graph, chunk_fn=chaos, supervisor=sup)
    assert np.array_equal(result.scores, baseline.scores)

    sink = supervision_telemetry.sink
    opened = sink.named("supervisor.circuit_open")
    assert len(opened) == 1
    assert opened[0].attrs["consecutive_failures"] == 3
    degraded = sink.named("supervisor.degraded")
    assert len(degraded) == 1
    assert degraded[0].attrs["reason"] == "circuit-open"
    salvaged = sink.named("supervisor.salvaged_chunks")
    assert len(salvaged) == 1
    assert salvaged[0].attrs["tasks"] == 8
    # the event stream tells the degradation story in order
    names = [e.name for e in _supervisor_events(sink)]
    assert names.index("supervisor.circuit_open") < names.index(
        "supervisor.degraded"
    )
    assert names[-1] == "supervisor.salvaged_chunks"


def test_circuit_state_gauge_tracks_transitions(
    supervision_telemetry, tiny_world, baseline
):
    """``supervisor.circuit_state`` is a dashboard gauge, not an event
    stream: it must read ``closed`` after a clean run and land on
    ``degraded`` once a trip forced the serial fallback."""
    metrics = supervision_telemetry.metrics
    _run(tiny_world.graph, supervisor=TaskSupervisor())
    assert metrics.value("supervisor.circuit_state") == (
        CIRCUIT_STATES["closed"]
    )

    chaos = ChaosWorker(_simulate_chunk, kill_on=(0,))
    sup = TaskSupervisor(
        SupervisorPolicy(
            max_task_retries=5, circuit_threshold=3, backoff=FAST
        )
    )
    with pytest.warns(RuntimeWarning, match="sequentially"):
        _run(tiny_world.graph, chunk_fn=chaos, supervisor=sup)
    assert metrics.value("supervisor.circuit_state") == (
        CIRCUIT_STATES["degraded"]
    )
    assert set(CIRCUIT_STATES.values()) == {0, 1, 2}


def test_no_degrade_turns_circuit_trip_into_an_error(
    supervision_telemetry, tiny_world
):
    chaos = ChaosWorker(_simulate_chunk, kill_on=(0,))
    sup = TaskSupervisor(
        SupervisorPolicy(
            max_task_retries=5,
            circuit_threshold=2,
            allow_degrade=False,
            backoff=FAST,
        )
    )
    # fail-fast semantics: the *first* pool break already requires
    # degradation to make progress, so it raises immediately
    with pytest.raises(SupervisionError, match="disallowed") as excinfo:
        _run(tiny_world.graph, chunk_fn=chaos, supervisor=sup)
    # the partial report rides on the exception for postmortems
    assert excinfo.value.report is not None
    assert excinfo.value.report.pool_failures >= 1


# ----------------------------------------------------------------------
# plain task faults: retry with backoff, fail only on budget exhaustion
# ----------------------------------------------------------------------


def test_transient_task_fault_is_retried_and_salvage_reported(
    supervision_telemetry, tiny_world, baseline, tmp_path
):
    # fail_on fires everywhere; once_dir makes it a one-shot transient
    chaos = ChaosWorker(
        _simulate_chunk, fail_on=(4,), once_dir=tmp_path
    )
    sup = TaskSupervisor(SupervisorPolicy(max_task_retries=2, backoff=FAST))
    result = _run(tiny_world.graph, chunk_fn=chaos, supervisor=sup)
    assert np.array_equal(result.scores, baseline.scores)

    sink = supervision_telemetry.sink
    retries = sink.named("supervisor.retry")
    assert [e.attrs["task"] for e in retries] == [4]
    assert retries[0].attrs["error"] == "InjectedFault"
    salvaged = sink.named("supervisor.salvaged_chunks")
    assert len(salvaged) == 1
    assert salvaged[0].attrs["reexecuted"] == 1
    assert salvaged[0].attrs["salvaged"] == 7


def test_retry_budget_exhaustion_raises_supervision_error(
    supervision_telemetry, tiny_world
):
    # no once_dir: chunk 5 fails every execution, pool and serial alike
    chaos = ChaosWorker(_simulate_chunk, fail_on=(5,))
    sup = TaskSupervisor(SupervisorPolicy(max_task_retries=1, backoff=FAST))
    with pytest.raises(SupervisionError, match="retry budget"):
        _run(tiny_world.graph, chunk_fn=chaos, supervisor=sup, workers=None)
    retries = supervision_telemetry.sink.named("supervisor.retry")
    assert len(retries) == 1  # one retry allowed, then the budget is gone


# ----------------------------------------------------------------------
# unit coverage: breaker and policy validation
# ----------------------------------------------------------------------


def test_circuit_breaker_opens_once_and_resets_on_success():
    breaker = CircuitBreaker(3)
    assert not breaker.record_failure()
    assert not breaker.record_failure()
    breaker.record_success()  # consecutive counting: success resets
    assert not breaker.record_failure()
    assert not breaker.record_failure()
    assert breaker.record_failure()  # third consecutive opens it
    assert breaker.is_open
    assert not breaker.record_failure()  # opens exactly once


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_task_retries": -1},
        {"task_timeout": 0.0},
        {"task_timeout": -2.0},
        {"circuit_threshold": 0},
        {"poll_interval": 0.0},
    ],
)
def test_supervisor_policy_validates_its_knobs(kwargs):
    with pytest.raises(ValueError):
        SupervisorPolicy(**kwargs)


def test_empty_plan_is_a_noop(supervision_telemetry):
    report = TaskSupervisor().run(lambda: None, [])
    assert report.results == []
    assert report.salvaged == 0
    assert _supervisor_events(supervision_telemetry.sink) == []
