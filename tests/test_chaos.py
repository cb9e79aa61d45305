"""Fault-injection (chaos) tests for the I/O recovery paths.

Every fault here is planted deterministically via ``repro.runtime.chaos``;
the suite asserts the *recovery paths* of the pipeline — lenient I/O
and write retries of edge files and solution snapshots — actually
recover, not just that the happy path works.
"""

import gzip
import os

import numpy as np
import pytest

from repro.errors import GraphIOWarning, TruncatedFileError
from repro.graph import WebGraph, read_edge_list, write_edge_list
from repro.runtime import chaos, load_solution, save_solution

SCORES = np.arange(16.0).reshape(8, 2) / 100.0


@pytest.fixture()
def edge_graph():
    return WebGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


# ----------------------------------------------------------------------
# file-level chaos: corrupted edge files
# ----------------------------------------------------------------------


def test_truncated_gzip_raises_typed_error(tmp_path, edge_graph):
    path = tmp_path / "g.edges.gz"
    write_edge_list(edge_graph, path)
    chaos.corrupt_edge_file(path, "truncate-bytes", seed=1)
    with pytest.raises(TruncatedFileError):
        read_edge_list(path)
    # lenient mode must NOT mask truncation: the data is incomplete
    with pytest.raises(TruncatedFileError):
        read_edge_list(path, strict=False)


@pytest.mark.parametrize("kind", ["garbage-line", "bad-token", "out-of-range", "negative-id"])
def test_corruption_strict_raises_lenient_recovers(tmp_path, edge_graph, kind):
    path = tmp_path / "g.edges"
    write_edge_list(edge_graph, path)
    chaos.corrupt_edge_file(path, kind, seed=2)
    with pytest.raises(ValueError):
        read_edge_list(path)  # strict default
    with pytest.warns(GraphIOWarning):
        recovered = read_edge_list(path, strict=False)
    assert recovered.num_nodes == edge_graph.num_nodes
    # lenient recovery only ever drops lines, never invents edges
    assert set(recovered.edges()) <= set(edge_graph.edges())
    assert recovered.num_edges >= edge_graph.num_edges - 1


def test_duplicate_edge_lenient_dedupes(tmp_path, edge_graph):
    path = tmp_path / "g.edges"
    write_edge_list(edge_graph, path)
    chaos.corrupt_edge_file(path, "duplicate-edge", seed=3)
    with pytest.warns(GraphIOWarning) as record:
        recovered = read_edge_list(path, strict=False)
    assert recovered == edge_graph
    counts = record[0].message.counts
    assert counts.get("duplicate", 0) == 1


def test_drop_header_always_raises(tmp_path, edge_graph):
    path = tmp_path / "g.edges"
    write_edge_list(edge_graph, path)
    chaos.corrupt_edge_file(path, "drop-header", seed=4)
    with pytest.raises(ValueError):
        read_edge_list(path)
    with pytest.raises(ValueError):
        read_edge_list(path, strict=False)  # header damage is not recoverable


def test_corruption_is_deterministic(tmp_path, edge_graph):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    write_edge_list(edge_graph, a)
    write_edge_list(edge_graph, b)
    chaos.corrupt_edge_file(a, "bad-token", seed=7)
    chaos.corrupt_edge_file(b, "bad-token", seed=7)
    assert a.read_bytes() == b.read_bytes()


# ----------------------------------------------------------------------
# write-path chaos: transient filesystem failures are retried
# ----------------------------------------------------------------------


def test_edge_write_retries_transient_oserror(tmp_path, edge_graph, monkeypatch):
    import repro.graph.io as io_mod

    flaky = chaos.FlakyCalls(os.replace, fail_first=1, exc=OSError)
    monkeypatch.setattr(io_mod.os, "replace", flaky)
    path = tmp_path / "g.edges"
    write_edge_list(edge_graph, path)
    monkeypatch.undo()
    assert flaky.calls >= 2
    assert read_edge_list(path) == edge_graph


def test_checkpoint_write_retries_flaky_replace(tmp_path, monkeypatch):
    """Two snapshot writes, each rescued from one failed os.replace."""
    import repro.runtime.checkpoint as ckpt_mod

    flaky = chaos.FlakyCalls(os.replace, plan={1: OSError, 3: OSError})
    monkeypatch.setattr(ckpt_mod.os, "replace", flaky)
    save_solution(tmp_path, SCORES, fingerprint="fp", backoff=0.0)
    save_solution(tmp_path, 2 * SCORES, fingerprint="fp", backoff=0.0)
    monkeypatch.undo()
    assert flaky.calls == 4
    assert not list(tmp_path.glob("*.tmp"))
    restored = load_solution(tmp_path, fingerprint="fp")
    assert np.array_equal(restored.scores, 2 * SCORES)


def test_flaky_open_scripts_failures(tmp_path):
    target = tmp_path / "x.txt"
    target.write_text("payload")
    opener = chaos.flaky_open(fail_first=2, exc=OSError)
    with pytest.raises(OSError):
        opener(target)
    with pytest.raises(OSError):
        opener(target)
    with opener(target) as fh:
        assert fh.read() == "payload"


# ----------------------------------------------------------------------
# telemetry under chaos: recovery paths leave an assertable event trail
# ----------------------------------------------------------------------


def test_tracer_records_retries_under_flaky_checkpoint_writes(
    telemetry, tmp_path, monkeypatch
):
    """The scripted flaky os.replace plan {1: OSError, 3: OSError}
    surfaces as exactly two retry events, in write order."""
    import repro.runtime.checkpoint as ckpt_mod

    flaky = chaos.FlakyCalls(os.replace, plan={1: OSError, 3: OSError})
    monkeypatch.setattr(ckpt_mod.os, "replace", flaky)
    save_solution(tmp_path, SCORES, fingerprint="fp", backoff=0.0)
    save_solution(tmp_path, SCORES, fingerprint="fp", backoff=0.0)
    monkeypatch.undo()
    assert not list(tmp_path.glob("*.tmp"))
    assert np.array_equal(load_solution(tmp_path).scores, SCORES)

    sink = telemetry.sink
    retries = sink.named("retry.attempt")
    assert len(retries) == 2
    assert all(e.attrs["error"] == "OSError" for e in retries)
    # both failures were first attempts of their respective writes
    assert [e.attrs["attempt"] for e in retries] == [1, 1]
    writes = sink.named("checkpoint.solution_write")
    assert len(writes) == 2
    assert telemetry.metrics.value("retry.attempts") == 2
    assert telemetry.metrics.value("checkpoint.solution_writes") == 2
    # ordering: a retry always precedes the successful write it rescued
    kinds = [
        e.name
        for e in sink.events
        if e.name in ("retry.attempt", "checkpoint.solution_write")
    ]
    assert kinds == [
        "retry.attempt",
        "checkpoint.solution_write",
        "retry.attempt",
        "checkpoint.solution_write",
    ]
