"""Subprocess smoke matrix for the CLI.

Unlike ``test_cli.py`` (which drives ``main()`` in-process), these tests
spawn real interpreter subprocesses — exercising the console entry
point, argument plumbing, exit codes and on-disk outputs exactly as an
operator would.  The matrix crosses the small preset with and without
``--checkpoint-dir`` and with tracing on/off; each cell asserts exit
0, valid JSON outputs and a parseable trace.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv, cwd):
    """Run ``repro-spam`` in a subprocess; returns CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def small_world_dir(tmp_path_factory):
    """A persisted small world, generated once by a real subprocess."""
    out = tmp_path_factory.mktemp("smoke") / "world"
    proc = run_cli(
        "generate",
        "--scale", "small",
        "--out", str(out),
        cwd=out.parent,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "core.hosts").exists()
    return out


@pytest.mark.parametrize(
    "checkpoint", [False, True], ids=["batched", "checkpoint"]
)
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_estimate_matrix(small_world_dir, tmp_path, checkpoint, traced):
    """{small} x {--checkpoint-dir off,on} x {--trace-out on,off}."""
    prefix = tmp_path / "est" / "run"
    ckpt = tmp_path / "ckpt"
    trace = tmp_path / "run.trace.jsonl"
    metrics = tmp_path / "run.metrics.json"
    argv = []
    if traced:
        argv += ["--trace-out", str(trace), "--metrics-out", str(metrics)]
    argv += [
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(prefix),
    ]
    if checkpoint:
        argv += ["--checkpoint-dir", str(ckpt)]
    proc = run_cli(*argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "estimated mass" in proc.stdout

    # score outputs exist for every cell
    for kind in ("pagerank", "core", "relative"):
        assert Path(f"{prefix}.{kind}.scores").exists()
    # the snapshot is the only thing a checkpoint directory holds
    if checkpoint:
        assert [p.name for p in ckpt.iterdir()] == ["solution.npz"]
    else:
        assert not ckpt.exists()

    if not traced:
        assert not trace.exists()
        assert not metrics.exists()
        return

    # every trace line is valid JSON with the event schema
    lines = trace.read_text().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    for record in records:
        assert set(record) == {"ts", "kind", "name", "attrs"}
        assert record["kind"] in ("span_start", "span_end", "event")
    names = {r["name"] for r in records}
    assert "cli:estimate" in names
    assert "mass-estimate" in names
    # with or without a checkpoint directory, p and p′ are one batch
    assert "solve:batch" in names
    assert not {"solve:p", "solve:p_prime"} & names

    # the manifest pairs with the trace and is internally consistent
    manifest = json.loads(
        trace.with_suffix(".manifest.json").read_text()
    )
    assert manifest["exit_code"] == 0
    assert manifest["events_total"] == len(records)
    assert sum(manifest["events_by_kind"].values()) == len(records)
    assert manifest["trace_file"] == str(trace)

    # the metrics snapshot is valid JSON with typed entries
    snapshot = json.loads(metrics.read_text())
    assert "span.duration.cli:estimate" in snapshot
    for entry in snapshot.values():
        assert entry["type"] in ("counter", "gauge", "histogram")


def test_no_telemetry_flag_suppresses_outputs(small_world_dir, tmp_path):
    trace = tmp_path / "run.trace.jsonl"
    proc = run_cli(
        "--trace-out", str(trace),
        "--no-telemetry",
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(tmp_path / "run"),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert not trace.exists()


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--workers", "0"),
        ("--mc-walks", "0"),
        ("--mc-walks", "-1"),
    ],
)
def test_estimate_rejects_non_positive_numeric_flags(
    small_world_dir, tmp_path, flag, value
):
    """argparse-level validation: exit 2 before any work happens."""
    proc = run_cli(
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(tmp_path / "run"),
        flag, value,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "must be a positive integer" in proc.stderr
    # rejected at parse time: no score files were produced
    assert not list(tmp_path.glob("run.*"))


def test_update_round_trip_matches_cold_estimate(small_world_dir, tmp_path):
    """cold estimate w/ checkpoint → delta → update → detect.

    The updated scores and the detector output must be identical to a
    cold estimate + detect on the mutated world — the ISSUE's
    acceptance round trip, through real subprocesses.
    """
    ckpt = tmp_path / "ckpt"
    cold_prefix = tmp_path / "cold"
    est = run_cli(
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(cold_prefix),
        "--checkpoint-dir", str(ckpt),
        cwd=tmp_path,
    )
    assert est.returncode == 0, est.stderr
    assert (ckpt / "solution.npz").exists()

    # a small insertion-only churn among valid fresh edges
    import numpy as np

    from repro.graph import GraphDelta, write_delta
    from repro.graph.io import read_graph_bundle, read_scores

    graph, _, _ = read_graph_bundle(small_world_dir)
    out_degree = np.diff(graph.indptr)
    silent = np.flatnonzero(out_degree == 0)
    rng = np.random.default_rng(3)
    sources = rng.choice(silent, size=5, replace=False)
    insertions = []
    for src in sources:
        pool = silent[silent != src]
        insertions.extend(
            (int(src), int(t))
            for t in rng.choice(pool, size=4, replace=False)
        )
    delta_file = tmp_path / "crawl.delta"
    write_delta(GraphDelta(insertions=insertions), delta_file)

    upd_prefix = tmp_path / "upd"
    mutated_dir = tmp_path / "world-mutated"
    upd = run_cli(
        "update",
        "--world", str(small_world_dir),
        "--delta", str(delta_file),
        "--checkpoint-dir", str(ckpt),
        "--out-prefix", str(upd_prefix),
        "--write-world", str(mutated_dir),
        cwd=tmp_path,
    )
    assert upd.returncode == 0, upd.stderr

    coldmut_prefix = tmp_path / "coldmut"
    est2 = run_cli(
        "estimate",
        "--world", str(mutated_dir),
        "--out-prefix", str(coldmut_prefix),
        cwd=tmp_path,
    )
    assert est2.returncode == 0, est2.stderr

    for kind in ("pagerank", "core"):
        updated = read_scores(f"{upd_prefix}.{kind}.scores")
        cold = read_scores(f"{coldmut_prefix}.{kind}.scores")
        assert np.abs(updated - cold).max() <= 1e-11, kind

    det_upd = run_cli(
        "detect",
        "--world", str(mutated_dir),
        "--scores-prefix", str(upd_prefix),
        cwd=tmp_path,
    )
    det_cold = run_cli(
        "detect",
        "--world", str(mutated_dir),
        "--scores-prefix", str(coldmut_prefix),
        cwd=tmp_path,
    )
    assert det_upd.returncode == det_cold.returncode == 0
    # identical candidates, order, masses and summary; the displayed
    # scaled-PageRank value is rounded to one decimal and a score
    # sitting within 10*tol of a .x5 boundary may print differently,
    # so that single cosmetic token is normalized away
    normalize = lambda s: re.sub(r"p=\d+\.\d+", "p=#", s)  # noqa: E731
    assert normalize(det_upd.stdout) == normalize(det_cold.stdout)

    # the checkpoint advanced to the mutated graph: updating the *old*
    # world against it now fails the fingerprint guard with exit 3
    stale = run_cli(
        "update",
        "--world", str(small_world_dir),
        "--delta", str(delta_file),
        "--checkpoint-dir", str(ckpt),
        "--out-prefix", str(tmp_path / "stale"),
        cwd=tmp_path,
    )
    assert stale.returncode == 3
    assert "fingerprint" in stale.stderr


def test_update_chained_deltas_and_precision(small_world_dir, tmp_path):
    """Repeated ``--delta``.

    Two chained delta files applied in one invocation (composed into
    one splice and one warm solve) must land on the same scores as a
    cold estimate of the final mutated world, within ``10 * tol``.
    Both solves are float64: neither command reports a precision
    choice.
    """
    import numpy as np

    from repro.graph import GraphDelta, write_delta
    from repro.graph.io import read_graph_bundle, read_scores

    ckpt = tmp_path / "ckpt"
    est = run_cli(
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(tmp_path / "cold"),
        "--checkpoint-dir", str(ckpt),
        cwd=tmp_path,
    )
    assert est.returncode == 0, est.stderr

    # two chained insertion deltas over disjoint silent sources
    graph, _, _ = read_graph_bundle(small_world_dir)
    silent = np.flatnonzero(np.diff(graph.indptr) == 0)
    rng = np.random.default_rng(8)
    picks = rng.choice(silent, size=6, replace=False)
    delta_files = []
    for idx, chunk in enumerate((picks[:3], picks[3:])):
        insertions = []
        for src in chunk:
            pool = silent[silent != src]
            insertions.extend(
                (int(src), int(t))
                for t in rng.choice(pool, size=4, replace=False)
            )
        path = tmp_path / f"crawl-{idx}.delta"
        write_delta(GraphDelta(insertions=insertions), path)
        delta_files.append(path)

    mutated_dir = tmp_path / "world-mutated"
    upd = run_cli(
        "update",
        "--world", str(small_world_dir),
        "--delta", str(delta_files[0]),
        "--delta", str(delta_files[1]),
        "--checkpoint-dir", str(ckpt),
        "--out-prefix", str(tmp_path / "upd"),
        "--write-world", str(mutated_dir),
        cwd=tmp_path,
    )
    assert upd.returncode == 0, upd.stderr
    assert "(2 file(s))" in upd.stdout
    assert "precision:" not in upd.stdout

    est2 = run_cli(
        "estimate",
        "--world", str(mutated_dir),
        "--out-prefix", str(tmp_path / "coldmut"),
        cwd=tmp_path,
    )
    assert est2.returncode == 0, est2.stderr
    assert "precision:" not in est2.stdout
    for kind in ("pagerank", "core"):
        updated = read_scores(f"{tmp_path}/upd.{kind}.scores")
        cold = read_scores(f"{tmp_path}/coldmut.{kind}.scores")
        assert np.abs(updated - cold).max() <= 1e-11, kind


def test_detect_smoke_over_traced_estimate(small_world_dir, tmp_path):
    """estimate → detect round trip through real subprocesses."""
    prefix = tmp_path / "run"
    est = run_cli(
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(prefix),
        cwd=tmp_path,
    )
    assert est.returncode == 0, est.stderr
    det = run_cli(
        "--trace-out", str(tmp_path / "detect.trace.jsonl"),
        "detect",
        "--world", str(small_world_dir),
        "--scores-prefix", str(prefix),
        cwd=tmp_path,
    )
    assert det.returncode == 0, det.stderr
    assert "spam candidates" in det.stdout
    records = [
        json.loads(line)
        for line in (tmp_path / "detect.trace.jsonl").read_text().splitlines()
    ]
    assert {r["name"] for r in records} >= {"cli:detect"}


def test_estimate_supervised_mc_matches_unsupervised(
    small_world_dir, tmp_path
):
    """The worker count changes wall time, never numbers: the
    Monte-Carlo cross-check line of a ``--workers 2`` pool run and the
    score files are identical to the in-process run's."""
    plain = run_cli(
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(tmp_path / "plain"),
        "--mc-walks", "300",
        cwd=tmp_path,
    )
    assert plain.returncode == 0, plain.stderr
    pooled = run_cli(
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(tmp_path / "pool"),
        "--mc-walks", "300",
        "--workers", "2",
        cwd=tmp_path,
    )
    assert pooled.returncode == 0, pooled.stderr
    assert "workers=2" in pooled.stdout
    dev = re.compile(r"L1 deviation from the linear PageRank (\S+)")
    assert dev.search(plain.stdout).group(1) == dev.search(
        pooled.stdout
    ).group(1)
    for kind in ("pagerank", "core", "relative"):
        assert (
            Path(f"{tmp_path / 'plain'}.{kind}.scores").read_bytes()
            == Path(f"{tmp_path / 'pool'}.{kind}.scores").read_bytes()
        )


def test_audit_core_round_trip(small_world_dir, tmp_path):
    """Clean core exits 0; a chaos-contaminated core exits 5, names the
    planted spam, and the repaired core audits clean again."""
    import numpy as np

    from repro.graph import read_graph_bundle, read_host_list, write_host_list
    from repro.runtime.chaos import contaminate_core

    clean = run_cli(
        "audit-core", "--world", str(small_world_dir), cwd=tmp_path
    )
    assert clean.returncode == 0, clean.stderr
    assert "clean" in clean.stdout

    graph, labels, _ = read_graph_bundle(small_world_dir)
    lookup = {graph.name_of(i): i for i in range(graph.num_nodes)}
    core = np.asarray(
        [lookup[n] for n in read_host_list(small_world_dir / "core.hosts")],
        dtype=np.int64,
    )
    spam = np.asarray(
        sorted(n for n, lab in labels.items() if lab == "spam"),
        dtype=np.int64,
    )
    dirty = contaminate_core(core, spam, num=3, seed=0)
    dirty_path = tmp_path / "dirty.hosts"
    write_host_list([graph.name_of(int(n)) for n in dirty], dirty_path)

    repaired_path = tmp_path / "repaired.hosts"
    audit = run_cli(
        "audit-core",
        "--world", str(small_world_dir),
        "--core", str(dirty_path),
        "--repaired-core-out", str(repaired_path),
        cwd=tmp_path,
    )
    assert audit.returncode == 5, audit.stderr
    assert "3 of" in audit.stdout
    assert "spam-labeled" in audit.stdout

    reaudit = run_cli(
        "audit-core",
        "--world", str(small_world_dir),
        "--core", str(repaired_path),
        cwd=tmp_path,
    )
    assert reaudit.returncode == 0, reaudit.stderr
    assert "clean" in reaudit.stdout


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--max-queue", "0", "must be a positive integer"),
        ("--max-staleness", "0", "must be a positive integer"),
        ("--max-requests", "0", "must be a positive integer"),
        ("--request-timeout", "0", "must be a positive number"),
        ("--request-timeout", "nan", "must be a positive number"),
        ("--batch-deltas", "0", "must be a positive integer"),
        ("--batch-deltas", "-2", "must be a positive integer"),
        ("--tau", "nan", "must be a finite number"),
        ("--rho", "inf", "must be a finite number"),
        ("--rho", "x", "is not a number"),
    ],
)
def test_serve_rejects_bad_flags(tmp_path, flag, value, message):
    """`serve` shares the validation conventions: exit 2 at parse time,
    before the world or checkpoint paths are even touched."""
    proc = run_cli(
        "serve",
        "--world", str(tmp_path / "does-not-exist"),
        "--checkpoint-dir", str(tmp_path / "nor-this"),
        "--socket", str(tmp_path / "serve.sock"),
        flag, value,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "serve.sock").exists()


def _checkpointed_estimate(small_world_dir, tmp_path):
    """estimate --checkpoint-dir + a valid fresh-edge delta file."""
    import numpy as np

    from repro.graph import GraphDelta, write_delta
    from repro.graph.io import read_graph_bundle

    ckpt = tmp_path / "ckpt"
    est = run_cli(
        "estimate",
        "--world", str(small_world_dir),
        "--out-prefix", str(tmp_path / "cold"),
        "--checkpoint-dir", str(ckpt),
        cwd=tmp_path,
    )
    assert est.returncode == 0, est.stderr

    graph, _, _ = read_graph_bundle(small_world_dir)
    out_degree = np.diff(graph.indptr)
    silent = np.flatnonzero(out_degree == 0)
    rng = np.random.default_rng(11)
    sources = rng.choice(silent, size=4, replace=False)
    insertions = []
    for src in sources:
        pool = silent[silent != src]
        insertions.extend(
            (int(src), int(t))
            for t in rng.choice(pool, size=3, replace=False)
        )
    delta_file = tmp_path / "crawl.delta"
    write_delta(GraphDelta(insertions=insertions), delta_file)
    return ckpt, delta_file


def test_serve_subprocess_round_trip(small_world_dir, tmp_path):
    """`repro-spam serve` end to end: load, answer over the socket,
    self-drain at --max-requests, exit 0 with the drain summary."""
    import subprocess as sp
    import time

    from repro.graph import read_host_list
    from repro.serve import ServeClient

    ckpt, _ = _checkpointed_estimate(small_world_dir, tmp_path)
    sock = tmp_path / "serve.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    proc = sp.Popen(
        [
            sys.executable, "-m", "repro.cli",
            "serve",
            "--world", str(small_world_dir),
            "--checkpoint-dir", str(ckpt),
            "--socket", str(sock),
            "--max-requests", "3",
        ],
        cwd=tmp_path,
        env=env,
        stdout=sp.PIPE,
        stderr=sp.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 120
        while not sock.exists() and time.monotonic() < deadline:
            assert proc.poll() is None, proc.communicate()[1]
            time.sleep(0.05)
        assert sock.exists(), "server never bound its socket"
        host = read_host_list(small_world_dir / "core.hosts")[0]
        with ServeClient(sock) as client:
            health = client.health()
            assert health["ok"] is True and health["staleness"] == 0
            score = client.score(host)
            assert score["ok"] is True and score["mode"] == "full"
            top = client.top(3, tau=0.0, rho=0.0)
            assert top["ok"] is True and len(top["candidates"]) == 3
        stdout, stderr = proc.communicate(timeout=120)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0, stderr
    assert "serving" in stdout
    assert "drained after 3 requests" in stdout
    assert not sock.exists()


def test_stream_synth_ingest_dlq_round_trip(small_world_dir, tmp_path):
    """`stream synth` → poison one line → `stream ingest --probe` →
    `stream dlq`: the full streaming surface through real
    subprocesses, with the malformed record quarantined and listed."""
    ckpt, _ = _checkpointed_estimate(small_world_dir, tmp_path)
    stream_file = tmp_path / "events.jsonl"
    syn = run_cli(
        "stream", "synth",
        "--world", str(small_world_dir),
        "--out", str(stream_file),
        "--seed", "3",
        "--events", "300",
        "--boosters", "10",
        "--stride", "3",
        cwd=tmp_path,
    )
    assert syn.returncode == 0, syn.stderr
    assert "scripted attacks" in syn.stdout
    sidecar = stream_file.with_name(stream_file.name + ".attacks.json")
    assert sidecar.exists()

    # a torn record on the wire: ingest must quarantine, not die
    with open(stream_file, "a", encoding="utf-8") as fh:
        fh.write('{"id": 90000, "ts":\n')

    ing = run_cli(
        "stream", "ingest",
        "--world", str(small_world_dir),
        "--checkpoint-dir", str(ckpt),
        "--events", str(stream_file),
        "--rho", "1.5",
        "--tau", "0.9",
        "--probe",
        cwd=tmp_path,
    )
    assert ing.returncode == 0, ing.stderr
    assert "windows committed" in ing.stdout
    assert "1 malformed" in ing.stdout
    assert f"(DLQ {ckpt / 'stream'}," in ing.stdout
    assert "detection latency" in ing.stdout
    assert "caught after" in ing.stdout

    dlq = run_cli(
        "stream", "dlq",
        "--dlq-dir", str(ckpt / "stream"),
        cwd=tmp_path,
    )
    assert dlq.returncode == 0, dlq.stderr
    assert "bad-json" in dlq.stdout

    # re-running the same ingest resumes from the last WAL record: a
    # machine-readable no-op (same consumed count, no new windows, the
    # torn record not dead-lettered twice)
    queued = (ckpt / "stream" / "dlq.jsonl").read_bytes()
    again = run_cli(
        "stream", "ingest",
        "--world", str(small_world_dir),
        "--checkpoint-dir", str(ckpt),
        "--events", str(stream_file),
        "--json",
        cwd=tmp_path,
    )
    assert again.returncode == 0, again.stderr
    payload = json.loads(again.stdout)
    assert payload["stats"]["events_consumed"] == 300
    assert payload["stats"]["buffered"] == 0
    assert payload["stats"]["malformed"] == 1
    assert (ckpt / "stream" / "dlq.jsonl").read_bytes() == queued


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--window", "0", "must be a positive integer"),
        ("--window", "x", "is not an integer"),
        ("--max-lateness", "-1", "must be a non-negative integer"),
        ("--rho", "nan", "must be a finite number"),
        ("--tau", "inf", "must be a finite number"),
    ],
)
def test_stream_ingest_rejects_bad_flags(tmp_path, flag, value, message):
    """The stream family shares the validation conventions: exit 2 at
    parse time, before any path is touched."""
    proc = run_cli(
        "stream", "ingest",
        "--world", str(tmp_path / "does-not-exist"),
        "--checkpoint-dir", str(tmp_path / "nor-this"),
        "--events", str(tmp_path / "no-events.jsonl"),
        flag, value,
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert not (tmp_path / "nor-this").exists()


def test_stream_synth_rejects_unknown_attack(tmp_path):
    proc = run_cli(
        "stream", "synth",
        "--world", str(tmp_path / "does-not-exist"),
        "--out", str(tmp_path / "events.jsonl"),
        "--attacks", "dns-hijack",
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "unknown attack kind" in proc.stderr
    assert not (tmp_path / "events.jsonl").exists()


def test_stream_ingest_probe_requires_sidecar(tmp_path):
    """--probe without the ground-truth sidecar is a usage error,
    caught before the daemon loads anything."""
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"id": 0, "ts": 0, "op": "+", "src": 0, "dst": 1}\n'
    )
    proc = run_cli(
        "stream", "ingest",
        "--world", str(tmp_path / "does-not-exist"),
        "--checkpoint-dir", str(tmp_path / "nor-this"),
        "--events", str(events),
        "--probe",
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "attack sidecar" in proc.stderr
