"""``serve``: one connection to ``repro-spam serve``, read path only.

The server starts on the world's text bundle and a converged
checkpoint.  The gates are ρ 2 and τ 0.5, so ``top`` returns real
candidates (at 1M hosts the defaults ρ 10, τ 0.98 leave none
eligible).  After an untimed warm-up of all three ops the client sends
a seeded 18:1:1 mix of ``score`` (uniform random host), ``top`` (k 10)
and ``health``, closed loop.  Kernel and write-path code does not run.

Request timings are client-observed.  The client and the server are
pinned to one CPU, where the probe in this process tracks the server
closely; it runs densely and calibrates the request timings only.  The
set-up time is raw.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from common import (Probe, Report, World, calibrate, median, op_time,
                    percentile, process_peak_rss_mb, solve_checkpoint)
from layers import layer_metrics
from tracing import fold, load_spans

HERE = Path(__file__).resolve().parent
RHO, TAU, TOP_K = 2.0, 0.5, 10
MIX = {"score": 18, "top": 1, "health": 1}
QUERY_SPANS = ("serve.query_score", "serve.query_top", "serve.health")
#: a traced run alternates traced and untraced blocks of up to this
#: length (shorter in short runs, so each run has both kinds)
BLOCK_S = 1.0
#: the probe runs this often between requests.  Client, server and
#: probe share one CPU, so the probe sees what slows the server: over
#: 3-s blocks on a 2-vCPU host the mix time correlated 0.88 with the
#: probe, and dividing by it cut the blocks' spread from 12% to 6%
#: (unpinned, the raw spread was 16% and division left 9%)
PROBE_EVERY_S = 0.3
SERVE_PROBE_EXPONENT = 1.0
START_TIMEOUT_S = 150.0


def connect(socket_path: str, proc, deadline: float):
    from repro.serve import ServeClient

    while True:
        try:
            return ServeClient(socket_path, timeout=60.0)
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None:
                raise RuntimeError(f"server exited with {proc.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not start in time")
            time.sleep(0.01)


def run(args, workdir: Path, report: Report) -> None:
    from repro.graph import write_graph_bundle, write_host_list

    probe = Probe()
    world = World(args.seed, args.hosts)
    graph = world.graph()
    n = world.num_nodes
    world_dir, ckpt = workdir / "world", workdir / "ckpt"
    estimates = solve_checkpoint(graph, world.core, ckpt)
    write_graph_bundle(graph, world_dir)
    write_host_list(world.core_names(), world_dir / "core.hosts")
    fingerprint = graph.structural_fingerprint()
    del graph, world
    expected_top = checks.top_reply(estimates, n, TOP_K, TAU, RHO)

    # relative: a unix socket path must stay short
    socket_path = os.path.relpath(workdir / "serve.sock")
    spans_path = workdir / "spans.json"
    serve_args = [
        "serve", "--world", str(world_dir), "--checkpoint-dir", str(ckpt),
        "--socket", socket_path, "--rho", str(RHO), "--tau", str(TAU),
    ]
    if args.trace:
        cmd = [sys.executable, str(HERE / "serve_launcher.py"),
               str(spans_path)] + serve_args
    else:
        cmd = [sys.executable, "-m", "repro.cli"] + serve_args
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # one CPU for the client and the server it spawns (children inherit
    # the affinity): a closed loop never runs both at once, and a noisy
    # neighbour then slows the probe and the server alike
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    log_path = workdir / "server.log"
    probe.run()
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, stdout=log, stderr=subprocess.STDOUT
        )
        client = None
        try:
            client = connect(socket_path, proc, start + START_TIMEOUT_S)
            first = client.health()
            setup_s = time.perf_counter() - start
            report.attempted += 1
            report.fail(*checks.check_health(first, fingerprint))
            ops = drive(args, client, proc, probe, n, report)
            rss = process_peak_rss_mb(proc.pid)
        except BaseException:
            print(log_path.read_text(encoding="utf-8")[-4000:],
                  file=sys.stderr)
            raise
        finally:
            if client is not None:
                client.close()
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        report.fail(f"server exited with {proc.returncode}")

    for kind, _start, _end, _traced, host, reply in ops:
        if kind == "score":
            problems = checks.check_score(
                reply, checks.score_reply(estimates, n, host))
        elif kind == "top":
            problems = checks.check_top(reply, expected_top)
        else:
            problems = checks.check_health(reply, fingerprint)
        report.fail(*problems)

    latency = {kind: [] for kind in MIX}
    traced_latency = {kind: [] for kind in MIX}
    for kind, t0, t1, traced, _host, _reply in ops:
        (traced_latency if traced else latency)[kind].append(t1 - t0)
    op_s = op_time(latency, MIX)
    probe_s = probe.median()

    def scale(raw: float) -> float:
        return calibrate(raw, args.probe_ref_ms, probe_s,
                         SERVE_PROBE_EXPONENT)

    report.line("setup_s", setup_s, "s", 1, "raw")
    for kind in MIX:
        raw = median(latency[kind])
        report.line(f"{kind}_p50_ms", scale(raw) * 1e3, "ms",
                    len(latency[kind]), f"raw {raw * 1e3:.4f} ms")
    report.line("peak_rss_mb", rss, "MiB", 1, "server process")
    report.line("bench.probe_ms", probe_s * 1e3, "ms", len(probe.samples))

    if not args.trace:
        report.metric("setup_s", setup_s, "s")
        report.metric("op_ms", scale(op_s) * 1e3, "ms")
        report.metric("peak_rss_mb", rss, "MiB")
        return

    spans = load_spans(spans_path)
    traced_ops = [(t0, t1) for _k, t0, t1, traced, _h, _r in ops if traced]
    folded = fold(spans, traced_ops)
    remainder = []
    for (t0, t1), op in zip(traced_ops, folded):
        query = [i for name in QUERY_SPANS for i in op.get(name, ())]
        if query:
            remainder.append((t1 - t0) - spans[query[0]].duration)
    extra = {
        "serve.server_us": median(remainder) * 1e6,
        "serve.score_p99_ms": percentile(latency["score"], 99) * 1e3,
        "serve.top_p99_ms": percentile(latency["top"], 99) * 1e3,
        "serve.health_p99_ms": percentile(latency["health"], 99) * 1e3,
        "bench.probe_ms": probe_s * 1e3,
        "bench.trace_overhead": op_time(traced_latency, MIX) / op_s,
        # the server-side remainder is its own named layer, so a
        # request's time is covered by construction
        "bench.layer_coverage": 1.0,
    }
    for name, (value, unit) in layer_metrics(spans, traced_ops, extra).items():
        report.metric(name, value, unit)


def drive(args, client, proc, probe, n: int, report: Report):
    """The closed loop; returns ``(kind, t0, t1, traced, host, reply)``."""
    rng = np.random.default_rng([args.seed, 0x5E4E])
    kinds = list(MIX)
    weights = np.asarray([MIX[k] for k in kinds], dtype=float)
    weights /= weights.sum()
    # untimed warm-up of all three ops
    client.score(f"node{int(rng.integers(n))}")
    client.top(TOP_K)
    client.health()
    ops = []
    traced = False
    now = time.perf_counter()
    deadline = now + args.seconds
    next_probe = next_block = now
    while now < deadline:
        if now >= next_probe:
            probe.run()
            next_probe = time.perf_counter() + PROBE_EVERY_S
        if args.trace and now >= next_block:
            traced = not traced
            proc.send_signal(signal.SIGUSR1 if traced else signal.SIGUSR2)
            time.sleep(0.05)  # the handler runs on the server's main thread
            next_block = time.perf_counter() + min(BLOCK_S, args.seconds / 4)
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        host = None
        if kind == "score":
            host = int(rng.integers(n))
            payload = {"op": "score", "host": f"node{host}"}
        elif kind == "top":
            payload = {"op": "top", "k": TOP_K}
        else:
            payload = {"op": "health"}
        report.attempted += 1
        t0 = time.perf_counter()
        reply = client.request(payload)
        t1 = time.perf_counter()
        ops.append((kind, t0, t1, traced, host, reply))
        now = t1
    return ops
