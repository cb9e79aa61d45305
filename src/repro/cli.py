"""Command-line interface: the spam-mass pipeline as shell commands.

The paper's deployment story is a pipeline a search engine runs over
its index: build/refresh the host graph, assemble a good core, compute
the two PageRank vectors, threshold the relative mass, review the
candidates.  ``repro-spam`` exposes exactly those steps over the
on-disk formats of :mod:`repro.graph.io`:

``repro-spam generate``
    Build a synthetic world, write it as a graph bundle (edge list or
    ``.npz``, host names, ground-truth labels, metadata) plus the
    assembled good core as a host list.
``repro-spam stats``
    Print the Section 4.1-style statistics of a stored graph.
``repro-spam estimate``
    Compute ``p``, ``p′`` and the mass estimates for a stored graph
    and core; write them as score files.
``repro-spam detect``
    Apply Algorithm 2's thresholds to stored scores and list the spam
    candidates (with ground-truth annotation when labels are present).
``repro-spam stream``
    Synthesize timestamped crawl-event streams (with scripted temporal
    attack worlds) and feed them through the windowed, WAL-backed
    ingestor with dead-letter quarantine; inspect the DLQ.
``repro-spam audit-core``
    Re-estimate mass for a stored graph and core, then audit the core
    for Section 4.4-style anomalies (spam-labeled members, members the
    estimates refuse to support); exit 5 when the core is dirty.
``repro-spam reproduce``
    Re-run one of the paper's experiments (by DESIGN.md id) and print
    the reproduced table.

Every command is deterministic given ``--seed``.

Failure behavior
----------------
User-facing errors print a one-line message to stderr and exit with a
distinct code (see the ``EXIT_*`` constants): 3 for missing/corrupt
input files, 4 for solver non-convergence, 5 for a dirty good core,
130 for interruption, 1 for anything unexpected.  ``--traceback`` opts
back into the raw Python traceback for debugging.  ``estimate
--checkpoint-dir`` saves the converged solution that ``update``,
``serve`` and ``stream ingest`` start from, and ``--lenient``
skips-and-warns on malformed input; see ``docs/runtime.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .core import estimate_spam_mass, scale_scores
from .errors import (
    CheckpointError,
    ConvergenceError,
    DeltaError,
    GraphFormatError,
    GraphIOError,
    ReproError,
)
from .graph import (
    ShardedWebGraph,
    partition_graph,
    read_graph_bundle,
    read_host_list,
    read_scores,
    verify_store,
    write_graph_bundle,
    write_host_list,
    write_scores,
)
from .synth import WorldConfig, build_world, default_good_core

__all__ = ["main", "build_parser", "run"]

#: Distinct exit codes for the failure classes a pipeline operator
#: scripts against (argparse itself uses 2 for usage errors).
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4
EXIT_AUDIT = 5
EXIT_INTERRUPTED = 130

_SCALES = {
    "small": WorldConfig.small,
    "medium": WorldConfig.medium,
    "large": WorldConfig.large,
}


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer.

    Guards the knobs where zero or a negative value is never meaningful
    (cache bounds, worker counts, walk counts, batch sizes) so a
    fat-fingered ``--workers 0`` fails at parse time with a usage error
    (exit code 2) instead of surfacing later as an obscure solver or
    multiprocessing failure.  Note argparse only applies ``type=`` to
    strings, so non-string defaults (``None``, ``0``) are unaffected.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (allowances where 0 is a
    legitimate choice)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive finite float (deadlines)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not np.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}"
        )
    return value


def _finite_float(text: str) -> float:
    """argparse type: a finite float (the Algorithm 2 gates, where NaN
    would silently gate out every host)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text}"
        )
    return value


def _config_for(scale: str, seed: int) -> WorldConfig:
    try:
        factory = _SCALES[scale]
    except KeyError:
        raise SystemExit(
            f"unknown scale {scale!r}; choose from {sorted(_SCALES)}"
        )
    return factory(seed)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    """Build a synthetic world and persist it."""
    config = _config_for(args.scale, args.seed)
    world = build_world(config)
    core = default_good_core(world)
    out = Path(args.out)
    labels = {
        int(i): ("spam" if world.spam_mask[i] else "good")
        for i in range(world.num_nodes)
    }
    write_graph_bundle(
        world.graph,
        out,
        labels=labels,
        metadata={
            "scale": args.scale,
            "seed": args.seed,
            "num_nodes": world.num_nodes,
            "num_edges": world.graph.num_edges,
            "core_size": int(len(core)),
        },
        compress=args.compress,
    )
    core_names = [world.graph.name_of(int(i)) for i in core]
    write_host_list(core_names, out / "core.hosts")
    print(
        f"wrote {world.num_nodes:,} hosts / {world.graph.num_edges:,} "
        f"edges and a {len(core):,}-host good core to {out}"
    )
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print graph statistics for a stored bundle."""
    graph, labels, metadata = read_graph_bundle(
        args.world, strict=not args.lenient
    )
    stats = graph.stats()
    print(f"hosts:        {stats.num_nodes:,}")
    print(f"edges:        {stats.num_edges:,}")
    print(f"no inlinks:   {stats.frac_no_inlinks:.1%}")
    print(f"no outlinks:  {stats.frac_no_outlinks:.1%}")
    print(f"isolated:     {stats.frac_isolated:.1%}")
    print(f"max indegree: {stats.max_indegree:,}")
    if labels is not None:
        spam = sum(1 for v in labels.values() if v == "spam")
        print(f"labeled spam: {spam:,} ({spam / stats.num_nodes:.1%})")
    if metadata:
        print(f"metadata:     {metadata}")
    return 0


def _parse_boundaries(text: str) -> List[int]:
    """argparse type: comma-separated non-decreasing shard boundaries."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"boundaries must be comma-separated integers, got {text!r}"
        )
    if len(values) < 2:
        raise argparse.ArgumentTypeError(
            "boundaries need at least two values (0,...,num_nodes)"
        )
    return values


def cmd_shard_partition(args: argparse.Namespace) -> int:
    """Partition a stored graph bundle into a sharded store."""
    graph, _labels, _metadata = read_graph_bundle(
        args.world, strict=not args.lenient
    )
    store = partition_graph(
        graph,
        args.out,
        num_shards=None if args.boundaries else args.shards,
        boundaries=args.boundaries,
        chunk_edges=args.chunk_edges,
    )
    print(
        f"partitioned {store.num_nodes:,} hosts / "
        f"{store.num_edges:,} edges into {store.num_shards} shard(s) "
        f"at {args.out}"
    )
    print(f"fingerprint: {store.structural_fingerprint()}")
    return EXIT_OK


def cmd_shard_inspect(args: argparse.Namespace) -> int:
    """Print a sharded store's manifest summary."""
    store = ShardedWebGraph.open(args.store, verify=False)
    if args.json:
        payload = {
            "directory": str(args.store),
            "num_nodes": store.num_nodes,
            "num_edges": store.num_edges,
            "num_shards": store.num_shards,
            "fingerprint": store.structural_fingerprint(),
            "shards": [
                store.shard_meta(k).as_dict()
                for k in range(store.num_shards)
            ],
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"store:        {args.store}")
    print(f"hosts:        {store.num_nodes:,}")
    print(f"edges:        {store.num_edges:,}")
    print(f"shards:       {store.num_shards}")
    print(f"fingerprint:  {store.structural_fingerprint()}")
    for k in range(store.num_shards):
        meta = store.shard_meta(k)
        print(
            f"  shard {k:>4}: [{meta.start:>9,}, {meta.stop:>9,})  "
            f"{meta.num_edges:>10,} out / {meta.num_in_edges:>10,} in  "
            f"digest {meta.digest:016x}  {meta.file}"
        )
    return EXIT_OK


def cmd_shard_verify(args: argparse.Namespace) -> int:
    """Re-check a sharded store's digests and structure end to end."""
    report = verify_store(args.store, deep=args.deep)
    if args.json:
        print(json.dumps(report, indent=2))
        return EXIT_OK if report["ok"] else EXIT_DATA
    mode = "deep" if args.deep else "shallow"
    if report["ok"]:
        print(
            f"ok: {report['num_nodes']:,} hosts / "
            f"{report['num_edges']:,} edges in "
            f"{len(report['shards'])} shard(s) ({mode} check)"
        )
        print(f"fingerprint: {report['fingerprint']}")
        return EXIT_OK
    for problem in report["problems"]:
        print(f"repro-spam: {problem}", file=sys.stderr)
    print(
        f"store at {args.store} FAILED verification "
        f"({len(report['problems'])} problem(s), {mode} check)",
        file=sys.stderr,
    )
    return EXIT_DATA


def _core_ids(graph, core_path: Path) -> np.ndarray:
    """Node ids of the core host list, resolved as ``serve`` resolves
    them (an unnamed graph's hosts are ``node<i>``); a missing host
    raises :class:`~repro.errors.DeltaError` (exit 3)."""
    from .serve.epoch import core_nodes

    return core_nodes(graph, read_host_list(core_path))


def cmd_estimate(args: argparse.Namespace) -> int:
    """Compute PageRank, core PageRank and mass estimates."""
    from .perf import PagerankEngine

    graph, _, _ = read_graph_bundle(args.world, strict=not args.lenient)
    core_path = (
        Path(args.core) if args.core else Path(args.world) / "core.hosts"
    )
    core = _core_ids(graph, core_path)
    gamma = None if args.gamma <= 0 else args.gamma
    # one batched solve of p and p′; a solve that does not converge
    # raises ConvergenceError (exit 4) before anything is written
    estimates = estimate_spam_mass(
        graph, core, gamma=gamma, engine=PagerankEngine()
    )
    if args.mc_walks > 0:
        from .perf import pagerank_montecarlo_parallel

        mc = pagerank_montecarlo_parallel(
            graph,
            num_walks=args.mc_walks,
            workers=args.workers,
            seed=args.seed,
        )
        deviation = float(np.abs(mc.scores - estimates.pagerank).sum())
        print(
            f"Monte-Carlo cross-check ({args.mc_walks:,} walks, "
            f"workers={args.workers or 1}): L1 deviation from the "
            f"linear PageRank {deviation:.3e}"
        )
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_scores(estimates.pagerank, f"{prefix}.pagerank.scores")
    write_scores(estimates.core_pagerank, f"{prefix}.core.scores")
    write_scores(estimates.relative, f"{prefix}.relative.scores")
    if args.checkpoint_dir is not None:
        # persist the converged pair so a later `repro-spam update` can
        # warm-start the incremental engine instead of solving cold
        from .serve.ingest import save_estimates

        save_estimates(
            args.checkpoint_dir,
            estimates,
            fingerprint=graph.structural_fingerprint(),
        )
        print(f"saved converged solution to {args.checkpoint_dir}")
    eligible = int(
        (estimates.scaled_pagerank() >= args.rho).sum()
    )
    print(
        f"estimated mass for {graph.num_nodes:,} hosts "
        f"(core {len(core):,}, gamma {gamma}); "
        f"{eligible:,} hosts pass scaled PageRank >= {args.rho:g}"
    )
    print(f"wrote {prefix}.{{pagerank,core,relative}}.scores")
    return EXIT_OK


def cmd_update(args: argparse.Namespace) -> int:
    """Incrementally re-estimate mass after an edge delta.

    Consumes the graph a previous ``estimate --checkpoint-dir`` run was
    computed on, the converged solution it saved, and an edge-delta
    file; applies the delta, warm-starts the push solver at the stored
    solution (damping and γ come from it), and writes the same three
    score files ``estimate`` would have produced for the mutated graph
    — typically orders of magnitude faster than a cold re-solve (see
    ``docs/perf.md``).  A warm solve that raises falls back once to a
    cold solve of the mutated graph.
    """
    from .graph import compose_applications, read_delta
    from .perf import PagerankEngine
    from .runtime.checkpoint import load_solution
    from .serve.ingest import reestimate, save_estimates, snapshot_estimates

    graph, labels, metadata = read_graph_bundle(
        args.world, strict=not args.lenient
    )
    core_path = (
        Path(args.core) if args.core else Path(args.world) / "core.hosts"
    )
    core = _core_ids(graph, core_path)
    deltas = [read_delta(path) for path in args.delta]
    snapshot = load_solution(
        args.checkpoint_dir, fingerprint=graph.structural_fingerprint()
    )
    applications = []
    tip = graph
    for delta in deltas:
        app = delta.apply(tip)
        applications.append(app)
        tip = app.after
    # the chained files compose into one splice and one warm solve
    application = compose_applications(applications)
    estimates, degraded = reestimate(
        application,
        core,
        snapshot_estimates(snapshot),
        engine=PagerankEngine(),
    )
    if degraded:
        print(
            "warm push update failed; degraded to a cold re-solve "
            "of the mutated graph (same scores, slower path)"
        )
    delta = application.delta
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_scores(estimates.pagerank, f"{prefix}.pagerank.scores")
    write_scores(estimates.core_pagerank, f"{prefix}.core.scores")
    write_scores(estimates.relative, f"{prefix}.relative.scores")
    save_estimates(
        args.checkpoint_dir,
        estimates,
        fingerprint=application.after.structural_fingerprint(),
    )
    if args.write_world:
        out_world = Path(args.write_world)
        write_graph_bundle(
            application.after,
            out_world,
            labels=labels,
            metadata=metadata,
        )
        # carry the good core over so the mutated directory is a
        # complete world (estimate/update default --core to it)
        write_host_list(
            [application.after.name_of(int(i)) for i in core],
            out_world / "core.hosts",
        )
        print(f"wrote the mutated graph bundle to {out_world}")
    eligible = int((estimates.scaled_pagerank() >= args.rho).sum())
    print(
        f"applied {delta.num_insertions:,}+/{delta.num_deletions:,}- net "
        f"edge delta ({len(deltas)} file(s)) "
        f"touching {len(application.touched_nodes):,} hosts; "
        f"{eligible:,} hosts pass scaled PageRank >= {args.rho:g}"
    )
    print(f"wrote {prefix}.{{pagerank,core,relative}}.scores")
    print(f"saved updated solution to {args.checkpoint_dir}")
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on scoring daemon on a unix socket.

    Loads the world bundle and the converged solution a previous
    ``estimate --checkpoint-dir`` saved, replays any write-ahead log
    left by a crashed instance, and serves spam-mass queries while
    ingesting edge deltas in the background.  Runs until SIGTERM/SIGINT
    (clean drain) or ``--max-requests``.  See docs/serving.md.
    """
    from .serve import DaemonConfig, ScoringDaemon, ScoringServer

    config = DaemonConfig(
        rho=args.rho,
        tau=args.tau,
        max_staleness=args.max_staleness,
        batch_deltas=args.batch_deltas,
    )
    daemon = ScoringDaemon.load(
        args.world,
        args.checkpoint_dir,
        core_path=args.core,
        wal_dir=args.wal_dir,
        config=config,
    )
    server = ScoringServer(
        daemon,
        args.socket,
        max_queue=args.max_queue,
        request_timeout=args.request_timeout,
        max_requests=args.max_requests,
    )
    server.install_signal_handlers()
    server.start()
    epoch = daemon.store.current
    print(
        f"serving {epoch.graph.num_nodes:,} hosts on {args.socket} "
        f"(pid {os.getpid()}); epoch {epoch.seq}, "
        f"staleness {daemon.staleness}; SIGTERM drains"
    )
    server.wait()
    stats = server.stats()
    print(
        f"drained after {stats['requests']:,} requests "
        f"({stats['shed']:,} shed, {stats['applies']:,} deltas applied, "
        f"epoch {stats['epoch']})"
    )
    return EXIT_OK


def cmd_stream_synth(args: argparse.Namespace) -> int:
    """Synthesize a timestamped crawl-event stream over a world."""
    from .synth import ATTACK_KINDS, synthesize_stream
    from .synth.crawler import attacks_path

    if args.attacks.strip().lower() == "none":
        kinds: tuple = ()
    else:
        kinds = tuple(
            k.strip() for k in args.attacks.split(",") if k.strip()
        )
        unknown = [k for k in kinds if k not in ATTACK_KINDS]
        if unknown:
            print(
                "repro-spam stream synth: error: unknown attack "
                f"kind(s) {', '.join(unknown)}; choose from "
                f"{', '.join(ATTACK_KINDS)} or 'none'",
                file=sys.stderr,
            )
            return EXIT_USAGE
    graph, labels, _ = read_graph_bundle(
        args.world, strict=not args.lenient
    )
    core_path = (
        Path(args.core) if args.core else Path(args.world) / "core.hosts"
    )
    core = _core_ids(graph, core_path) if core_path.exists() else None
    spam_mask = None
    if labels:
        spam_mask = np.zeros(graph.num_nodes, dtype=bool)
        for node, label in labels.items():
            if label == "spam":
                spam_mask[int(node)] = True
    stream = synthesize_stream(
        graph,
        spam_mask=spam_mask,
        core=core,
        seed=args.seed,
        num_events=args.events,
        attacks=kinds,
        boosters_per_attack=args.boosters,
        attack_stride=args.stride,
        ts_increment=args.ts_increment,
    )
    out = stream.write(args.out)
    print(
        f"wrote {len(stream.events):,} crawl events over "
        f"{graph.num_nodes:,} hosts to {out}"
    )
    if stream.attacks:
        print(f"scripted attacks (ground truth in {attacks_path(out)}):")
        for attack in stream.attacks:
            print(
                f"  {attack.name:<24} {attack.kind:<18} "
                f"target {graph.name_of(int(attack.target))} "
                f"onset id {attack.onset_id}"
            )
    return EXIT_OK


def cmd_stream_ingest(args: argparse.Namespace) -> int:
    """Ingest a crawl-event stream into a served scoring state.

    Loads the daemon exactly like ``serve`` (bundle + converged
    snapshot + WAL replay) but drives it synchronously from a stream
    file instead of a socket: events are validated, windowed,
    compacted and applied through the WAL, with malformed/late/poison
    records quarantined to the DLQ.  Each window's WAL record carries
    the stream position, so re-running the command on the same
    checkpoint resumes where the last committed window left off: a
    crashed or interrupted ingest just gets re-invoked.
    """
    from .serve import (
        DaemonConfig,
        ScoringDaemon,
        StreamConfig,
        StreamIngestor,
    )

    events_path = Path(args.events)
    probe = None
    if args.probe:
        from .eval import LatencyProbe
        from .synth.crawler import TemporalAttack, attacks_path

        sidecar = attacks_path(events_path)
        if not sidecar.exists():
            print(
                "repro-spam stream ingest: error: --probe needs the "
                f"stream's attack sidecar ({sidecar.name}, written by "
                "'stream synth')",
                file=sys.stderr,
            )
            return EXIT_USAGE
        # only the sidecar is trusted — the events file itself may be
        # arbitrarily mangled (that is what the DLQ is for)
        data = json.loads(sidecar.read_text(encoding="utf-8"))
        attacks = [
            TemporalAttack.from_dict(a) for a in data.get("attacks", [])
        ]
        probe = LatencyProbe(attacks, rho=args.rho, tau=args.tau)
    daemon = ScoringDaemon.load(
        args.world,
        args.checkpoint_dir,
        core_path=args.core,
        wal_dir=args.wal_dir,
        config=DaemonConfig(rho=args.rho, tau=args.tau),
    )
    dlq_dir = (
        Path(args.dlq_dir)
        if args.dlq_dir
        else Path(args.checkpoint_dir) / "stream"
    )
    ingestor = StreamIngestor(
        daemon,
        dlq_dir,
        config=StreamConfig(
            window=args.window, max_lateness=args.max_lateness
        ),
        on_commit=probe.observe if probe is not None else None,
    )
    ingestor.ingest_file(events_path)
    ingestor.flush()
    stats = ingestor.stats()
    if args.json:
        payload = {"stats": stats}
        if probe is not None:
            payload["attacks"] = probe.report()
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(
        f"consumed {stats['events_consumed']:,} events: "
        f"{stats['windows_committed']:,} windows committed, "
        f"{stats['windows_quarantined']:,} quarantined; "
        f"{stats['duplicates']:,} duplicates skipped, "
        f"{stats['late']:,} late + {stats['malformed']:,} malformed "
        f"-> DLQ ({stats['dlq_entries']:,} entries)"
    )
    print(
        f"serving epoch {stats['epoch']} "
        f"(DLQ {dlq_dir}, resume offset {ingestor.resume_offset})"
    )
    if probe is not None:
        print("detection latency (events from onset to first catch):")
        for verdict in probe.report():
            if verdict["caught"]:
                outcome = (
                    f"caught after {verdict['events_until_caught']} "
                    f"events ({verdict['windows_until_caught']} windows)"
                )
            else:
                outcome = "NOT caught"
            print(
                f"  {verdict['name']:<24} {verdict['kind']:<18} "
                f"{outcome}"
            )
    return EXIT_OK


def cmd_stream_dlq(args: argparse.Namespace) -> int:
    """Inspect a stream ingestor's dead-letter queue."""
    from .serve import DeadLetterQueue

    dlq = DeadLetterQueue(args.dlq_dir)
    entries = dlq.entries()
    if args.json:
        print(json.dumps(entries, indent=2))
        return EXIT_OK
    if not entries:
        print(f"dead-letter queue is empty ({dlq.path})")
        return EXIT_OK
    shown = entries if args.limit <= 0 else entries[-args.limit:]
    print(f"{len(entries)} quarantined entries in {dlq.path}:")
    for entry in shown:
        scope = ""
        if "window" in entry:
            lo, hi = entry["window"]
            count = len(entry.get("ids", ()))
            scope = f" window [{lo},{hi}) ({count} events)"
        elif "offset" in entry:
            scope = f" at offset {entry['offset']}"
        detail = entry.get("detail", "")
        if detail:
            detail = f": {detail}"
        print(f"  #{entry.get('n', '?')} {entry['reason']}{scope}{detail}")
    if len(entries) > len(shown):
        print(f"  ... and {len(entries) - len(shown)} older entries")
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    """Apply Algorithm 2 thresholds to stored scores."""
    strict = not args.lenient
    graph, labels, _ = read_graph_bundle(args.world, strict=strict)
    prefix = args.scores_prefix
    pagerank_scores = read_scores(f"{prefix}.pagerank.scores", strict=strict)
    relative = read_scores(f"{prefix}.relative.scores", strict=strict)
    if len(pagerank_scores) != graph.num_nodes:
        raise SystemExit("score files do not match the graph size")
    scaled = scale_scores(pagerank_scores, graph.num_nodes)
    candidate = (scaled >= args.rho) & (relative >= args.tau)
    candidates = np.flatnonzero(candidate)
    order = candidates[np.argsort(-relative[candidates], kind="stable")]
    print(
        f"{len(order)} spam candidates at tau={args.tau:g}, "
        f"rho={args.rho:g}:"
    )
    shown = order if args.limit <= 0 else order[: args.limit]
    for node in shown:
        node = int(node)
        truth = ""
        if labels is not None:
            truth = f"  [{labels.get(node, '?')}]"
        print(
            f"  {graph.name_of(node):<42} m~={relative[node]:.3f} "
            f"p={scaled[node]:.1f}{truth}"
        )
    if len(order) > len(shown):
        print(f"  ... and {len(order) - len(shown)} more")
    if labels is not None and len(order):
        spam_hits = sum(
            1 for node in order if labels.get(int(node)) == "spam"
        )
        print(f"precision against stored labels: {spam_hits / len(order):.3f}")
    if args.explain > 0 and len(order):
        from .core.explain import explain_mass

        core_path = Path(args.world) / "core.hosts"
        core = (
            _core_ids(graph, core_path) if core_path.exists() else []
        )
        print("\nreview sheets for the top candidates:")
        for node in order[: args.explain]:
            explanation = explain_mass(
                graph, int(node), core, suspected_spam=order
            )
            print()
            print(explanation.render(graph))
    return 0


def cmd_audit_core(args: argparse.Namespace) -> int:
    """Audit a stored good core for Section 4.4-style anomalies."""
    from .eval.audit import audit_core
    from .perf import PagerankEngine

    strict = not args.lenient
    graph, labels, _ = read_graph_bundle(args.world, strict=strict)
    core_path = (
        Path(args.core) if args.core else Path(args.world) / "core.hosts"
    )
    core = _core_ids(graph, core_path)
    gamma = None if args.gamma <= 0 else args.gamma
    estimates = estimate_spam_mass(
        graph, core, gamma=gamma, engine=PagerankEngine()
    )
    report = audit_core(
        labels,
        estimates,
        core,
        relative_mass_threshold=args.threshold,
    )
    print(report.summary())
    for finding in report.findings:
        name = graph.name_of(finding.node)
        print(f"  {name:<42} {finding.describe()}")
    if report.clean:
        return EXIT_OK
    if args.repaired_core_out:
        out_path = Path(args.repaired_core_out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_host_list(
            [graph.name_of(int(n)) for n in report.repaired_core],
            out_path,
        )
        print(f"wrote repaired core to {out_path}")
    return EXIT_AUDIT


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Re-run a paper experiment by its DESIGN.md id."""
    from .eval.experiment import ReproductionContext
    from .eval.registry import (
        is_contextual,
        list_experiments,
        run_experiment,
    )
    from .perf import PagerankEngine

    config = _config_for(args.scale, args.seed)
    requested = args.experiment.upper()
    known = list_experiments()
    if requested == "ALL":
        ids: List[str] = known
    elif requested in known:
        ids = [requested]
    else:
        raise SystemExit(
            f"unknown experiment {args.experiment!r}; known: "
            f"{', '.join(known)} or 'all'"
        )

    engine = PagerankEngine(args.cache_size)
    ctx = None
    results = []
    for exp_id in ids:
        if is_contextual(exp_id) and ctx is None:
            print(f"building the {args.scale} context ...", flush=True)
            ctx = ReproductionContext.build(config, engine=engine)
        result = run_experiment(exp_id, ctx=ctx, config=config)
        results.append(result)
        print(result.to_ascii())
        print()
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        sections = [
            "# Reproduced experiments",
            "",
            f"Scale: {args.scale}, seed: {args.seed}.  Generated by "
            "`repro-spam reproduce`.",
            "",
        ]
        sections.extend(
            result.to_markdown() + "\n" for result in results
        )
        out_path.write_text("\n".join(sections), encoding="utf-8")
        print(f"wrote Markdown report to {out_path}")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-spam`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-spam",
        description="Link-spam detection based on mass estimation "
        "(Gyongyi et al., VLDB 2006) — reproduction pipeline.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--traceback",
        action="store_true",
        help="print full Python tracebacks instead of one-line errors",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="enable telemetry and write the span/event stream as JSON "
        "lines to FILE (a <FILE>.manifest.json summary is written next "
        "to it); see docs/observability.md",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="enable telemetry and write the final metrics snapshot "
        "(counters, gauges, histograms) as JSON to FILE",
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help="force telemetry off even when --trace-out/--metrics-out "
        "are given (the default without those flags is already off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate", help="build and persist a synthetic world"
    )
    p_gen.add_argument("--scale", default="small", choices=sorted(_SCALES))
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument(
        "--compress", action="store_true", help="gzip the edge list"
    )
    p_gen.set_defaults(func=cmd_generate)

    p_stats = sub.add_parser("stats", help="print graph statistics")
    p_stats.add_argument("--world", required=True, help="bundle directory")
    p_stats.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-warn on malformed input lines instead of failing",
    )
    p_stats.set_defaults(func=cmd_stats)

    p_shard = sub.add_parser(
        "shard",
        help="partition, inspect and verify out-of-core shard stores",
        description="Block-partitioned graph stores (docs/scale.md): "
        "partition an in-memory bundle into per-shard files, inspect a "
        "store's manifest, or re-verify its integrity digests.",
    )
    shard_sub = p_shard.add_subparsers(dest="shard_action", required=True)

    p_part = shard_sub.add_parser(
        "partition", help="split a graph bundle into a sharded store"
    )
    p_part.add_argument("--world", required=True, help="bundle directory")
    p_part.add_argument("--out", required=True, help="store directory")
    p_part.add_argument(
        "--shards",
        type=_positive_int,
        default=8,
        help="number of contiguous node-range shards (default 8)",
    )
    p_part.add_argument(
        "--boundaries",
        type=_parse_boundaries,
        default=None,
        metavar="B0,B1,...",
        help="explicit shard boundaries (overrides --shards); must "
        "start at 0 and end at the node count",
    )
    p_part.add_argument(
        "--chunk-edges",
        type=_positive_int,
        default=1 << 20,
        help="edges streamed per chunk during partitioning",
    )
    p_part.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-warn on malformed bundle lines instead of failing",
    )
    p_part.set_defaults(func=cmd_shard_partition)

    p_insp = shard_sub.add_parser(
        "inspect", help="print a store's manifest summary"
    )
    p_insp.add_argument("--store", required=True, help="store directory")
    p_insp.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_insp.set_defaults(func=cmd_shard_inspect)

    p_ver = shard_sub.add_parser(
        "verify",
        help="re-check shard digests against the manifest (exit 3 on "
        "corruption)",
    )
    p_ver.add_argument("--store", required=True, help="store directory")
    p_ver.add_argument(
        "--deep",
        action="store_true",
        help="also cross-check transpose arrays against the out-CSRs",
    )
    p_ver.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_ver.set_defaults(func=cmd_shard_verify)

    p_est = sub.add_parser(
        "estimate", help="compute PageRank and mass estimates"
    )
    p_est.add_argument("--world", required=True)
    p_est.add_argument(
        "--core",
        default=None,
        help="core host list (default: <world>/core.hosts)",
    )
    p_est.add_argument(
        "--gamma",
        type=float,
        default=0.85,
        help="good-fraction scaling; <= 0 for the unscaled core jump",
    )
    p_est.add_argument("--rho", type=float, default=10.0)
    p_est.add_argument(
        "--out-prefix", required=True, help="prefix for the score files"
    )
    p_est.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-warn on malformed input lines instead of failing",
    )
    p_est.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="process count for Monte-Carlo sampling (--mc-walks); "
        "results are identical for any worker count",
    )
    p_est.add_argument(
        "--mc-walks",
        type=_positive_int,
        default=0,
        metavar="N",
        help="cross-check the linear PageRank against an N-walk "
        "Monte-Carlo estimate (default off); parallelized over --workers",
    )
    p_est.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed for the Monte-Carlo cross-check",
    )
    p_est.add_argument(
        "--checkpoint-dir",
        default=None,
        help="also save the converged p and p' as <dir>/solution.npz "
        "(atomic write-rename), the state 'update', 'serve' and "
        "'stream ingest' start from",
    )
    p_est.set_defaults(func=cmd_estimate)

    p_upd = sub.add_parser(
        "update",
        help="incrementally re-estimate mass after an edge delta",
    )
    p_upd.add_argument(
        "--world",
        required=True,
        help="bundle directory of the graph the stored solution was "
        "computed on (the *pre*-delta graph)",
    )
    p_upd.add_argument(
        "--delta",
        required=True,
        action="append",
        help="edge-delta file ('+ u v' / '- u v' lines; see "
        "docs/cli.md); repeatable — the files chain in order, each "
        "applying to the graph the previous one produced, and compose "
        "into one splice and one warm solve",
    )
    p_upd.add_argument(
        "--checkpoint-dir",
        required=True,
        help="directory a previous 'estimate --checkpoint-dir' saved "
        "its converged solution to; updated in place on success",
    )
    p_upd.add_argument(
        "--core",
        default=None,
        help="core host list (default: <world>/core.hosts)",
    )
    p_upd.add_argument("--rho", type=float, default=10.0)
    p_upd.add_argument(
        "--out-prefix", required=True, help="prefix for the score files"
    )
    p_upd.add_argument(
        "--write-world",
        default=None,
        metavar="DIR",
        help="also write the mutated graph as a bundle (labels and "
        "metadata carried over) so 'detect' can run against it",
    )
    p_upd.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-warn on malformed input lines instead of failing",
    )
    p_upd.set_defaults(func=cmd_update)

    p_srv = sub.add_parser(
        "serve",
        help="run the always-on scoring daemon on a unix socket",
    )
    p_srv.add_argument(
        "--world",
        required=True,
        help="bundle directory of the graph the stored solution was "
        "computed on",
    )
    p_srv.add_argument(
        "--checkpoint-dir",
        required=True,
        help="directory holding the converged solution from "
        "'estimate --checkpoint-dir'; updated in place as deltas are "
        "applied",
    )
    p_srv.add_argument(
        "--core",
        default=None,
        help="core host list (default: <world>/core.hosts)",
    )
    p_srv.add_argument(
        "--socket",
        required=True,
        help="unix-domain socket path to listen on (NDJSON protocol; "
        "see docs/serving.md)",
    )
    p_srv.add_argument(
        "--wal-dir",
        default=None,
        help="write-ahead log directory for accepted deltas "
        "(default: <checkpoint-dir>/wal)",
    )
    p_srv.add_argument(
        "--max-queue",
        type=_positive_int,
        default=64,
        help="bound on admitted-but-unfinished requests across all "
        "connections; the next one is shed with an 'overloaded' "
        "rejection (default 64)",
    )
    p_srv.add_argument(
        "--request-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline from admission; an 'explain' that "
        "waited past it for the slow-lane worker is dropped at dequeue "
        "(other ops are answered on the connection's reader as soon as "
        "they are admitted; default: none)",
    )
    p_srv.add_argument(
        "--max-staleness",
        type=_positive_int,
        default=8,
        metavar="N",
        help="accepted-but-unapplied delta batches before ingest "
        "degrades to stale-reads-only (default 8)",
    )
    p_srv.add_argument(
        "--batch-deltas",
        type=_positive_int,
        default=1,
        metavar="N",
        help="coalesce up to N queued deltas into one composed apply "
        "(one warm solve, one epoch; default 1 = apply one at a time)",
    )
    p_srv.add_argument(
        "--max-requests",
        type=_positive_int,
        default=None,
        metavar="N",
        help="drain after N processed requests (benchmark/soak "
        "plumbing; default: run until signalled)",
    )
    p_srv.add_argument("--rho", type=_finite_float, default=10.0)
    p_srv.add_argument("--tau", type=_finite_float, default=0.98)
    p_srv.set_defaults(func=cmd_serve)

    p_stream = sub.add_parser(
        "stream",
        help="streaming crawl ingestion: synthesize, ingest, inspect",
        description="Fault-tolerant streaming crawl ingestion "
        "(docs/streaming.md): synthesize timestamped edge-event "
        "streams with scripted temporal attacks, feed them through "
        "the windowed WAL-backed ingestor, and inspect the "
        "dead-letter queue of quarantined records.",
    )
    stream_sub = p_stream.add_subparsers(
        dest="stream_action", required=True
    )

    p_ssyn = stream_sub.add_parser(
        "synth",
        help="synthesize a timestamped crawl-event stream over a world",
    )
    p_ssyn.add_argument("--world", required=True, help="bundle directory")
    p_ssyn.add_argument(
        "--out", required=True, help="output stream file (JSONL)"
    )
    p_ssyn.add_argument(
        "--core",
        default=None,
        help="core host list for the stale-core script "
        "(default: <world>/core.hosts when present)",
    )
    p_ssyn.add_argument("--seed", type=int, default=0)
    p_ssyn.add_argument(
        "--events",
        type=_positive_int,
        default=1500,
        metavar="N",
        help="background churn events to emit (default 1500)",
    )
    p_ssyn.add_argument(
        "--attacks",
        default="expired-takeover,gradual-farm,stale-core",
        metavar="KINDS",
        help="comma-separated temporal attack scripts to interleave, "
        "or 'none' (default: all three)",
    )
    p_ssyn.add_argument(
        "--boosters",
        type=_positive_int,
        default=30,
        metavar="N",
        help="dormant hosts each attack claims as boosters (default 30; "
        "stale-core claims 2N)",
    )
    p_ssyn.add_argument(
        "--stride",
        type=_positive_int,
        default=4,
        metavar="N",
        help="churn events between consecutive attack steps (default 4)",
    )
    p_ssyn.add_argument(
        "--ts-increment",
        type=_positive_int,
        default=2,
        metavar="N",
        help="event-time ticks between consecutive events (default 2)",
    )
    p_ssyn.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-warn on malformed bundle lines instead of failing",
    )
    p_ssyn.set_defaults(func=cmd_stream_synth)

    p_sing = stream_sub.add_parser(
        "ingest",
        help="feed a stream file through the windowed WAL-backed "
        "ingestor",
    )
    p_sing.add_argument("--world", required=True, help="bundle directory")
    p_sing.add_argument(
        "--checkpoint-dir",
        required=True,
        help="directory holding the converged solution from "
        "'estimate --checkpoint-dir'; updated in place as windows "
        "are applied",
    )
    p_sing.add_argument(
        "--events", required=True, help="stream file (JSONL) to ingest"
    )
    p_sing.add_argument(
        "--core",
        default=None,
        help="core host list (default: <world>/core.hosts)",
    )
    p_sing.add_argument(
        "--dlq-dir",
        default=None,
        help="dead-letter queue directory for quarantined records "
        "(default: <checkpoint-dir>/stream)",
    )
    p_sing.add_argument(
        "--wal-dir",
        default=None,
        help="write-ahead log directory "
        "(default: <checkpoint-dir>/wal)",
    )
    p_sing.add_argument(
        "--window",
        type=_positive_int,
        default=16,
        metavar="TICKS",
        help="event-time window size (default 16); each sealed "
        "window is one apply, so a wider window coalesces more churn "
        "into one warm solve",
    )
    p_sing.add_argument(
        "--max-lateness",
        type=_nonnegative_int,
        default=8,
        metavar="TICKS",
        help="out-of-order allowance behind the max event time seen; "
        "older events are dead-lettered as 'late' (default 8)",
    )
    p_sing.add_argument("--rho", type=_finite_float, default=10.0)
    p_sing.add_argument("--tau", type=_finite_float, default=0.98)
    p_sing.add_argument(
        "--probe",
        action="store_true",
        help="report detection latency against the stream's "
        ".attacks.json ground-truth sidecar (gates: --rho/--tau)",
    )
    p_sing.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_sing.set_defaults(func=cmd_stream_ingest)

    p_sdlq = stream_sub.add_parser(
        "dlq", help="list a stream ingestor's dead-letter queue"
    )
    p_sdlq.add_argument(
        "--dlq-dir",
        required=True,
        help="dead-letter queue directory (the ingest --dlq-dir, by "
        "default <checkpoint-dir>/stream)",
    )
    p_sdlq.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="newest entries to print (default 20; <= 0 for all)",
    )
    p_sdlq.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_sdlq.set_defaults(func=cmd_stream_dlq)

    p_det = sub.add_parser("detect", help="apply Algorithm 2 thresholds")
    p_det.add_argument("--world", required=True)
    p_det.add_argument(
        "--scores-prefix",
        required=True,
        help="prefix used with 'estimate'",
    )
    p_det.add_argument("--tau", type=float, default=0.98)
    p_det.add_argument("--rho", type=float, default=10.0)
    p_det.add_argument(
        "--limit", type=int, default=25, help="max candidates to print"
    )
    p_det.add_argument(
        "--explain",
        type=int,
        default=0,
        help="print contribution review sheets for the top N candidates",
    )
    p_det.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-warn on malformed input lines instead of failing",
    )
    p_det.set_defaults(func=cmd_detect)

    p_aud = sub.add_parser(
        "audit-core",
        help="audit a stored good core for anomalies (exit 5 if dirty)",
    )
    p_aud.add_argument("--world", required=True, help="bundle directory")
    p_aud.add_argument(
        "--core",
        default=None,
        help="core host list (default: <world>/core.hosts)",
    )
    p_aud.add_argument(
        "--gamma",
        type=float,
        default=0.85,
        help="good-fraction scaling; <= 0 for the unscaled core jump",
    )
    p_aud.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        metavar="M",
        help="flag core members with relative mass >= M even without a "
        "spam label (default 0.5)",
    )
    p_aud.add_argument(
        "--repaired-core-out",
        default=None,
        metavar="FILE",
        help="write the repaired core (flagged members removed) as a "
        "host list",
    )
    p_aud.add_argument(
        "--lenient",
        action="store_true",
        help="skip-and-warn on malformed input lines instead of failing",
    )
    p_aud.set_defaults(func=cmd_audit_core)

    p_rep = sub.add_parser(
        "reproduce", help="re-run a paper experiment by id"
    )
    p_rep.add_argument(
        "--experiment",
        default="all",
        help="DESIGN.md experiment id (T1, F4, A1, FW1, ...) or 'all'",
    )
    p_rep.add_argument("--scale", default="small", choices=sorted(_SCALES))
    p_rep.add_argument("--seed", type=int, default=7)
    p_rep.add_argument(
        "--cache-size",
        type=_positive_int,
        default=8,
        help="bound of the operator LRU cache used by the solves",
    )
    p_rep.add_argument(
        "--out",
        default=None,
        help="also write the reproduced tables as a Markdown report",
    )
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def run(args: argparse.Namespace) -> int:
    """Dispatch a parsed namespace, mapping failures to exit codes.

    Each user-facing failure class prints a single line to stderr and
    returns its own code, so operators can script against the pipeline
    (retry on 3, alert on 4, ...).  ``--traceback`` re-raises for
    debugging.
    """
    try:
        return args.func(args)
    except KeyboardInterrupt:
        if args.traceback:
            raise
        print("repro-spam: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ConvergenceError as exc:
        if args.traceback:
            raise
        print(f"repro-spam: solver did not converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (
        FileNotFoundError,
        GraphFormatError,
        GraphIOError,
        DeltaError,
        CheckpointError,
    ) as exc:
        # GraphFormatError covers TruncatedFileError, GraphIOError the
        # shard-store family; these are all "your input files are
        # missing or broken"
        if args.traceback:
            raise
        print(f"repro-spam: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (argparse.ArgumentTypeError, ValueError, ReproError) as exc:
        if args.traceback:
            raise
        print(f"repro-spam: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _run_traced(args: argparse.Namespace, argv: Sequence[str]) -> int:
    """Run one command under an enabled telemetry, then persist it.

    The whole command executes inside a ``cli:<command>`` root span; on
    the way out the trace is flushed, the manifest is written next to it
    and the metrics snapshot (if requested) is dumped as JSON.  Telemetry
    failures never mask the command's own exit code.
    """
    import json

    from .obs import (
        JsonlSink,
        Telemetry,
        manifest_path_for,
        set_telemetry,
        write_manifest,
    )

    trace_path: Optional[Path] = None
    sink = None
    if args.trace_out:
        trace_path = Path(args.trace_out)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        sink = JsonlSink(trace_path)
    telemetry = Telemetry(sink=sink)
    previous = set_telemetry(telemetry)
    code = EXIT_ERROR
    try:
        with telemetry.span(f"cli:{args.command}"):
            code = run(args)
        return code
    finally:
        set_telemetry(previous)
        if trace_path is not None:
            write_manifest(
                telemetry,
                manifest_path_for(trace_path),
                argv=list(argv),
                exit_code=code,
                trace_path=trace_path,
            )
        if args.metrics_out:
            metrics_path = Path(args.metrics_out)
            metrics_path.parent.mkdir(parents=True, exist_ok=True)
            metrics_path.write_text(
                json.dumps(telemetry.snapshot(), indent=2) + "\n",
                encoding="utf-8",
            )
        telemetry.close()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-spam`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    wants_telemetry = (
        not args.no_telemetry
        and (args.trace_out is not None or args.metrics_out is not None)
    )
    if not wants_telemetry:
        return run(args)
    return _run_traced(args, argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
