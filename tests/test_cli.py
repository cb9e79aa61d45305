"""End-to-end tests of the ``repro-spam`` command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graph import read_graph_bundle, read_host_list, read_scores


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    """A generated world bundle shared by the CLI tests."""
    out = tmp_path_factory.mktemp("world")
    code = main(
        ["generate", "--scale", "small", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    return out


def test_generate_writes_bundle(world_dir):
    graph, labels, metadata = read_graph_bundle(world_dir)
    assert graph.num_nodes > 1_000
    assert labels is not None and "spam" in labels.values()
    assert metadata["scale"] == "small"
    core = read_host_list(world_dir / "core.hosts")
    assert len(core) > 50
    # core host names resolve back to graph nodes
    assert set(core) <= set(graph.names)


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["generate", "--scale", "small", "--seed", "5", "--out", str(a)])
    main(["generate", "--scale", "small", "--seed", "5", "--out", str(b)])
    assert (a / "graph.edges").read_text() == (b / "graph.edges").read_text()
    assert (a / "core.hosts").read_text() == (b / "core.hosts").read_text()


def test_stats(world_dir, capsys):
    assert main(["stats", "--world", str(world_dir)]) == 0
    out = capsys.readouterr().out
    assert "hosts:" in out
    assert "labeled spam:" in out


def test_estimate_and_detect(world_dir, tmp_path, capsys):
    prefix = tmp_path / "scores" / "run1"
    code = main(
        [
            "estimate",
            "--world",
            str(world_dir),
            "--out-prefix",
            str(prefix),
        ]
    )
    assert code == 0
    relative = read_scores(f"{prefix}.relative.scores")
    pagerank_scores = read_scores(f"{prefix}.pagerank.scores")
    graph, labels, _ = read_graph_bundle(world_dir)
    assert len(relative) == graph.num_nodes
    assert relative.max() <= 1.0 + 1e-9
    assert pagerank_scores.sum() <= 1.0

    capsys.readouterr()
    code = main(
        [
            "detect",
            "--world",
            str(world_dir),
            "--scores-prefix",
            str(prefix),
            "--tau",
            "0.98",
            "--limit",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "spam candidates at tau=0.98" in out
    assert "precision against stored labels" in out
    precision = float(out.strip().rsplit(" ", 1)[-1])
    assert precision > 0.4


def test_detect_respects_thresholds(world_dir, tmp_path, capsys):
    prefix = tmp_path / "s" / "r"
    main(
        ["estimate", "--world", str(world_dir), "--out-prefix", str(prefix)]
    )
    capsys.readouterr()
    main(
        [
            "detect",
            "--world",
            str(world_dir),
            "--scores-prefix",
            str(prefix),
            "--tau",
            "0.5",
            "--limit",
            "0",
        ]
    )
    loose = int(capsys.readouterr().out.split(" spam candidates")[0].split()[-1])
    main(
        [
            "detect",
            "--world",
            str(world_dir),
            "--scores-prefix",
            str(prefix),
            "--tau",
            "0.99",
            "--limit",
            "0",
        ]
    )
    strict = int(
        capsys.readouterr().out.split(" spam candidates")[0].split()[-1]
    )
    assert strict <= loose


def test_reproduce_single(capsys):
    assert main(["reproduce", "--experiment", "T1"]) == 0
    out = capsys.readouterr().out
    assert "[T1]" in out
    assert "9.33" in out


def test_reproduce_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["reproduce", "--experiment", "Z9"])


def test_unknown_scale():
    with pytest.raises(SystemExit):
        main(["generate", "--scale", "galactic", "--out", "/tmp/x"])


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(
        ["estimate", "--world", "w", "--out-prefix", "p", "--gamma", "-1"]
    )
    assert args.gamma == -1  # unscaled-core escape hatch
    with pytest.raises(SystemExit):
        parser.parse_args(["frobnicate"])


def test_reproduce_report_output(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert main(["reproduce", "--experiment", "F1", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# Reproduced experiments")
    assert "### F1" in text
    assert "| k |" in text


def test_detect_with_explanations(world_dir, tmp_path, capsys):
    prefix = tmp_path / "e" / "r"
    main(
        ["estimate", "--world", str(world_dir), "--out-prefix", str(prefix)]
    )
    capsys.readouterr()
    code = main(
        [
            "detect",
            "--world",
            str(world_dir),
            "--scores-prefix",
            str(prefix),
            "--tau",
            "0.9",
            "--limit",
            "3",
            "--explain",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "review sheets" in out
    assert "core (known good):" in out


# ----------------------------------------------------------------------
# error dispatch: one-line stderr + distinct exit codes
# ----------------------------------------------------------------------


def test_missing_world_exits_with_data_code(tmp_path, capsys):
    from repro.cli import EXIT_DATA

    code = main(["stats", "--world", str(tmp_path / "nope")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("repro-spam:")
    assert err.count("\n") == 1  # exactly one line, no traceback


def test_corrupt_world_exits_with_data_code(tmp_path, capsys):
    from repro.cli import EXIT_DATA

    out = tmp_path / "world"
    assert main(["generate", "--scale", "small", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    edges = out / "graph.edges"
    edges.write_text(edges.read_text() + "garbage line!\n")
    code = main(["stats", "--world", str(out)])
    assert code == EXIT_DATA
    assert "repro-spam:" in capsys.readouterr().err
    # --lenient recovers from the same damage
    with pytest.warns(Warning):
        assert main(["stats", "--world", str(out), "--lenient"]) == 0


def test_traceback_flag_reraises(tmp_path):
    with pytest.raises(FileNotFoundError):
        main(["--traceback", "stats", "--world", str(tmp_path / "nope")])


def test_estimate_checkpoint_dir_saves_the_engine_solve(world_dir, tmp_path):
    """The snapshot is bitwise the batched engine's solve, and the
    directory holds nothing but ``solution.npz``."""
    from repro.core import estimate_spam_mass
    from repro.perf import PagerankEngine
    from repro.runtime import load_solution

    ckpt = tmp_path / "ckpt"
    prefix = tmp_path / "scores" / "run"
    assert main(
        [
            "estimate",
            "--world", str(world_dir),
            "--out-prefix", str(prefix),
            "--checkpoint-dir", str(ckpt),
        ]
    ) == 0
    graph, _, _ = read_graph_bundle(world_dir)
    lookup = {graph.name_of(i): i for i in range(graph.num_nodes)}
    core = [lookup[n] for n in read_host_list(world_dir / "core.hosts")]
    expected = estimate_spam_mass(graph, core, engine=PagerankEngine())
    snapshot = load_solution(ckpt, fingerprint=graph.structural_fingerprint())
    assert np.array_equal(
        snapshot.scores,
        np.stack([expected.pagerank, expected.core_pagerank], axis=1),
    )
    # no iteration checkpoints next to the snapshot
    assert [p.name for p in ckpt.iterdir()] == ["solution.npz"]


def test_estimate_max_iter_cutoff_exits_4_and_writes_nothing(
    world_dir, tmp_path, capsys, monkeypatch
):
    """A real engine solve cut off by ``max_iter`` raises out of the
    CLI as exit 4, before any score file or snapshot is written."""
    import functools

    import repro.cli as cli_mod
    from repro.cli import EXIT_CONVERGENCE
    from repro.core import estimate_spam_mass

    monkeypatch.setattr(
        cli_mod,
        "estimate_spam_mass",
        functools.partial(estimate_spam_mass, max_iter=3),
    )
    code = main(
        [
            "estimate",
            "--world", str(world_dir),
            "--out-prefix", str(tmp_path / "s" / "run"),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
    )
    assert code == EXIT_CONVERGENCE
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert not (tmp_path / "ckpt").exists()


def _update_against_cold_estimate(world_dir, tmp_path, capsys, *flags):
    """``estimate --checkpoint-dir`` → ``update`` with a delta of fresh
    edges from silent hosts → cold ``estimate`` of the mutated world,
    all with the estimate ``flags``.  ``update`` must exit 0 and match
    the cold scores to 1e-11; returns its stdout."""
    from repro.graph import GraphDelta, write_delta

    ckpt = tmp_path / "ckpt"
    assert main(
        ["estimate", "--world", str(world_dir), *flags,
         "--out-prefix", str(tmp_path / "cold"),
         "--checkpoint-dir", str(ckpt)]
    ) == 0
    graph, _, _ = read_graph_bundle(world_dir)
    silent = np.flatnonzero(np.diff(graph.indptr) == 0)
    rng = np.random.default_rng(4)
    insertions = []
    for src in rng.choice(silent, size=4, replace=False):
        pool = silent[silent != src]
        insertions.extend(
            (int(src), int(t)) for t in rng.choice(pool, size=3, replace=False)
        )
    delta = tmp_path / "crawl.delta"
    write_delta(GraphDelta(insertions=insertions), delta)
    mutated = tmp_path / "mutated"
    capsys.readouterr()
    assert main(
        ["update", "--world", str(world_dir), "--delta", str(delta),
         "--checkpoint-dir", str(ckpt),
         "--out-prefix", str(tmp_path / "upd"),
         "--write-world", str(mutated)]
    ) == 0
    out = capsys.readouterr().out
    assert main(
        ["estimate", "--world", str(mutated), *flags,
         "--out-prefix", str(tmp_path / "coldmut")]
    ) == 0
    for kind in ("pagerank", "core"):
        updated = read_scores(f"{tmp_path / 'upd'}.{kind}.scores")
        cold = read_scores(f"{tmp_path / 'coldmut'}.{kind}.scores")
        assert np.abs(updated - cold).max() <= 1e-11, kind
    return out


def test_update_reads_gamma_from_the_snapshot(world_dir, tmp_path, capsys):
    """An unscaled snapshot (``estimate --gamma 0``) updates unscaled:
    γ comes from the stored solution, and the new snapshot keeps it."""
    from repro.runtime import load_solution

    _update_against_cold_estimate(
        world_dir, tmp_path, capsys, "--gamma", "0"
    )
    assert load_solution(tmp_path / "ckpt").meta["gamma"] is None


def test_update_falls_back_to_one_cold_solve(
    world_dir, tmp_path, capsys, monkeypatch
):
    """A warm push update that raises degrades to one cold solve of the
    mutated graph: same exit code and scores as a cold ``estimate``."""
    from repro.errors import InjectedFault
    from repro.perf import PagerankEngine

    calls = []

    def _down(self, *args, **kwargs):
        calls.append(1)
        raise InjectedFault("warm path down")

    monkeypatch.setattr(PagerankEngine, "update_many", _down)
    out = _update_against_cold_estimate(world_dir, tmp_path, capsys)
    assert "degraded to a cold re-solve" in out
    assert len(calls) == 1


@pytest.fixture(scope="module")
def unnamed_world(tmp_path_factory):
    """An unnamed ~2k-host bundle (hosts are ``node<i>``), the format
    ``write_graph_bundle`` writes for a graph without names."""
    from repro.graph import WebGraph, write_graph_bundle, write_host_list

    rng = np.random.default_rng(5)
    n = 2_000
    src = rng.integers(0, n, size=12_000)
    dst = rng.integers(0, n, size=12_000)
    keep = src != dst
    graph = WebGraph.from_edges(n, np.stack([src[keep], dst[keep]], axis=1))
    assert graph.names is None
    out = tmp_path_factory.mktemp("unnamed") / "world"
    write_graph_bundle(graph, out)
    write_host_list([f"node{i}" for i in range(0, n, 17)], out / "core.hosts")
    return out


def test_estimate_checkpoint_dir_on_an_unnamed_world(unnamed_world, tmp_path):
    from repro.runtime import load_solution

    ckpt = tmp_path / "ckpt"
    assert main(
        [
            "estimate",
            "--world", str(unnamed_world),
            "--out-prefix", str(tmp_path / "run"),
            "--checkpoint-dir", str(ckpt),
        ]
    ) == 0
    graph, _, _ = read_graph_bundle(unnamed_world)
    snapshot = load_solution(ckpt, fingerprint=graph.structural_fingerprint())
    assert snapshot.scores.shape == (graph.num_nodes, 2)


def test_core_host_past_the_last_node_exits_3(unnamed_world, tmp_path, capsys):
    from repro.cli import EXIT_DATA

    core = tmp_path / "core.hosts"
    core.write_text("node0\nnode2000\n", encoding="utf-8")
    code = main(
        [
            "estimate",
            "--world", str(unnamed_world),
            "--core", str(core),
            "--out-prefix", str(tmp_path / "run"),
        ]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err == (
        "repro-spam: 1 core hosts are not in the graph (first: 'node2000')\n"
    )


def test_estimate_convergence_failure_exit_code(world_dir, tmp_path, capsys):
    """Without a runtime policy, check=True maps exhaustion to exit 4."""
    from repro.cli import EXIT_CONVERGENCE
    from repro.core.solvers import SolverResult
    import repro.core.mass as mass_mod
    from repro.errors import ConvergenceError

    def fail(*a, **k):
        raise ConvergenceError("injected non-convergence", result=None)

    original = mass_mod.estimate_spam_mass
    import repro.cli as cli_mod

    cli_mod_orig = cli_mod.estimate_spam_mass
    cli_mod.estimate_spam_mass = fail
    try:
        code = main(
            [
                "estimate",
                "--world",
                str(world_dir),
                "--out-prefix",
                str(tmp_path / "x"),
            ]
        )
    finally:
        cli_mod.estimate_spam_mass = cli_mod_orig
        mass_mod.estimate_spam_mass = original
    assert code == EXIT_CONVERGENCE
    assert "did not converge" in capsys.readouterr().err


def test_exit_code_constants_are_distinct():
    from repro.cli import (
        EXIT_CONVERGENCE,
        EXIT_DATA,
        EXIT_ERROR,
        EXIT_INTERRUPTED,
        EXIT_OK,
        EXIT_USAGE,
    )

    codes = [
        EXIT_OK,
        EXIT_ERROR,
        EXIT_USAGE,
        EXIT_DATA,
        EXIT_CONVERGENCE,
        EXIT_INTERRUPTED,
    ]
    assert len(set(codes)) == len(codes)
    assert EXIT_OK == 0 and all(c != 0 for c in codes[1:])


# ----------------------------------------------------------------------
# perf engine flags
# ----------------------------------------------------------------------


def test_estimate_montecarlo_cross_check(world_dir, tmp_path, capsys):
    code = main(
        [
            "estimate",
            "--world",
            str(world_dir),
            "--out-prefix",
            str(tmp_path / "mc" / "r"),
            "--mc-walks",
            "5000",
            "--workers",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Monte-Carlo cross-check" in out
    assert "L1 deviation" in out


def test_reproduce_invalid_cache_size_is_usage_error(tmp_path, capsys):
    # validated at argparse level: non-positive numeric flags are usage
    # errors (exit 2), caught before any file or solver work starts
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "reproduce",
                "--experiment",
                "T1",
                "--out",
                str(tmp_path / "x.md"),
                "--cache-size",
                "0",
            ]
        )
    assert excinfo.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "x.md").exists()


def test_parser_engine_defaults():
    parser = build_parser()
    args = parser.parse_args(["estimate", "--world", "w", "--out-prefix", "p"])
    assert args.workers is None
    assert args.mc_walks == 0
    rep = parser.parse_args(["reproduce", "--experiment", "T1"])
    assert rep.cache_size == 8


_REQUIRED = {
    "estimate": ["estimate", "--world", "w", "--out-prefix", "p"],
    "update": [
        "update", "--world", "w", "--delta", "d",
        "--checkpoint-dir", "c", "--out-prefix", "p",
    ],
    "serve": [
        "serve", "--world", "w", "--checkpoint-dir", "c", "--socket", "s",
    ],
    "stream-ingest": [
        "stream", "ingest", "--world", "w", "--checkpoint-dir", "c",
        "--events", "e",
    ],
    "audit-core": ["audit-core", "--world", "w"],
    "reproduce": ["reproduce", "--experiment", "T1"],
}


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("estimate", "--precision", "adaptive"),
        ("estimate", "--engine", "legacy"),
        ("estimate", "--checkpoint-every", "20"),
        ("estimate", "--resume", None),
        ("estimate", "--time-budget", "1e-6"),
        ("estimate", "--max-task-retries", "3"),
        ("estimate", "--task-timeout", "120"),
        ("estimate", "--no-degrade", None),
        ("update", "--precision", "float64"),
        ("serve", "--precision", "float64"),
        ("stream-ingest", "--precision", "float64"),
        ("update", "--workers", "2"),
        ("serve", "--workers", "2"),
        ("stream-ingest", "--workers", "2"),
        ("audit-core", "--workers", "2"),
        ("serve", "--replicas", "2"),
        ("serve", "--explain-replica", None),
        ("serve", "--ship-dir", "ship"),
        ("serve", "--max-lag", "4"),
        ("serve", "--replica-poll", "0.05"),
        ("serve", "--cache-size", "2"),
        ("stream-ingest", "--cache-size", "2"),
        ("estimate", "--cache-size", "2"),
        ("update", "--cache-size", "2"),
        ("audit-core", "--cache-size", "2"),
        ("update", "--max-task-retries", "3"),
        ("update", "--task-timeout", "120"),
        ("update", "--no-degrade", None),
        ("serve", "--max-task-retries", "3"),
        ("serve", "--task-timeout", "120"),
        ("serve", "--no-degrade", None),
        ("serve", "--serve-workers", "2"),
        ("update", "--gamma", "0.85"),
        ("stream-ingest", "--gamma", "0.5"),
        ("stream-ingest", "--state-dir", "s"),
        ("stream-ingest", "--apply-every", "3"),
        ("stream-ingest", "--apply-every", "0"),
        ("stream-ingest", "--batch-deltas", "3"),
        ("stream-ingest", "--max-staleness", "8"),
        ("update", "--batch-deltas", "1"),
        ("update", "--batch-deltas", "0"),
        ("reproduce", "--workers", "2"),
    ],
)
def test_removed_solver_flags_are_usage_errors(command, flag, value, capsys):
    """Every batched solve is float64, only ``estimate`` runs Monte
    Carlo and takes ``--workers``, ``serve`` has no
    read-replica fleet, only ``reproduce`` (many graphs) sizes an
    operator cache, ``estimate`` runs one cold engine solve (no solver
    engine choice, iteration checkpoints, resume, time budget or
    Monte-Carlo supervision), ``update`` and ``serve`` run one warm
    re-estimate with one cold fallback (no retry, deadline or degrade
    knobs; ``update`` composes all its files into one), ``serve``
    answers fast ops on each connection's reader (no request worker
    pool to size), γ comes from the stored solution, and ``stream
    ingest`` keeps its position in the WAL (no journal directory) and
    applies each sealed window as it seals it (``--window`` alone sets
    how much churn one apply coalesces)."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(
            _REQUIRED[command] + [flag] + ([] if value is None else [value])
        )
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
