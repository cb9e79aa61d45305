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


def test_resume_without_checkpoint_dir_is_usage_error(world_dir, tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "estimate",
                "--world",
                str(world_dir),
                "--out-prefix",
                str(tmp_path / "x"),
                "--resume",
            ]
        )


def test_estimate_checkpoint_and_resume(world_dir, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    prefix = tmp_path / "scores" / "run"
    args = [
        "estimate",
        "--world",
        str(world_dir),
        "--out-prefix",
        str(prefix),
        "--checkpoint-dir",
        str(ckpt),
        "--checkpoint-every",
        "20",
    ]
    assert main(args) == 0
    capsys.readouterr()
    # labeled per-solve subdirectories with atomic snapshots
    snaps = list(ckpt.glob("*/ckpt-*.npz"))
    assert snaps
    assert {p.parent.name for p in snaps} <= {"pagerank", "core"}

    assert main(args + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "resumed from checkpoint at iteration" in out
    # resumed output matches the from-scratch scores
    baseline = read_scores(f"{prefix}.relative.scores")
    assert baseline.size > 0


def test_estimate_time_budget_degrades_with_exit_code(world_dir, tmp_path, capsys):
    from repro.cli import EXIT_CONVERGENCE

    prefix = tmp_path / "s" / "budget"
    code = main(
        [
            "estimate",
            "--world",
            str(world_dir),
            "--out-prefix",
            str(prefix),
            "--time-budget",
            "1e-6",
        ]
    )
    assert code == EXIT_CONVERGENCE
    captured = capsys.readouterr()
    assert "did not converge" in captured.err
    # best-effort score files are still written
    assert read_scores(f"{prefix}.relative.scores").size > 0


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


def test_estimate_engine_flags_agree(world_dir, tmp_path, capsys):
    """--engine batched and --engine legacy write the same scores."""
    batched = tmp_path / "b" / "r"
    legacy = tmp_path / "l" / "r"
    assert (
        main(
            [
                "estimate",
                "--world",
                str(world_dir),
                "--out-prefix",
                str(batched),
                "--engine",
                "batched",
                "--cache-size",
                "2",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "estimate",
                "--world",
                str(world_dir),
                "--out-prefix",
                str(legacy),
                "--engine",
                "legacy",
            ]
        )
        == 0
    )
    capsys.readouterr()
    for suffix in ("pagerank", "core", "relative"):
        a = read_scores(f"{batched}.{suffix}.scores")
        b = read_scores(f"{legacy}.{suffix}.scores")
        assert abs(a - b).sum() < 1e-8


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


def test_estimate_invalid_cache_size_is_usage_error(
    world_dir, tmp_path, capsys
):
    # validated at argparse level since the incremental-engine PR:
    # non-positive numeric flags are usage errors (exit 2), caught
    # before any file or solver work starts
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "estimate",
                "--world",
                str(world_dir),
                "--out-prefix",
                str(tmp_path / "x"),
                "--cache-size",
                "0",
            ]
        )
    assert excinfo.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_parser_engine_defaults():
    parser = build_parser()
    args = parser.parse_args(["estimate", "--world", "w", "--out-prefix", "p"])
    assert args.engine == "batched"
    assert args.cache_size == 8
    assert args.workers is None
    assert args.mc_walks == 0
    rep = parser.parse_args(["reproduce", "--experiment", "T1"])
    assert rep.cache_size == 8
    assert rep.workers is None


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
}


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("estimate", "--precision", "adaptive"),
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
    ],
)
def test_removed_solver_flags_are_usage_errors(command, flag, value, capsys):
    """Every batched solve is float64, only the Monte-Carlo commands
    (``estimate``, ``reproduce``) take ``--workers``, ``serve`` has no
    read-replica fleet, and the daemon sizes its own operator cache."""
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(
            _REQUIRED[command] + [flag] + ([] if value is None else [value])
        )
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
