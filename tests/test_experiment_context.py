"""Tests for ReproductionContext variants and CLI error paths that the
main experiment tests do not exercise."""

import numpy as np
import pytest

from repro.cli import main
from repro.eval import ReproductionContext
from repro.synth import WorldConfig


@pytest.fixture(scope="module")
def sampled_ctx():
    """A context that labels only a sampled fraction of the filtered
    set, like the paper's 0.1% sample."""
    return ReproductionContext.build(
        WorldConfig.small(), sample_fraction=0.5
    )


def test_sampled_context_respects_fraction(sampled_ctx):
    assert len(sampled_ctx.sample) == pytest.approx(
        0.5 * sampled_ctx.num_eligible(), abs=1
    )
    # sampled nodes all come from the eligible set
    eligible = np.flatnonzero(sampled_ctx.eligible_mask)
    assert set(sampled_ctx.sample.nodes.tolist()) <= set(eligible.tolist())


def test_sampled_context_includes_exclusion_channels(sampled_ctx):
    composition = sampled_ctx.sample.composition()
    # the unknown/non-existent channels fire at ~11% combined
    excluded = composition["unknown"] + composition["nonexistent"]
    assert 0 <= excluded <= len(sampled_ctx.sample) * 0.35


def test_sampled_precision_close_to_population(sampled_ctx):
    from repro.eval import precision_at

    full = ReproductionContext.build(WorldConfig.small())
    tau = 0.45
    sampled = precision_at(
        sampled_ctx.sample, sampled_ctx.estimates.relative, tau
    ).precision
    population = precision_at(
        full.sample, full.estimates.relative, tau
    ).precision
    assert sampled == pytest.approx(population, abs=0.25)


def test_custom_rho_changes_eligibility():
    strict = ReproductionContext.build(WorldConfig.small(), rho=50.0)
    loose = ReproductionContext.build(WorldConfig.small(), rho=5.0)
    assert strict.num_eligible() < loose.num_eligible()
    assert strict.rho == 50.0


def test_uncovered_coverage_knob():
    """Full coverage of the 'uncovered' country removes that anomaly
    group from the high-mass region."""
    gapped = ReproductionContext.build(
        WorldConfig.small(), uncovered_coverage=0.0
    )
    covered = ReproductionContext.build(
        WorldConfig.small(), uncovered_coverage=1.0
    )
    pl = gapped.world.group("country:pl")
    gapped_mass = gapped.estimates.relative[pl]
    covered_mass = covered.estimates.relative[pl]
    assert covered_mass.mean() < gapped_mass.mean() - 0.3


def test_cli_estimate_rejects_unknown_core_hosts(tmp_path, capsys):
    out = tmp_path / "world"
    main(["generate", "--scale", "small", "--seed", "3", "--out", str(out)])
    (out / "core.hosts").write_text("not-a-real-host.example\n")
    capsys.readouterr()
    code = main(
        [
            "estimate",
            "--world",
            str(out),
            "--out-prefix",
            str(tmp_path / "p"),
        ]
    )
    # the daemon's resolver and message: a data error, exit 3
    assert code == 3
    assert capsys.readouterr().err == (
        "repro-spam: 1 core hosts are not in the graph "
        "(first: 'not-a-real-host.example')\n"
    )


def test_cli_detect_rejects_mismatched_scores(tmp_path):
    out = tmp_path / "world"
    main(["generate", "--scale", "small", "--seed", "3", "--out", str(out)])
    from repro.graph import write_scores

    prefix = tmp_path / "bad"
    write_scores(np.array([0.5, 0.5]), f"{prefix}.pagerank.scores")
    write_scores(np.array([0.5, 0.5]), f"{prefix}.relative.scores")
    with pytest.raises(SystemExit, match="do not match"):
        main(
            [
                "detect",
                "--world",
                str(out),
                "--scores-prefix",
                str(prefix),
            ]
        )
