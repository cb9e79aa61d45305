"""Experiment runners: one function per reproduced table/figure.

Each ``run_*`` function reproduces one artifact from the paper's
evaluation (see DESIGN.md's per-experiment index) and returns a
:class:`~repro.eval.results.TableResult`.  The heavyweight shared state
— synthetic world, good core, mass estimates, eligibility filter and
labeled evaluation sample — is built once into a
:class:`ReproductionContext` and reused across experiments, the way the
paper computes its two PageRank vectors once and then analyses them
every which way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.distribution import mass_distribution, negative_mass_decomposition
from ..analysis.powerlaw import fit_continuous_powerlaw
from ..baselines.degree_outlier import degree_outlier_mask
from ..baselines.naive import scheme1_label, scheme1_mask, scheme2_label, scheme2_mask
from ..baselines.spamrank import SupporterDeviationDetector
from ..baselines.trustrank import trustrank, trustrank_detector
from ..core.contribution import contribution_vector
from ..core.detector import MassDetector
from ..core.mass import (
    MassEstimates,
    blacklist_mass,
    estimate_spam_mass,
    true_spam_mass,
)
from ..core.combined import combine_average, combine_weighted
from ..core.pagerank import DEFAULT_DAMPING, pagerank, scale_scores
from ..obs import get_telemetry
from ..datasets.paper_graphs import (
    figure1_graph,
    figure1_pagerank_x,
    figure1_spam_contribution_x,
    figure2_graph,
    table1_expected,
)
from ..graph.webgraph import WebGraph
from ..synth.assembler import SyntheticWorld, WorldAssembler
from ..synth.goodcore import (
    country_only_core,
    repair_core,
    subsample_core,
)
from ..synth.hostgraph import BaseWebConfig, generate_base_web
from ..synth.scenario import (
    WorldConfig,
    build_world,
    default_good_core,
    true_gamma,
)
from .grouping import split_into_groups
from .metrics import (
    PAPER_THRESHOLDS,
    counts_above_thresholds,
    detection_metrics,
    precision_curve,
)
from .results import TableResult
from .sampling import EvaluationSample, build_evaluation_sample

__all__ = [
    "ReproductionContext",
    "run_table1",
    "run_figure1",
    "run_figure2_contributions",
    "run_graph_stats",
    "run_pagerank_distribution",
    "run_table2",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_core_repair",
    "run_absolute_mass_ranking",
    "run_baseline_comparison",
    "run_gamma_ablation",
    "run_combined_ablation",
    "run_solver_ablation",
]


class ReproductionContext:
    """Shared state for the Section 4 experiments.

    Attributes
    ----------
    world:
        The synthetic host-level world.
    core:
        The assembled good core ``Ṽ⁺`` (with the built-in coverage
        gaps that create the anomalies).
    estimates:
        Mass estimates from the γ-scaled core jump.
    rho:
        The scaled-PageRank filter threshold (paper: 10).
    eligible_mask:
        Nodes passing the filter (the paper's set ``T``).
    sample:
        The labeled evaluation sample ``T′``.
    gamma:
        The γ used for the core-jump scaling.
    """

    __slots__ = (
        "world",
        "core",
        "estimates",
        "rho",
        "eligible_mask",
        "sample",
        "gamma",
    )

    def __init__(
        self,
        world: SyntheticWorld,
        core: np.ndarray,
        estimates: MassEstimates,
        rho: float,
        eligible_mask: np.ndarray,
        sample: EvaluationSample,
        gamma: float,
    ) -> None:
        self.world = world
        self.core = core
        self.estimates = estimates
        self.rho = rho
        self.eligible_mask = eligible_mask
        self.sample = sample
        self.gamma = gamma

    @classmethod
    def build(
        cls,
        config: Optional[WorldConfig] = None,
        *,
        rho: float = 10.0,
        gamma: float = 0.85,
        uncovered_coverage: float = 0.03,
        sample_fraction: Optional[float] = None,
        frac_unknown: float = 0.061,
        frac_nonexistent: float = 0.05,
        sample_seed: int = 23,
        engine=None,
    ) -> "ReproductionContext":
        """Build a context following the paper's Section 4 procedure.

        γ defaults to the paper's conservative 0.85; the default
        ``sample_fraction=None`` inspects the *whole* filtered set
        (affordable at synthetic scale, and it removes sampling noise
        from reproduced curves — pass 0.001 for the paper's 0.1%).

        ``engine`` optionally supplies a
        :class:`~repro.perf.PagerankEngine`; by default the solves use
        the process-wide shared engine, so ``p`` and ``p'`` come out of
        one batched block iteration over the cached operator.
        """
        tele = get_telemetry()
        with tele.span("context-build", rho=rho, gamma=gamma) as sp:
            world = build_world(config)
            core = default_good_core(
                world, uncovered_coverage=uncovered_coverage
            )
            estimates = estimate_spam_mass(
                world.graph, core, gamma=gamma, engine=engine
            )
            scaled = estimates.scaled_pagerank()
            eligible_mask = scaled >= rho
            sample = build_evaluation_sample(
                world,
                np.flatnonzero(eligible_mask),
                np.random.default_rng(sample_seed),
                fraction=sample_fraction,
                frac_unknown=frac_unknown,
                frac_nonexistent=frac_nonexistent,
            )
            if tele.enabled:
                sp.set("nodes", world.graph.num_nodes)
                sp.set("core_size", len(core))
                sp.set("eligible", int(eligible_mask.sum()))
            return cls(
                world, core, estimates, rho, eligible_mask, sample, gamma
            )

    @property
    def graph(self) -> WebGraph:
        """The world's host graph."""
        return self.world.graph

    def num_eligible(self) -> int:
        """Size of the filtered set ``T``."""
        return int(self.eligible_mask.sum())

    def updated(
        self,
        delta,
        *,
        engine=None,
        sample_seed: int = 23,
        sample_fraction: Optional[float] = None,
        frac_unknown: float = 0.061,
        frac_nonexistent: float = 0.05,
    ) -> "ReproductionContext":
        """Re-derive the context after an edge delta, incrementally.

        Accepts a :class:`~repro.graph.delta.GraphDelta` (applied to the
        current graph) or a ready
        :class:`~repro.graph.delta.DeltaApplication`.  The two PageRank
        vectors are *updated* from this context's estimates by residual
        pushes seeded at the touched nodes (``previous=`` path of
        :func:`~repro.core.mass.estimate_spam_mass`), then the
        eligibility filter and evaluation sample are re-derived.  The
        good core, thresholds and γ carry over unchanged.
        """
        from ..graph.delta import GraphDelta

        if isinstance(delta, GraphDelta):
            application = delta.apply(self.graph)
        else:
            application = delta
        tele = get_telemetry()
        with tele.span(
            "context-update", delta=len(application.delta)
        ) as sp:
            estimates = estimate_spam_mass(
                application,
                self.core,
                gamma=self.gamma,
                previous=self.estimates,
                engine=engine,
            )
            scaled = estimates.scaled_pagerank()
            eligible_mask = scaled >= self.rho
            world = SyntheticWorld(
                application.after,
                self.world.spam_mask,
                self.world.groups,
                self.world.metadata,
            )
            sample = build_evaluation_sample(
                world,
                np.flatnonzero(eligible_mask),
                np.random.default_rng(sample_seed),
                fraction=sample_fraction,
                frac_unknown=frac_unknown,
                frac_nonexistent=frac_nonexistent,
            )
            if tele.enabled:
                sp.set("eligible", int(eligible_mask.sum()))
            return ReproductionContext(
                world,
                self.core,
                estimates,
                self.rho,
                eligible_mask,
                sample,
                self.gamma,
            )


# ----------------------------------------------------------------------
# T1 / F1 / F2 — the worked examples
# ----------------------------------------------------------------------


def run_table1(damping: float = DEFAULT_DAMPING) -> TableResult:
    """Reproduce Table 1 on the Figure 2 graph and check it against the
    paper's analytic values."""
    example = figure2_graph()
    graph = example.graph
    n = graph.num_nodes
    estimates = estimate_spam_mass(
        graph, example.good_core, damping=damping, gamma=None
    )
    actual_mass = scale_scores(
        true_spam_mass(graph, example.spam, damping=damping), n, damping
    )
    scaled_p = estimates.scaled_pagerank()
    scaled_core = estimates.scaled_core_pagerank()
    scaled_abs = estimates.scaled_absolute()
    expected = table1_expected(damping)
    rows = []
    max_error = 0.0
    for name in example.names_in_order():
        i = example.id_of(name)
        with np.errstate(invalid="ignore"):
            rel_actual = actual_mass[i] / scaled_p[i] if scaled_p[i] else 0.0
        row = [
            name,
            round(scaled_p[i], 4),
            round(scaled_core[i], 4),
            round(actual_mass[i], 4),
            round(scaled_abs[i], 4),
            round(rel_actual, 4),
            round(estimates.relative[i], 4),
        ]
        rows.append(row)
        exp = expected[name]
        max_error = max(
            max_error,
            abs(scaled_p[i] - exp["p"]),
            abs(scaled_core[i] - exp["p_core"]),
            abs(actual_mass[i] - exp["M"]),
            abs(scaled_abs[i] - exp["M_est"]),
            abs(estimates.relative[i] - exp["m_est"]),
        )
    return TableResult(
        "T1",
        "Table 1: node features of the Figure 2 graph (scaled by n/(1-c))",
        ["node", "p", "p_core", "M", "M_est", "m", "m_est"],
        rows,
        notes=[
            f"c={damping}, core={{g0,g1,g3}}, unscaled core jump",
            f"max |computed - paper analytic| = {max_error:.2e}",
        ],
    )


def run_figure1(
    k_values: Sequence[int] = (1, 2, 3, 5, 10, 20),
    damping: float = DEFAULT_DAMPING,
) -> TableResult:
    """Figure 1: x's PageRank vs the paper's closed form, the spam share
    of it, and both naive schemes' verdicts (scheme 1 must mislabel for
    every k; scheme 2 must flip to spam at k ≥ ceil(1/c))."""
    rows = []
    for k in k_values:
        example = figure1_graph(k)
        graph = example.graph
        x = example.id_of("x")
        scores = scale_scores(
            pagerank(graph, damping=damping).scores,
            graph.num_nodes,
            damping,
        )
        analytic = figure1_pagerank_x(k, damping)
        spam_part = figure1_spam_contribution_x(k, damping)
        label1 = scheme1_label(graph, x, example.spam)
        label2 = scheme2_label(graph, x, example.spam, damping=damping)
        rows.append(
            [
                k,
                round(scores[x], 4),
                round(analytic, 4),
                round(spam_part, 4),
                round(spam_part / analytic, 4),
                label1,
                label2,
            ]
        )
    return TableResult(
        "F1",
        "Figure 1: naive labeling schemes on the k-booster farm",
        [
            "k",
            "p_x (computed)",
            "p_x (analytic)",
            "spam part",
            "spam share",
            "scheme1",
            "scheme2",
        ],
        rows,
        notes=[
            f"c={damping}; scheme 1 always says good (2 good links vs 1 "
            "spam link); scheme 2 says spam once k >= ceil(1/c) = "
            f"{int(np.ceil(1 / damping))}",
        ],
    )


def run_figure2_contributions(
    damping: float = DEFAULT_DAMPING,
) -> TableResult:
    """Figure 2: good vs spam PageRank contributions to x — the example
    that defeats both naive schemes and motivates spam mass."""
    example = figure2_graph()
    graph = example.graph
    n = graph.num_nodes
    x = example.id_of("x")
    c = damping
    q_good = scale_scores(
        contribution_vector(graph, example.good, damping=damping), n, damping
    )[x]
    spam_only = [s for s in example.spam if s != x]
    q_spam = scale_scores(
        contribution_vector(graph, spam_only, damping=damping), n, damping
    )[x]
    analytic_good = 2 * c + 2 * c * c
    analytic_spam = c + 6 * c * c
    label2 = scheme2_label(graph, x, example.spam, damping=damping)
    rows = [
        ["q_x^{g0..g3}", round(q_good, 6), round(analytic_good, 6)],
        ["q_x^{s0..s6}", round(q_spam, 6), round(analytic_spam, 6)],
        ["spam/good ratio", round(q_spam / q_good, 4), round(analytic_spam / analytic_good, 4)],
    ]
    return TableResult(
        "F2",
        "Figure 2: PageRank contributions to x (scaled)",
        ["quantity", "computed", "paper analytic"],
        rows,
        notes=[
            f"scheme 2 labels x {label2!r} (the paper: it fails, saying "
            "good, because direct links from g0/g2 outweigh s0)",
            "spam nodes contribute 1.65x the good contribution at c=0.85",
        ],
    )


# ----------------------------------------------------------------------
# S41 / S43 — data-set statistics
# ----------------------------------------------------------------------


def run_graph_stats(
    config: Optional[WorldConfig] = None,
) -> TableResult:
    """Section 4.1: host-graph composition vs the Yahoo! figures.

    The paper's fractions describe a pure crawl snapshot; the base-web
    generator is checked against them directly, and the full world
    (base + communities + spam layer, all link-active) is reported
    alongside to document the dilution.
    """
    if config is None:
        config = WorldConfig()
    assembler = WorldAssembler()
    generate_base_web(
        assembler,
        np.random.default_rng(config.seed),
        BaseWebConfig(config.num_base_hosts, mean_outdegree=config.mean_outdegree),
    )
    base_stats = assembler.build().graph.stats()
    world_stats = build_world(config).graph.stats()
    rows = [
        ["hosts", 73_300_000, base_stats.num_nodes, world_stats.num_nodes],
        ["edges", 979_000_000, base_stats.num_edges, world_stats.num_edges],
        [
            "% no inlinks",
            35.0,
            round(100 * base_stats.frac_no_inlinks, 1),
            round(100 * world_stats.frac_no_inlinks, 1),
        ],
        [
            "% no outlinks",
            66.4,
            round(100 * base_stats.frac_no_outlinks, 1),
            round(100 * world_stats.frac_no_outlinks, 1),
        ],
        [
            "% isolated",
            25.8,
            round(100 * base_stats.frac_isolated, 1),
            round(100 * world_stats.frac_isolated, 1),
        ],
    ]
    return TableResult(
        "S41",
        "Section 4.1: host-graph statistics (paper vs synthetic)",
        ["metric", "paper (Yahoo! 2004)", "base web", "full world"],
        rows,
        notes=[
            "base web is the crawl-snapshot analogue the fractions "
            "describe; the full world adds link-active communities and "
            "spam farms, diluting the dangling/isolated shares",
        ],
    )


def run_pagerank_distribution(ctx: ReproductionContext) -> TableResult:
    """Section 4.3: the PageRank score distribution — most hosts at the
    minimum, a power-law head (paper: 91.1% below scaled score 2, only
    ~64k of 73.3M at 100x the minimum or more)."""
    scaled = ctx.estimates.scaled_pagerank()
    n = len(scaled)
    frac_below_2 = float((scaled < 2.0).sum()) / n
    frac_100x = float((scaled >= 100.0).sum()) / n
    fit = fit_continuous_powerlaw(scaled, xmin=2.0)
    rows = [
        ["% scaled PR < 2", 91.1, round(100 * frac_below_2, 1)],
        ["% scaled PR >= 100", round(100 * 64_000 / 73_300_000, 3), round(100 * frac_100x, 3)],
        ["power-law exponent (tail)", "(power law)", round(fit.alpha, 2)],
        ["filtered set |T| (PR >= rho)", 883_328, ctx.num_eligible()],
    ]
    return TableResult(
        "S43",
        "Section 4.3: PageRank distribution of the host graph",
        ["metric", "paper", "measured"],
        rows,
        notes=[
            f"rho = {ctx.rho} (scaled); paper percentages are for the "
            "73.3M-host Yahoo! graph — shapes, not magnitudes, transfer",
        ],
    )


# ----------------------------------------------------------------------
# T2 / F3 — sample groups and composition
# ----------------------------------------------------------------------


def run_table2(
    ctx: ReproductionContext, num_groups: int = 20
) -> TableResult:
    """Table 2: the relative-mass boundaries of the sorted sample
    groups."""
    groups = split_into_groups(ctx.sample, ctx.estimates.relative, num_groups)
    rows = [
        [g.index, round(g.smallest, 2), round(g.largest, 2), g.size]
        for g in groups
    ]
    return TableResult(
        "T2",
        "Table 2: relative-mass ranges of the sorted sample groups",
        ["group", "smallest m~", "largest m~", "size"],
        rows,
        notes=[
            f"sample = {len(ctx.sample)} hosts of |T| = "
            f"{ctx.num_eligible()} (paper: 892 of 883,328)",
            "paper range: -67.90 (core-biased negatives) up to 1.00",
        ],
    )


def run_figure3(
    ctx: ReproductionContext, num_groups: int = 20
) -> TableResult:
    """Figure 3: good/spam/anomalous composition of each group —
    spam prevalence must rise monotonically toward the top groups, with
    the gray anomalous hosts concentrated in the upper-middle."""
    groups = split_into_groups(ctx.sample, ctx.estimates.relative, num_groups)
    rows = [
        [
            g.index,
            g.usable,
            g.num_good,
            g.num_anomalous,
            g.num_spam,
            round(100 * g.spam_fraction(), 1),
        ]
        for g in groups
    ]
    top = groups[-3:]
    top_spam = sum(g.num_spam for g in top)
    top_usable = sum(g.usable for g in top)
    return TableResult(
        "F3",
        "Figure 3: sample composition per relative-mass group",
        ["group", "usable", "good", "anomalous", "spam", "% spam"],
        rows,
        notes=[
            "anomalous = good hosts of under-covered communities "
            "(portal / blogs / uncovered country), the paper's gray bars",
            f"top-3 groups: {top_spam}/{top_usable} spam "
            f"({100 * top_spam / max(top_usable, 1):.0f}%)",
        ],
    )


# ----------------------------------------------------------------------
# F4 / F5 — precision curves
# ----------------------------------------------------------------------


def run_figure4(
    ctx: ReproductionContext,
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
) -> TableResult:
    """Figure 4: precision of Algorithm 2 vs τ, anomalous hosts counted
    as false positives and excluded."""
    included = precision_curve(
        ctx.sample, ctx.estimates.relative, thresholds
    )
    excluded = precision_curve(
        ctx.sample,
        ctx.estimates.relative,
        thresholds,
        exclude_anomalous=True,
    )
    totals = counts_above_thresholds(
        ctx.estimates.relative, ctx.eligible_mask, thresholds
    )
    rows = [
        [
            tau,
            total,
            round(inc.precision, 4),
            round(exc.precision, 4),
            inc.num_spam,
            inc.num_total,
        ]
        for tau, total, inc, exc in zip(
            thresholds, totals, included, excluded
        )
    ]
    return TableResult(
        "F4",
        "Figure 4: detection precision vs relative-mass threshold",
        [
            "tau",
            "|T| above",
            "prec (anom. incl.)",
            "prec (anom. excl.)",
            "spam above",
            "sample above",
        ],
        rows,
        notes=[
            "paper shape: ~1.00 at tau=0.98 (anomalies excluded), 94% at "
            "0.91, decaying to the positive-mass spam base rate (~48%) "
            "at tau=0",
        ],
    )


def run_figure5(
    ctx: ReproductionContext,
    fractions: Sequence[float] = (1.0, 0.1, 0.01, 0.005),
    country: str = "it",
    thresholds: Sequence[float] = PAPER_THRESHOLDS,
    subsample_seed: int = 5,
) -> TableResult:
    """Figure 5: precision for shrinking uniform cores and the narrow
    single-country core.

    Paper shape: 10% ≈ full core, graceful decline to 0.1%, and the
    country-only core *below* the 19x-smaller 0.1% core — breadth of
    coverage beats size.
    """
    rng = np.random.default_rng(subsample_seed)
    cores: Dict[str, np.ndarray] = {}
    for fraction in fractions:
        label = f"{100 * fraction:g}% core"
        if fraction >= 1.0:
            cores[label] = ctx.core
        else:
            cores[label] = subsample_core(ctx.core, fraction, rng)
    cores[f".{country} core"] = country_only_core(ctx.world, country)

    curves: Dict[str, List[float]] = {}
    sizes: Dict[str, int] = {}
    for label, core in cores.items():
        sizes[label] = len(core)
        if label == "100% core":
            estimates = ctx.estimates
        else:
            # the shared engine caches the operator, so each core in the
            # sweep reuses one Tᵀ and solves (p, p′) as a batched pair
            estimates = estimate_spam_mass(
                ctx.graph, core, gamma=ctx.gamma
            )
        points = precision_curve(ctx.sample, estimates.relative, thresholds)
        curves[label] = [p.precision for p in points]

    labels = list(cores)
    rows = []
    for i, tau in enumerate(thresholds):
        rows.append(
            [tau] + [round(curves[label][i], 4) for label in labels]
        )
    notes = [
        "core sizes: "
        + ", ".join(f"{label}={sizes[label]}" for label in labels),
        "paper shape: graceful decline with core size; the narrow "
        "country core performs worst despite not being the smallest "
        "(paper compares the .it core against a 19x-smaller uniform "
        "core; fractions here are adapted to the synthetic core size)",
    ]
    return TableResult(
        "F5",
        "Figure 5: detection precision for different cores",
        ["tau"] + labels,
        rows,
        notes=notes,
    )


# ----------------------------------------------------------------------
# F6 / S46 — absolute mass
# ----------------------------------------------------------------------


def run_figure6(ctx: ReproductionContext) -> TableResult:
    """Figure 6: the distribution of estimated absolute mass — a power
    law on the positive side (paper exponent -2.31), a two-curve
    superposition on the negative side."""
    scaled_mass = ctx.estimates.scaled_absolute()
    dist = mass_distribution(scaled_mass, fit_xmin=10.0)
    noncore_panel, core_panel = negative_mass_decomposition(
        scaled_mass, ctx.core
    )
    rows = [
        ["min mass", round(dist.min_mass, 1)],
        ["max mass", round(dist.max_mass, 1)],
        ["% positive", round(100 * dist.frac_positive, 1)],
        ["% negative", round(100 * dist.frac_negative, 1)],
        [
            "positive power-law exponent",
            round(-dist.positive_fit.alpha, 2) if dist.positive_fit else "n/a",
        ],
        ["positive histogram bins", len(dist.positive_bins)],
        ["negative histogram bins", len(dist.negative_bins)],
        [
            "negative curves (non-core / core median |mass|)",
            (
                f"{_median_of_panel(noncore_panel):.2f} / "
                f"{_median_of_panel(core_panel):.2f}"
            ),
        ],
    ]
    return TableResult(
        "F6",
        "Figure 6: distribution of estimated absolute mass (scaled)",
        ["metric", "value"],
        rows,
        notes=[
            "paper: positive side power law with exponent -2.31; "
            "negative side superposes the natural distribution with the "
            "core-biased one (core members pushed far negative)",
        ],
    )


def _median_of_panel(panel: Tuple[np.ndarray, np.ndarray]) -> float:
    bins, fractions = panel
    if len(bins) == 0:
        return float("nan")
    order = np.argsort(bins)
    cumulative = np.cumsum(fractions[order])
    if cumulative[-1] <= 0:
        return float("nan")
    idx = int(np.searchsorted(cumulative, cumulative[-1] / 2.0))
    return float(bins[order][min(idx, len(bins) - 1)])


def run_absolute_mass_ranking(
    ctx: ReproductionContext, top: int = 15
) -> TableResult:
    """Section 4.6: ranking by absolute mass intermixes popular good
    hosts with spam (the www.macromedia.com effect), so no usable
    cut-off exists — unlike the relative-mass ranking."""
    scaled_mass = ctx.estimates.scaled_absolute()
    order = np.argsort(-scaled_mass, kind="stable")[:top]
    rows = []
    for rank, node in enumerate(order, start=1):
        rows.append(
            [
                rank,
                ctx.graph.name_of(int(node)),
                round(scaled_mass[node], 1),
                round(ctx.estimates.relative[node], 3),
                ctx.world.label_of(int(node)),
            ]
        )
    top_abs_good = sum(1 for row in rows if row[4] == "good")
    rel_order = [
        int(x)
        for x in np.argsort(-ctx.estimates.relative, kind="stable")
        if ctx.eligible_mask[x]
    ][:top]
    top_rel_good = sum(
        1 for node in rel_order if not ctx.world.spam_mask[node]
    )
    return TableResult(
        "S46",
        "Section 4.6: top hosts by estimated absolute mass",
        ["rank", "host", "M_est (scaled)", "m_est", "truth"],
        rows,
        notes=[
            f"good hosts in top-{top} by absolute mass: {top_abs_good} "
            "(paper: popular good hosts intermixed, e.g. "
            "www.macromedia.com at #3)",
            f"good hosts in top-{top} by relative mass (eligible): "
            f"{top_rel_good}",
        ],
    )


# ----------------------------------------------------------------------
# S442 — core repair
# ----------------------------------------------------------------------


def run_core_repair(
    ctx: ReproductionContext, portal_domain: str = "megaportal.com"
) -> TableResult:
    """Section 4.4.2: add the portal community's few hub hosts to the
    core and recompute — the portal members' relative mass must
    collapse while everyone else's barely moves (paper: mean absolute
    change 0.0298 among positive-mass hosts; Alibaba samples dropped
    from 0.99 to below 0.53)."""
    hubs = ctx.world.group(f"portal:{portal_domain}:hubs")
    members = ctx.world.group(f"portal:{portal_domain}")
    repaired = repair_core(ctx.core, hubs)
    after = estimate_spam_mass(ctx.graph, repaired, gamma=ctx.gamma)

    before_rel = ctx.estimates.relative
    after_rel = after.relative
    member_mask = np.zeros(ctx.graph.num_nodes, dtype=bool)
    member_mask[members] = True
    eligible_members = member_mask & ctx.eligible_mask
    others_positive = (
        ~member_mask & ctx.eligible_mask & (before_rel > 0)
    )
    member_before = float(before_rel[eligible_members].mean())
    member_after = float(after_rel[eligible_members].mean())
    others_change = float(
        np.abs(after_rel[others_positive] - before_rel[others_positive]).mean()
    ) if others_positive.any() else 0.0
    rows = [
        ["hub hosts added to core", len(hubs)],
        ["eligible portal members", int(eligible_members.sum())],
        ["portal mean m~ before", round(member_before, 4)],
        ["portal mean m~ after", round(member_after, 4)],
        ["mean |change| elsewhere (positive m~)", round(others_change, 4)],
    ]
    return TableResult(
        "S442",
        "Section 4.4.2: anomaly elimination by core repair",
        ["metric", "value"],
        rows,
        notes=[
            "paper: adding 12 alibaba.com hosts dropped the anomalous "
            "hosts' m~ from ~0.99 to <=0.53 while the average absolute "
            "change elsewhere was 0.0298",
        ],
    )


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------


def run_gamma_ablation(ctx: ReproductionContext) -> TableResult:
    """Section 3.5 ablation: the unscaled core jump ``v^{Ṽ⁺}`` makes
    ``‖p′‖ ≪ ‖p‖`` so absolute mass collapses onto PageRank and
    relative mass saturates near 1 for nearly everyone — scaling to
    ``‖w‖ = γ`` fixes it."""
    unscaled = estimate_spam_mass(ctx.graph, ctx.core, gamma=None)
    scaled = ctx.estimates
    spam_eligible = ctx.world.spam_mask & ctx.eligible_mask
    good_eligible = ~ctx.world.spam_mask & ctx.eligible_mask

    def describe(est: MassEstimates) -> List[float]:
        norm_ratio = float(est.core_pagerank.sum() / est.pagerank.sum())
        near_pr = float(
            (
                np.abs(est.absolute - est.pagerank)
                < 0.05 * np.maximum(est.pagerank, 1e-300)
            ).mean()
        )
        sep = float(
            est.relative[spam_eligible].mean()
            - est.relative[good_eligible].mean()
        )
        return [
            round(norm_ratio, 4),
            round(100 * near_pr, 1),
            round(float(est.relative[good_eligible].mean()), 3),
            round(float(est.relative[spam_eligible].mean()), 3),
            round(sep, 3),
        ]

    columns = [
        "variant",
        "||p'|| / ||p||",
        "% nodes with M~ ~= p",
        "mean m~ (good, eligible)",
        "mean m~ (spam, eligible)",
        "separation",
    ]
    rows = [
        ["unscaled v^core"] + describe(unscaled),
        [f"scaled w (gamma={ctx.gamma})"] + describe(scaled),
    ]
    return TableResult(
        "A1",
        "Ablation: gamma-scaling of the core jump vector (Section 3.5)",
        columns,
        rows,
        notes=[
            "paper: with the unscaled jump the absolute mass estimates "
            "were 'virtually identical to the PageRank scores for most "
            "hosts' — useless; scaling restores the good/spam separation",
        ],
    )


def run_solver_ablation(
    ctx: ReproductionContext,
    methods: Sequence[str] = ("jacobi", "gauss_seidel", "power", "bicgstab"),
    tol: float = 1e-10,
) -> TableResult:
    """Solver ablation (Section 2.2): the linear-system solvers reach
    the same PageRank vector; Gauss–Seidel converges in fewer sweeps
    than Jacobi (the "regularly faster" remark), and the power-iteration
    fixed point equals the normalized linear solution."""
    import time

    from ..core.pagerank import pagerank as run_pagerank

    graph = ctx.graph
    reference = None
    rows = []
    for method in methods:
        start = time.perf_counter()
        result = run_pagerank(
            graph, method=method, tol=tol, raise_on_divergence=False
        )
        elapsed = time.perf_counter() - start
        scores = result.scores
        normalized = scores / scores.sum()
        if reference is None:
            reference = normalized
            deviation = 0.0
        else:
            deviation = float(np.abs(normalized - reference).sum())
        rows.append(
            [
                method,
                result.iterations,
                round(elapsed, 4),
                f"{result.residual:.2e}",
                result.converged,
                f"{deviation:.2e}",
            ]
        )

    # the batched engine as a final row: the dangling-restricted block
    # kernel solving the same jump vector (stacked width 1)
    from ..perf import PagerankEngine

    engine = PagerankEngine()
    engine.bundle(graph)  # build outside the timed region, like the rows above
    start = time.perf_counter()
    batch = engine.solve_many(graph, [None], tol=tol, check=False)
    elapsed = time.perf_counter() - start
    normalized = batch.scores[:, 0] / batch.scores[:, 0].sum()
    deviation = float(np.abs(normalized - reference).sum())
    rows.append(
        [
            batch.method,
            int(batch.iterations[0]),
            round(elapsed, 4),
            f"{float(batch.residuals[0]):.2e}",
            bool(batch.converged[0]),
            f"{deviation:.2e}",
        ]
    )
    return TableResult(
        "A2",
        "Ablation: PageRank solver comparison",
        [
            "solver",
            "iterations",
            "seconds",
            "residual",
            "converged",
            "L1 dev. from jacobi (normalized)",
        ],
        rows,
        notes=[
            f"n = {graph.num_nodes}, tol = {tol}; the power method solves "
            "the eigenvector formulation, whose fixed point is the "
            "normalized linear solution (all solutions compared after "
            "normalization)",
        ],
    )


def run_baseline_comparison(ctx: ReproductionContext) -> TableResult:
    """Detector shoot-out on the same world: mass detection vs
    TrustRank-demotion read-out vs naive schemes vs degree outliers vs
    supporter-distribution deviation.

    Paper expectation: mass detection wins on precision at high τ; the
    link-pattern baselines catch only regular/auto-generated structures
    and the naive schemes need oracle in-neighbour labels yet still
    miss indirect boosting.
    """
    world = ctx.world
    graph = ctx.graph
    eligible = ctx.eligible_mask
    spam_mask = world.spam_mask

    detector = MassDetector(tau=0.98, rho=ctx.rho)
    mass_mask = detector.detect(ctx.estimates).candidate_mask

    trust = trustrank(
        graph,
        lambda node: not spam_mask[node],
        seed_budget=max(len(ctx.core) // 20, 20),
    )
    trust_mask = trustrank_detector(
        graph, trust.trust, ctx.estimates.pagerank, rho=ctx.rho
    )

    s1_mask = scheme1_mask(graph, np.flatnonzero(spam_mask)) & eligible
    s2_mask = scheme2_mask(graph, np.flatnonzero(spam_mask)) & eligible
    degree_mask = degree_outlier_mask(graph) & eligible
    supporter_mask = (
        SupporterDeviationDetector(threshold=0.85).detect(
            graph, ctx.estimates.pagerank
        )
        & eligible
    )

    s1_all = scheme1_mask(graph, np.flatnonzero(spam_mask))
    s2_all = scheme2_mask(graph, np.flatnonzero(spam_mask))
    degree_all = degree_outlier_mask(graph)
    supporter_all = SupporterDeviationDetector(threshold=0.85).detect(
        graph, ctx.estimates.pagerank
    )

    rows = []
    for name, elig_mask, all_mask in (
        ("mass (tau=0.98)", mass_mask, mass_mask),
        ("trustrank read-out", trust_mask, trust_mask),
        ("naive scheme 1 (oracle labels)", s1_mask, s1_all),
        ("naive scheme 2 (oracle labels)", s2_mask, s2_all),
        ("degree outliers", degree_mask, degree_all),
        ("supporter deviation", supporter_mask, supporter_all),
    ):
        restricted = detection_metrics(
            elig_mask, spam_mask, restrict_to=eligible
        )
        unrestricted = detection_metrics(all_mask, spam_mask)
        rows.append(
            [
                name,
                restricted["tp"],
                restricted["fp"],
                round(restricted["precision"], 4),
                round(restricted["recall"], 4),
                round(unrestricted["precision"], 4),
                round(unrestricted["recall"], 4),
            ]
        )
    return TableResult(
        "A4",
        "Ablation: detector comparison",
        [
            "detector",
            "tp (elig.)",
            "fp (elig.)",
            "prec (elig.)",
            "recall (elig.)",
            "prec (all)",
            "recall (all)",
        ],
        rows,
        notes=[
            "eligible = PageRank filter passed (the paper's population "
            "of interest: boosting beneficiaries); 'all' evaluates over "
            "every node",
            "naive schemes receive ground-truth in-neighbour labels "
            "(an oracle the realistic methods lack); mass detection at "
            "tau=0.98 trades recall for near-perfect precision and by "
            "design ignores expired-domain spam and sub-threshold hosts",
        ],
    )


def run_combined_ablation(
    ctx: ReproductionContext,
    blacklist_fractions: Sequence[float] = (0.05, 0.25, 0.5),
    seed: int = 17,
) -> TableResult:
    """Section 3.4 ablation: combining the white-list estimate with a
    partial black-list ``M̂ = PR(v^{Ṽ⁻})`` via the paper's average and
    the size-weighted variant."""
    rng = np.random.default_rng(seed)
    spam_nodes = ctx.world.spam_nodes()
    eligible = ctx.eligible_mask
    spam_mask = ctx.world.spam_mask
    spam_eligible = spam_mask & eligible
    good_eligible = ~spam_mask & eligible
    # the combined estimate averages two scales, so the saturated
    # tau = 0.98 of the pure white-list detector is no longer the right
    # operating point; compare all variants at a mid threshold instead
    tau = 0.45
    scaled_p = ctx.estimates.scaled_pagerank()

    def evaluate(relative: np.ndarray) -> List[float]:
        candidate = (scaled_p >= ctx.rho) & (relative >= tau)
        metrics = detection_metrics(
            candidate, spam_mask, restrict_to=eligible
        )
        separation = float(
            relative[spam_eligible].mean() - relative[good_eligible].mean()
        )
        return [
            round(separation, 4),
            round(metrics["precision"], 4),
            round(metrics["recall"], 4),
        ]

    rows = [["white-list only", "-"] + evaluate(ctx.estimates.relative)]
    for fraction in blacklist_fractions:
        take = max(int(round(fraction * len(spam_nodes))), 1)
        blacklist = rng.choice(spam_nodes, size=take, replace=False)
        # scale the spam-core jump to total weight 1 - gamma, the
        # Section 3.5 treatment applied to the black list
        black = blacklist_mass(ctx.graph, blacklist, gamma=ctx.gamma)
        for scheme_name, combined in (
            ("average", combine_average(ctx.estimates, black)),
            (
                "weighted",
                combine_weighted(
                    ctx.estimates,
                    black,
                    good_core_size=len(ctx.core),
                    spam_core_size=take,
                    est_good_size=int(ctx.gamma * ctx.graph.num_nodes),
                    est_spam_size=int(
                        (1 - ctx.gamma) * ctx.graph.num_nodes
                    ),
                ),
            ),
        ):
            rows.append(
                [f"combined ({scheme_name})", f"{100 * fraction:g}% blacklist"]
                + evaluate(combined.relative)
            )
    return TableResult(
        "A3",
        "Ablation: combined white-list + black-list estimators",
        ["estimator", "blacklist", "separation", "precision", "recall"],
        rows,
        notes=[
            "the paper proposes (M~ + M^)/2 and size-weighted variants "
            "when a spam core is also available (Section 3.4); "
            f"detection compared at tau = {tau}",
            "separation = mean relative mass of eligible spam minus "
            "eligible good",
        ],
    )
