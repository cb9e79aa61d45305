"""Evaluation harness: sampling, grouping, metrics, experiment runners
and terminal reporting for every reproduced table and figure."""

from .experiment import (
    ReproductionContext,
    run_absolute_mass_ranking,
    run_baseline_comparison,
    run_combined_ablation,
    run_core_repair,
    run_figure1,
    run_figure2_contributions,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_gamma_ablation,
    run_graph_stats,
    run_solver_ablation,
    run_pagerank_distribution,
    run_table1,
    run_table2,
)
from .audit import CoreAuditFinding, CoreAuditReport, audit_core
from .latency import AttackOutcome, LatencyProbe
from .grouping import MassGroup, group_composition, split_into_groups
from .metrics import (
    PAPER_THRESHOLDS,
    PrecisionPoint,
    counts_above_thresholds,
    detection_metrics,
    paper_thresholds,
    precision_at,
    precision_curve,
)
from .reporting import render_curves, render_loglog, render_stacked_bars
from .adversarial import (
    attack_core_infiltration,
    attack_good_link_harvest,
    run_robustness_experiment,
)
from .stability import (
    resolve_hosts,
    run_stability_experiment,
    world_at_epoch,
)
from .registry import (
    EXPERIMENTS,
    is_contextual,
    list_experiments,
    run_experiment,
)
from .sensitivity import run_gamma_sensitivity, run_rho_sensitivity
from .trustrank_study import demotion_quality, run_trustrank_study
from .thresholds import (
    BootstrapInterval,
    bootstrap_precision,
    choose_tau,
    detection_volume,
)
from .results import TableResult
from .sampling import (
    LABEL_GOOD,
    LABEL_NONEXISTENT,
    LABEL_SPAM,
    LABEL_UNKNOWN,
    EvaluationSample,
    InspectionOracle,
    build_evaluation_sample,
    uniform_sample,
)

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
    "CoreAuditFinding",
    "CoreAuditReport",
    "audit_core",
    "AttackOutcome",
    "LatencyProbe",
    "MassGroup",
    "split_into_groups",
    "group_composition",
    "PAPER_THRESHOLDS",
    "paper_thresholds",
    "PrecisionPoint",
    "precision_at",
    "precision_curve",
    "counts_above_thresholds",
    "detection_metrics",
    "TableResult",
    "choose_tau",
    "bootstrap_precision",
    "detection_volume",
    "BootstrapInterval",
    "attack_good_link_harvest",
    "attack_core_infiltration",
    "run_robustness_experiment",
    "world_at_epoch",
    "resolve_hosts",
    "run_stability_experiment",
    "demotion_quality",
    "run_trustrank_study",
    "run_gamma_sensitivity",
    "run_rho_sensitivity",
    "EXPERIMENTS",
    "list_experiments",
    "is_contextual",
    "run_experiment",
    "render_stacked_bars",
    "render_curves",
    "render_loglog",
    "LABEL_GOOD",
    "LABEL_SPAM",
    "LABEL_UNKNOWN",
    "LABEL_NONEXISTENT",
    "EvaluationSample",
    "InspectionOracle",
    "uniform_sample",
    "build_evaluation_sample",
]
