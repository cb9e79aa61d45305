"""repro — reproduction of *Link Spam Detection Based on Mass Estimation*
(Gyöngyi, Berkhin, Garcia-Molina, Pedersen; VLDB 2006).

The library implements the paper's full stack:

* :mod:`repro.graph` — the host-level web-graph substrate;
* :mod:`repro.core` — linear PageRank, PageRank contributions, spam-mass
  estimation and the mass-based detector (Algorithm 2);
* :mod:`repro.baselines` — TrustRank, the naive labeling schemes and
  related-work detectors used for comparison;
* :mod:`repro.synth` — the synthetic Yahoo!-like world (host graph, spam
  farms, good-core assembly) standing in for the proprietary data set;
* :mod:`repro.eval` — sampling, grouping, precision curves and the
  experiment harness behind every table and figure;
* :mod:`repro.analysis` — power-law fitting and mass distributions;
* :mod:`repro.datasets` — the paper's worked example graphs;
* :mod:`repro.runtime` — converged-solution snapshots, retry/backoff
  and deterministic fault injection (see ``docs/runtime.md``).

Quickstart::

    from repro import detect_spam, figure2_graph

    example = figure2_graph()
    result = detect_spam(
        example.graph, example.good_core, tau=0.5, rho=1.5, gamma=None
    )
    print(sorted(result.candidates))
"""

from .core import (
    DEFAULT_DAMPING,
    DEFAULT_GAMMA,
    DetectionResult,
    MassDetector,
    MassEstimates,
    blacklist_mass,
    detect_spam,
    estimate_combined_mass,
    estimate_spam_mass,
    pagerank,
    scale_scores,
    true_relative_mass,
    true_spam_mass,
)
from .datasets import figure1_graph, figure2_graph
from .errors import (
    CheckpointError,
    ConvergenceError,
    GraphFormatError,
    GraphIOWarning,
    ReproError,
    TruncatedFileError,
)
from .graph import GraphBuilder, WebGraph

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ConvergenceError",
    "CheckpointError",
    "GraphFormatError",
    "TruncatedFileError",
    "GraphIOWarning",
    "DEFAULT_DAMPING",
    "DEFAULT_GAMMA",
    "WebGraph",
    "GraphBuilder",
    "pagerank",
    "scale_scores",
    "estimate_spam_mass",
    "blacklist_mass",
    "estimate_combined_mass",
    "true_spam_mass",
    "true_relative_mass",
    "MassEstimates",
    "MassDetector",
    "DetectionResult",
    "detect_spam",
    "figure1_graph",
    "figure2_graph",
]
