"""Operational helpers: solution snapshots, retries, chaos injectors.

See ``docs/runtime.md``:

* :mod:`repro.runtime.checkpoint` — the atomic ``solution.npz``
  snapshot that ``estimate --checkpoint-dir`` writes and ``update``,
  ``serve`` and ``stream ingest`` start from.
* :mod:`repro.runtime.retry` — deterministic :class:`BackoffPolicy`
  schedules and retry-with-backoff for transient failures.
* :mod:`repro.runtime.chaos` — deterministic fault injectors for the
  resilience test-suite (loaded on first attribute access).

The modules here import nothing from the numerical core, so they stay
importable from low layers such as :mod:`repro.graph.io` without
import cycles.
"""

from __future__ import annotations

from ..errors import (
    CheckpointError,
    ConvergenceError,
    GraphFormatError,
    GraphIOWarning,
    InjectedFault,
    SnapshotMismatchError,
    TruncatedFileError,
    WalError,
)
from .checkpoint import SolutionSnapshot, load_solution, save_solution
from .retry import BackoffPolicy, with_retries

__all__ = [
    # errors (re-exported for convenience)
    "CheckpointError",
    "ConvergenceError",
    "GraphFormatError",
    "GraphIOWarning",
    "InjectedFault",
    "SnapshotMismatchError",
    "TruncatedFileError",
    "WalError",
    "SolutionSnapshot",
    "save_solution",
    "load_solution",
    "BackoffPolicy",
    "with_retries",
    "chaos",
]


def __getattr__(name: str):
    # importlib.import_module, not ``from . import``: the latter ends in
    # a getattr on this package and would re-enter this hook forever.
    import importlib

    if name == "chaos":
        return importlib.import_module(f"{__name__}.chaos")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():  # pragma: no cover - introspection aid
    return sorted(set(globals()) | set(__all__))
