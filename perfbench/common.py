"""Shared pieces of the 1M-host benchmark: the world, the probe, stats.

Everything here runs in the benchmark's own process and drives the
program only through its public functions.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
from scipy import sparse

#: Hosts of the full-size world (``WorldConfig.huge``'s floor).
HUGE_HOSTS = 1_000_000

#: Shards of the out-of-core store the ``estimate`` workload alternates to.
NUM_SHARDS = 8

#: Solver tolerance of every estimate (the library default).
TOL = 1e-12


def world_config(seed: int, hosts: int):
    """The seeded world: ``WorldConfig.huge`` at 1M hosts and above,
    the same shape knobs scaled down below (``bench_scale.py`` smoke
    runs build their sub-1M worlds this way)."""
    from repro.synth.scenario import WorldConfig

    if hosts >= HUGE_HOSTS:
        return WorldConfig.huge(seed=seed, num_base_hosts=hosts)
    return WorldConfig(
        seed,
        num_base_hosts=hosts,
        mean_outdegree=6.0,
        directory_size=min(5_000, hosts // 10),
        gov_size=min(20_000, hosts // 10),
    )


class World:
    """The generated edge chunks and good core of one seeded world."""

    def __init__(self, seed: int, hosts: int) -> None:
        from repro.synth.huge import huge_good_core, iter_huge_edges

        config = world_config(seed, hosts)
        self.num_nodes = config.num_base_hosts
        self.chunks = list(iter_huge_edges(config))
        self.edges = np.concatenate(self.chunks)
        self.core = huge_good_core(config)

    def graph(self):
        """The in-memory graph of the edges, for workloads whose set-up
        does not time graph construction.

        The same CSR ``WebGraph.from_edges`` builds (self-links dropped,
        duplicates collapsed, rows sorted), deduplicated with a sort:
        ``from_edges`` spends ~10 s in ``np.unique`` at 1M hosts, which
        the ``estimate`` workload times as its set-up.
        """
        from repro.graph import WebGraph

        n = self.num_nodes
        src, dst = self.edges[:, 0], self.edges[:, 1]
        keys = np.sort((src * n + dst)[src != dst])
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        indptr = np.zeros(n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(np.bincount(keys // n, minlength=n))
        return WebGraph(indptr, keys % n, validate=False)

    def core_names(self) -> List[str]:
        # the generated world is unnamed: hosts are "node<i>"
        return [f"node{int(i)}" for i in self.core]


def solve_checkpoint(graph, core, directory: Path):
    """Cold-estimate ``graph`` and save the converged checkpoint the
    way ``repro-spam estimate --checkpoint-dir`` leaves it."""
    from repro.core import estimate_spam_mass
    from repro.perf import PagerankEngine
    from repro.runtime.checkpoint import save_solution

    estimates = estimate_spam_mass(graph, core, engine=PagerankEngine())
    save_solution(
        directory,
        np.stack([estimates.pagerank, estimates.core_pagerank], axis=1),
        fingerprint=graph.structural_fingerprint(),
        extra={
            "damping": estimates.damping,
            "gamma": estimates.gamma,
            "labels": ["pagerank", "core"],
        },
    )
    return estimates


class Probe:
    """A fixed ~30 ms CPU yardstick, run only between ops.

    It mixes the three kinds of work the program does: a sparse CSR ×
    (n, 2) product (the solver's sweep), a pass over a fresh 1M-element
    array (allocation and streaming) and an interpreter loop.  Timings
    are reported through :func:`calibrate`, which damps the drift of
    the host's speed within and across runs.
    """

    ROWS = 1 << 20
    #: kept short: its time tracked the ops worst of the three parts
    LOOP = 20_000

    def __init__(self, seed: int = 20060912) -> None:
        rng = np.random.default_rng(seed)
        nnz = self.ROWS
        rows = np.sort(rng.integers(0, self.ROWS, nnz))
        cols = rng.integers(0, self.ROWS, nnz)
        self.matrix = sparse.csr_matrix(
            (rng.random(nnz), (rows, cols)), shape=(self.ROWS, self.ROWS)
        )
        self.block = rng.random((self.ROWS, 2))
        self.samples: List[float] = []

    def run_between_ops(self, times: int = 3) -> None:
        for _ in range(times):
            self.run()

    def run(self) -> float:
        start = time.perf_counter()
        product = self.matrix @ self.block
        fresh = np.empty(self.ROWS)
        fresh.fill(1.0)
        total = float(fresh.sum()) + float(product[0, 0])
        acc = 0
        for i in range(self.LOOP):
            acc += i & 7
        elapsed = time.perf_counter() - start
        if total < 0 or acc < 0:  # keeps both results live
            raise AssertionError("probe arithmetic went wrong")
        self.samples.append(elapsed)
        return elapsed

    def median(self) -> float:
        return median(self.samples)


def median(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        return float("nan")
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float], q: float) -> float:
    values = list(values)
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def process_peak_rss_mb(pid="self") -> float:
    """Peak RSS (``VmHWM``) of a live process in MiB, since it started
    or since :func:`reset_peak_rss`."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


class Report:
    """What one workload run measured, checked and counted."""

    def __init__(self) -> None:
        #: (name, value, unit, samples, note) lines of the readable table
        self.lines: List[tuple] = []
        #: end-to-end (trace 0) or per-layer (trace 1) result metrics
        self.metrics: Dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def line(self, name: str, value: float, unit: str, samples: int,
             note: str = "") -> None:
        self.lines.append((name, value, unit, samples, note))

    def metric(self, name: str, value: float, unit: str) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is {value}: too few samples")
        self.metrics[name] = (value, unit)

    def fail(self, *problems: str) -> None:
        """Count one failed op (or failed run-level check) with its
        problems; no problems, no failure."""
        if problems:
            self.failed += 1
            self.failures.extend(problems)


def op_time(kinds: Dict[str, List[float]], weights: Dict[str, float]) -> float:
    """Weighted mean of per-kind medians: the time of one op of the mix."""
    total = sum(weights.values())
    return sum(
        weights[kind] * median(kinds[kind]) for kind in weights
    ) / total


#: How in-process op times scale with probe time on a shared host: the
#: log-log slope of 2.5-s cold estimates against the probe's CSR
#: product was 0.44 (nine ops over 150 s on 2 vCPUs).  Dividing by the
#: probe outright (exponent 1) widened the spread of those ops from 15%
#: to 19% (coefficient of variation); the square root narrowed it to 7%.
PROBE_EXPONENT = 0.5


def calibrate(raw: float, probe_ref_ms: float, probe_median_s: float,
              exponent: float = PROBE_EXPONENT) -> float:
    """Express a duration in reference-machine units:
    ``raw × (probe_ref ÷ median probe time) ** exponent``."""
    return raw * ((probe_ref_ms / 1000.0) / probe_median_s) ** exponent
