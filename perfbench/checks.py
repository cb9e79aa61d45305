"""Correctness checks on the program's answers.

Each check returns a list of problems (empty when the answer is
right).  The references are computed here with NumPy, not with the
program's own kernels, and every check runs outside the timed
intervals.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from common import TOL


def pagerank_residuals(indptr, indices, scores, jumps, damping) -> np.ndarray:
    """L1 residual ‖(1−c)v + c·Tᵀp − p‖₁ of each column, with the
    substochastic ``T`` of the paper (dangling rows are zero)."""
    n = len(indptr) - 1
    outdeg = np.diff(indptr)
    inv = np.zeros(n)
    inv[outdeg > 0] = 1.0 / outdeg[outdeg > 0]
    residuals = []
    for j in range(scores.shape[1]):
        p = scores[:, j]
        pushed = np.bincount(
            indices, weights=np.repeat(p * inv, outdeg), minlength=n
        )
        residuals.append(
            float(np.abs((1.0 - damping) * jumps[:, j] + damping * pushed - p).sum())
        )
    return np.asarray(residuals)


def check_estimate(graph, core, estimates, *, tol: float = TOL) -> List[str]:
    """Both columns of a cold estimate solve their PageRank systems."""
    from repro.core.pagerank import scaled_core_jump_vector, uniform_jump_vector

    n = graph.num_nodes
    jumps = np.stack(
        [
            uniform_jump_vector(n),
            scaled_core_jump_vector(n, core, estimates.gamma),
        ],
        axis=1,
    )
    scores = np.stack([estimates.pagerank, estimates.core_pagerank], axis=1)
    res = pagerank_residuals(
        graph.indptr, graph.indices, scores, jumps, estimates.damping
    )
    return [
        f"{label} residual {r:.3e} exceeds 10·tol ({10 * tol:.0e})"
        for label, r in zip(("pagerank", "core"), res)
        if not r <= 10 * tol
    ]


def check_bitwise(reference, estimates, what: str) -> List[str]:
    problems = []
    for field in ("pagerank", "core_pagerank"):
        if not np.array_equal(
            getattr(reference, field), getattr(estimates, field)
        ):
            problems.append(f"{what}: {field} is not bitwise identical")
    return problems


def score_reply(estimates, num_nodes: int, node: int) -> Dict[str, object]:
    """What a ``score`` reply must carry for ``node``."""
    from repro.core import scale_scores

    p = estimates.pagerank
    return {
        "host": f"node{node}",
        "node": node,
        "pagerank": float(p[node]),
        "scaled_pagerank": float(
            scale_scores(p[node:node + 1], num_nodes, estimates.damping)[0]
        ),
        "core_pagerank": float(estimates.core_pagerank[node]),
        "absolute_mass": float(estimates.absolute[node]),
        "relative_mass": float(estimates.relative[node]),
    }


def check_score(reply: dict, expected: Dict[str, object]) -> List[str]:
    if not reply.get("ok"):
        return [f"score {expected['host']}: error reply {reply}"]
    wrong = [k for k, v in expected.items() if reply.get(k) != v]
    if wrong:
        return [f"score {expected['host']}: wrong {', '.join(wrong)}"]
    return []


def top_reply(estimates, num_nodes: int, k: int, tau: float,
              rho: float) -> dict:
    """A NumPy top-k over the checkpoint vectors: the same gates, ties
    in node order."""
    p = estimates.pagerank
    scaled = p * (num_nodes / (1.0 - estimates.damping))
    relative = estimates.relative
    eligible = np.flatnonzero((scaled >= rho) & (relative >= tau))
    order = eligible[np.argsort(-relative[eligible], kind="stable")][:k]
    return {
        "candidates": [
            {
                "host": f"node{int(node)}",
                "relative_mass": float(relative[node]),
                "scaled_pagerank": float(scaled[node]),
            }
            for node in order
        ],
        "total_eligible": int(len(eligible)),
    }


def check_top(reply: dict, expected: dict) -> List[str]:
    if not reply.get("ok"):
        return [f"top: error reply {reply}"]
    problems = []
    if reply.get("total_eligible") != expected["total_eligible"]:
        problems.append(
            f"top: {reply.get('total_eligible')} eligible, expected "
            f"{expected['total_eligible']}"
        )
    if reply.get("candidates") != expected["candidates"]:
        problems.append("top: candidates differ from the NumPy top-k")
    return problems


def check_health(reply: dict, fingerprint: str) -> List[str]:
    expected = {
        "ok": True, "ready": True, "mode": "full", "staleness": 0,
        "epoch": 0, "fingerprint": fingerprint,
    }
    wrong = [k for k, v in expected.items() if reply.get(k) != v]
    return [f"health: wrong {', '.join(wrong)}"] if wrong else []


def expected_fingerprint(num_nodes: int, keys: np.ndarray) -> str:
    """Structural fingerprint of the edge set ``keys`` (src·n + dst)."""
    from repro.graph.webgraph import compose_fingerprint, edge_digest

    keys = np.unique(keys)
    digest = edge_digest(num_nodes, keys // num_nodes, keys % num_nodes)
    return compose_fingerprint(num_nodes, len(keys), digest)


def check_stream(stats: dict, fingerprint: str, expected_fp: str,
                 estimates, cold, events_fed: int,
                 *, tol: float = TOL) -> List[str]:
    problems = []
    for key in ("dlq_entries", "windows_quarantined", "malformed",
                "late", "duplicates", "buffered"):
        if stats.get(key):
            problems.append(f"stream: {stats[key]} {key}")
    if stats.get("events_consumed") != events_fed:
        problems.append(
            f"stream: consumed {stats.get('events_consumed')} of "
            f"{events_fed} events"
        )
    if fingerprint != expected_fp:
        problems.append(
            f"stream: final fingerprint {fingerprint} differs from the "
            f"base graph with every event applied ({expected_fp})"
        )
    for field in ("pagerank", "core_pagerank"):
        diff = float(
            np.abs(getattr(estimates, field) - getattr(cold, field)).sum()
        )
        if not diff <= 10 * tol:
            problems.append(
                f"stream: {field} is {diff:.3e} (L1) from a cold estimate, "
                f"over 10·tol"
            )
    return problems


def edge_keys(indptr, indices) -> np.ndarray:
    n = len(indptr) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return src * n + np.asarray(indices, dtype=np.int64)


def apply_events(base_keys: np.ndarray, num_nodes: int,
                 events: Sequence[tuple]) -> np.ndarray:
    """The edge keys after applying ``(op, src, dst)`` events in order."""
    ops = np.asarray([e[0] == "+" for e in events], dtype=bool)
    keys = np.asarray(
        [e[1] * num_nodes + e[2] for e in events], dtype=np.int64
    )
    live = np.setdiff1d(base_keys, keys[~ops], assume_unique=True)
    return np.union1d(live, keys[ops])
