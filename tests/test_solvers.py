"""Unit tests for the linear PageRank solvers."""

import numpy as np
import pytest

from repro.core.solvers import (
    SOLVERS,
    bicgstab,
    direct,
    gauss_seidel,
    jacobi,
    power_iteration,
    solve,
)
from repro.graph import WebGraph, transition_matrix


@pytest.fixture()
def small_system():
    # 0 -> 1 -> 2 -> 0 cycle plus dangling 3 fed by 0
    graph = WebGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    tt = transition_matrix(graph).T.tocsr()
    v = np.full(4, 0.25)
    return graph, tt, v


def test_jacobi_satisfies_linear_system(small_system):
    _, tt, v = small_system
    result = jacobi(tt, v, damping=0.85, tol=1e-14)
    assert result.converged
    residual = result.scores - 0.85 * (tt @ result.scores) - 0.15 * v
    assert np.abs(residual).max() < 1e-12


def test_all_solvers_agree(small_system):
    _, tt, v = small_system
    reference = direct(tt, v).scores
    for name in ("jacobi", "gauss_seidel", "bicgstab"):
        scores = solve(name, tt, v, tol=1e-13).scores
        assert np.abs(scores - reference).max() < 1e-9, name


def test_power_iteration_is_normalized_linear_solution(small_system):
    _, tt, v = small_system
    linear = jacobi(tt, v, tol=1e-14).scores
    power = power_iteration(tt, v, tol=1e-14).scores
    assert power.sum() == pytest.approx(1.0)
    assert np.abs(power - linear / linear.sum()).max() < 1e-10


def test_power_iteration_requires_normalized_v(small_system):
    _, tt, v = small_system
    with pytest.raises(ValueError, match="normalized"):
        power_iteration(tt, v * 0.5)


def test_unnormalized_v_allowed_for_linear_solvers(small_system):
    _, tt, v = small_system
    half = jacobi(tt, 0.5 * v, tol=1e-14).scores
    full = jacobi(tt, v, tol=1e-14).scores
    # linearity: PR(v/2) = PR(v)/2
    assert np.abs(half - full / 2).max() < 1e-12


def test_gauss_seidel_converges_in_fewer_iterations(small_system):
    """The paper notes Gauss-Seidel is 'regularly faster' than Jacobi."""
    _, tt, v = small_system
    assert (
        gauss_seidel(tt, v, tol=1e-12).iterations
        < jacobi(tt, v, tol=1e-12).iterations
    )


def test_divergence_reported_not_hidden(small_system):
    _, tt, v = small_system
    result = jacobi(tt, v, tol=1e-15, max_iter=2)
    assert not result.converged
    assert result.iterations == 2
    assert result.residual > 0


def test_invalid_inputs_rejected(small_system):
    _, tt, v = small_system
    with pytest.raises(ValueError):
        jacobi(tt, v, damping=1.0)
    with pytest.raises(ValueError):
        jacobi(tt, v, damping=0.0)
    with pytest.raises(ValueError):
        jacobi(tt, v, tol=0.0)
    with pytest.raises(ValueError):
        jacobi(tt, -v)
    with pytest.raises(ValueError):
        jacobi(tt, np.zeros(4))
    with pytest.raises(ValueError):
        jacobi(tt, v * 5)  # norm > 1
    with pytest.raises(ValueError):
        jacobi(tt, v[:2])


def test_unknown_solver_name(small_system):
    _, tt, v = small_system
    with pytest.raises(ValueError, match="unknown solver"):
        solve("newton", tt, v)


def test_solver_registry_complete():
    assert set(SOLVERS) == {
        "jacobi",
        "gauss_seidel",
        "power",
        "direct",
        "bicgstab",
    }


def test_dangling_mass_leaks_in_linear_formulation(small_system):
    """In the linear formulation ||p|| <= ||v||: dangling nodes absorb
    rank (no dangling patch), which is why core-based norms need the
    Section 3.5 gamma treatment."""
    _, tt, v = small_system
    scores = jacobi(tt, v, tol=1e-14).scores
    assert scores.sum() < 1.0


def test_no_dangling_norm_preserved():
    graph = WebGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    tt = transition_matrix(graph).T.tocsr()
    v = np.full(3, 1 / 3)
    scores = jacobi(tt, v, tol=1e-14).scores
    assert scores.sum() == pytest.approx(1.0, abs=1e-12)


def test_bicgstab_matches_direct_on_larger_random_graph(rng):
    n = 200
    edges = [
        (int(u), int(v))
        for u, v in zip(rng.integers(0, n, 800), rng.integers(0, n, 800))
        if u != v
    ]
    graph = WebGraph.from_edges(n, edges)
    tt = transition_matrix(graph).T.tocsr()
    v = np.full(n, 1.0 / n)
    assert (
        np.abs(bicgstab(tt, v, tol=1e-13).scores - direct(tt, v).scores).max()
        < 1e-8
    )


# ----------------------------------------------------------------------
# robustness: check=
# ----------------------------------------------------------------------


def test_check_true_raises_convergence_error(small_system):
    from repro.errors import ConvergenceError

    _, tt, v = small_system
    with pytest.raises(ConvergenceError) as excinfo:
        solve("jacobi", tt, v, tol=1e-15, max_iter=3, check=True)
    # the best-effort result rides on the exception
    partial = excinfo.value.result
    assert partial is not None
    assert not partial.converged
    assert partial.iterations == 3
    # backward compatible: still a RuntimeError
    assert isinstance(excinfo.value, RuntimeError)


def test_check_false_keeps_silent_exhaust_path(small_system):
    _, tt, v = small_system
    result = solve("jacobi", tt, v, tol=1e-15, max_iter=3)
    assert not result.converged  # no exception
