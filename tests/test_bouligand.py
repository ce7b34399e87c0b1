import dataclasses

import numpy as np
import pytest

from bouligand_landweber import (
    ConvergenceError,
    ForwardProblem,
    apply_subderivative,
    build_linearized,
    build_mesh,
    m_inner,
    m_norm,
    solve_forward,
    tcc_ratio,
)
from bouligand_landweber.sparse_linalg import CG_TOL, norm
from conftest import matched_pattern_pair


@pytest.fixture(scope="module")
def problem3():
    return ForwardProblem.build(build_mesh(3))


def test_inactive_state_gives_plain_stiffness(problem3):
    op = build_linearized(problem3, np.array([-0.03125]))
    assert op.coeff.tolist() == [0.0]
    assert op.system.matvec(np.array([1.0])) == pytest.approx(np.array([4.0]))
    eta = apply_subderivative(op, problem3.M, np.array([1.0]))
    assert eta.values == pytest.approx(np.array([0.125 / 4.0]), abs=1e-14)


def test_active_state_adds_lumped_indicator(problem3):
    op = build_linearized(problem3, np.array([0.0294117647]))
    assert op.coeff.tolist() == [1.0]
    assert op.system.matvec(np.array([1.0])) == pytest.approx(np.array([4.25]))
    eta = apply_subderivative(op, problem3.M, np.array([1.0]))
    assert eta.values == pytest.approx(np.array([0.125 / 4.25]), abs=1e-14)


def test_zero_state_node_uses_strict_inequality(problem3):
    op = build_linearized(problem3, np.array([0.0]))
    assert op.coeff.tolist() == [0.0]


def test_zero_direction(problem17):
    sol = solve_forward(problem17, np.ones(problem17.mesh.n_interior))
    op = build_linearized(problem17, sol.y)
    eta = apply_subderivative(op, problem17.M, np.zeros(problem17.mesh.n_interior))
    assert np.array_equal(eta.values, np.zeros(problem17.mesh.n_interior))


def test_lumped_indicator_entries(problem17):
    rng = np.random.default_rng(1)
    y = rng.standard_normal(problem17.mesh.n_interior)
    op = build_linearized(problem17, y)
    expected = problem17.D * (y > 0.0)
    assert np.array_equal(op.system.shift, expected)


def test_self_adjoint_in_m_inner_product(problem33):
    M = problem33.M
    rng = np.random.default_rng(14)
    n = problem33.mesh.n_interior
    for _ in range(10):
        u = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
        op = build_linearized(problem33, solve_forward(problem33, u).y)
        h = rng.standard_normal(n)
        w = rng.standard_normal(n)
        lhs = m_inner(M, h, apply_subderivative(op, M, w).values)
        rhs = m_inner(M, w, apply_subderivative(op, M, h).values)
        assert abs(lhs - rhs) <= 1e-10 * (m_norm(M, h) * m_norm(M, w))


@pytest.mark.parametrize("n_h", [17, 33, 65])
def test_uniform_norm_bound(n_h):
    # the operator norm estimate L_bar = 5e-2 holds on random probes at every mesh
    problem = ForwardProblem.build(build_mesh(n_h))
    M = problem.M
    rng = np.random.default_rng(100 + n_h)
    n = problem.mesh.n_interior
    largest = 0.0
    for _ in range(20):
        u = rng.standard_normal(n) * rng.uniform(0.2, 5.0)
        op = build_linearized(problem, solve_forward(problem, u).y)
        w = rng.standard_normal(n)
        largest = max(largest, m_norm(M, apply_subderivative(op, M, w).values) / m_norm(M, w))
    print(f"n_h={n_h}: largest observed Rayleigh quotient {largest:.6f}")
    assert largest <= 5e-2


def test_matched_pattern_exact_linearization(problem33):
    # identical strict sign patterns make the subderivative linearization exact
    rng = np.random.default_rng(77)
    M = problem33.M
    for _ in range(10):
        u, u_hat = matched_pattern_pair(problem33, rng)
        y = solve_forward(problem33, u).y.values
        y_hat = solve_forward(problem33, u_hat).y.values
        op = build_linearized(problem33, y)
        linearized = apply_subderivative(op, M, u_hat - u).values
        assert m_norm(M, y_hat - y - linearized) <= 1e-10 * m_norm(M, u_hat - u)


def test_matched_pattern_tcc_ratio(problem33):
    rng = np.random.default_rng(78)
    for _ in range(5):
        u, u_hat = matched_pattern_pair(problem33, rng)
        assert tcc_ratio(problem33, u, u_hat).ratio <= 1e-9


def _counted_operator(problem):
    """A linearized operator at a mixed-sign state whose preconditioner counts its calls."""
    calls = []

    def precond(r):
        calls.append(1)
        return problem.precond(r)

    rng = np.random.default_rng(21)
    n = problem.mesh.n_interior
    y = solve_forward(problem, 3.0 * rng.standard_normal(n)).y
    op = build_linearized(dataclasses.replace(problem, precond=precond), y)
    assert 0.0 < np.mean(op.coeff) < 1.0
    return op, rng.standard_normal(n), calls


def _true_residual(op, M, w, eta) -> float:
    return norm(op.system.matvec(eta.values) - M @ w)


def test_default_solve_reaches_cg_tol(problem33):
    op, w, _ = _counted_operator(problem33)
    M = problem33.M
    eta = apply_subderivative(op, M, w)
    assert _true_residual(op, M, w, eta) <= CG_TOL * norm(M @ w)


def test_relative_floor_stops_early(problem33):
    # the Landweber step's floor: a true residual within 1e-8 ||M w||_2, for
    # fewer preconditioner applications than the exact default
    op, w, calls = _counted_operator(problem33)
    M = problem33.M
    apply_subderivative(op, M, w)
    exact_calls = len(calls)
    calls.clear()
    eta = apply_subderivative(op, M, w, rtol=1e-8)
    assert _true_residual(op, M, w, eta) <= 1e-8 * norm(M @ w)
    assert 0 < len(calls) < exact_calls


# a bool is an int to Python: True would otherwise be a floor of 1.0
@pytest.mark.parametrize(
    "rtol", [-1e-8, float("nan"), float("inf"), True, False, np.bool_(True)]
)
def test_relative_floor_must_be_finite_and_nonnegative(problem17, rtol):
    op = build_linearized(problem17, np.zeros(problem17.mesh.n_interior))
    with pytest.raises(ValueError, match="rtol"):
        apply_subderivative(op, problem17.M, np.ones(problem17.mesh.n_interior), rtol=rtol)


def test_relative_floor_keeps_the_overflow_error(problem17):
    # ||M w||_2 overflows, so the floor is not finite: the solve still ends
    # with the ConvergenceError that a Landweber run records
    op = build_linearized(problem17, np.zeros(problem17.mesh.n_interior))
    w = np.full(problem17.mesh.n_interior, 1e200)
    with pytest.raises(ConvergenceError, match="norm overflows"):
        apply_subderivative(op, problem17.M, w, rtol=1e-8)


def test_apply_leaves_the_direction_unchanged(problem33):
    op, w, _ = _counted_operator(problem33)
    before = w.tobytes()
    apply_subderivative(op, problem33.M, w)
    assert w.tobytes() == before


def test_dimension_mismatch(problem17):
    with pytest.raises(ValueError):
        build_linearized(problem17, np.zeros(4))


def test_fields_are_checked_where_they_enter(problem17):
    n = problem17.mesh.n_interior
    y = np.zeros(n)
    y[5] = np.nan
    with pytest.raises(ValueError, match="^y contains non-finite values: nan at interior node 5"):
        build_linearized(problem17, y)
    op = build_linearized(problem17, np.zeros(n))
    with pytest.raises(ValueError, match=rf"^w needs {n} interior values, got shape \(4,\)"):
        apply_subderivative(op, problem17.M, np.ones(4))
    with pytest.raises(ValueError, match="^w contains non-finite values: inf at interior node 0"):
        apply_subderivative(op, problem17.M, np.full(n, np.inf))
