import dataclasses
import json
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from bouligand_landweber import (
    GridFunction,
    LandweberConfig,
    NoiseSpec,
    RunRecord,
    add_noise,
    apply_subderivative,
    build_linearized,
    check_parameters,
    empirical_rate,
    exact_fields,
    m_norm,
    poisson_preconditioner,
    run,
    solve_forward,
)
from bouligand_landweber import forward, sparse_linalg
from bouligand_landweber import landweber as lw
from bouligand_landweber.forward import (
    FORWARD_RTOL,
    SINGLE_PRECISION_MIN_SIDE,
    error_certificate,
)
from conftest import CountingMatrix


def test_check_parameters_default_experiment_values():
    # exact arithmetic oracle: with mu=1/10, tau=7/5, Lam=720, L=1/20 the two
    # left-hand sides are 11/7 and 81/10, both positive (conditions violated)
    cfg = LandweberConfig(mu=0.1, tau=1.4, lbar=0.05)
    assert cfg.constant_step == pytest.approx(720.0, rel=1e-12)
    res = check_parameters(cfg, L=0.05)
    choice_exact = 2 * (Fraction(1, 10) + 1) / Fraction(7, 5) - (
        2 - Fraction(2, 10) - 720 * Fraction(1, 400)
    )
    aux_exact = -1 + Fraction(1, 10) + 5 * 720 * Fraction(1, 400)
    assert res.choice == pytest.approx(float(choice_exact), abs=1e-12)
    assert res.choice_aux == pytest.approx(float(aux_exact), abs=1e-12)
    assert float(choice_exact) == pytest.approx(1.5714285714285714, abs=1e-15)
    assert float(aux_exact) == 8.1
    assert res.satisfied == (False, False)


def test_check_parameters_satisfiable_regime():
    # Lam = (2 - 2 mu) / lbar^2 = 0.1
    cfg = LandweberConfig(mu=0.0, tau=2.0, lbar=np.sqrt(20.0))
    res = check_parameters(cfg, L=1.0)
    assert res.choice == pytest.approx(-0.9, abs=1e-12)
    assert res.choice_aux == pytest.approx(-0.5, abs=1e-12)
    assert res.satisfied == (True, True)


def test_check_parameters_limiting_case():
    # Lam = (2 - 2 mu) / lbar^2 = 1e-12
    cfg = LandweberConfig(mu=0.0, tau=1e12, lbar=np.sqrt(2e12))
    res = check_parameters(cfg, L=1.0)
    assert res.choice == pytest.approx(-2.0, abs=1e-10)
    assert res.choice_aux == pytest.approx(-1.0, abs=1e-10)


def test_check_parameters_requires_positive_norm_bound():
    for L in (0.0, -0.05, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="norm bound L must be finite and positive"):
            check_parameters(LandweberConfig(), L=L)


def test_config_validation():
    with pytest.raises(ValueError):
        LandweberConfig(mu=1.0)
    with pytest.raises(ValueError):
        LandweberConfig(tau=1.0)
    with pytest.raises(ValueError):
        LandweberConfig(max_iter=-1)
    with pytest.raises(ValueError):
        LandweberConfig(delta=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["tau", "rho", "lbar", "delta"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must"):
        LandweberConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5])
def test_config_max_iter_must_be_an_integer(value):
    with pytest.raises(ValueError, match="max_iter must be an integer >= 0"):
        LandweberConfig(max_iter=value)
    # any integer type is accepted and stored as a plain int, which records can serialize
    assert type(LandweberConfig(max_iter=np.int64(3)).max_iter) is int


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("field", ["mu", "tau", "rho", "lbar", "max_iter", "delta"])
def test_config_rejects_bools(field, value):
    with pytest.raises(ValueError, match=f"^{field} must .*, got {value!r}$"):
        LandweberConfig(**{field: value})


def test_config_stores_plain_floats_and_an_int():
    # any real number type is accepted and stored as the plain type a JSON record holds
    cfg = LandweberConfig(
        mu=0, tau=2, rho=np.float32(5.0), lbar=Fraction(1, 20), max_iter=np.int64(3), delta=0
    )
    assert [type(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)] == [float] * 4 + [
        int, float
    ]
    assert cfg == LandweberConfig(mu=0.0, tau=2.0, rho=5.0, lbar=0.05, max_iter=3, delta=0.0)


def test_config_rejects_a_step_that_underflows_to_zero():
    # (2 - 2 mu) / lbar^2 rounds to 0.0 here, and every step would leave u where it is
    with pytest.raises(ValueError, match="^mu and lbar must give a finite nonzero step"):
        LandweberConfig(mu=0.9999999999999999, lbar=1.34e154)
    # (2 - 2 mu) / lbar^2 overflows to inf here, and the first update would overflow
    with pytest.raises(ValueError, match="^mu and lbar must give a finite nonzero step"):
        LandweberConfig(lbar=1e-160)


def test_constant_step_default_value():
    assert LandweberConfig().constant_step == pytest.approx(720.0, rel=1e-12)


def test_empirical_rate():
    assert empirical_rate(0.3, 0.04) == pytest.approx(1.5, rel=1e-14)
    with pytest.raises(ValueError):
        empirical_rate(0.3, 0.0)


def test_discrepancy_satisfied_at_start(problem17):
    # tau*delta above the initial residual stops the run at N = 0
    u_exact, y_exact, _ = exact_fields(problem17.mesh)
    u0 = GridFunction(problem17.mesh, np.zeros(problem17.mesh.n_interior), "source")
    res0 = m_norm(problem17.M, y_exact.values - solve_forward(problem17, u0).y.values)
    cfg = LandweberConfig(delta=res0 / 1.4 * 1.01)
    record = run(problem17, y_exact, cfg, u0, u_exact)
    assert record.stopping_index == 0
    assert record.reason == "discrepancy"
    assert np.array_equal(record.final.values, u0.values)


def _noisy_run(problem, seed=5, target=1e-3):
    u_exact, y_exact, u_bar = exact_fields(problem.mesh)
    y_noisy, delta = add_noise(y_exact, NoiseSpec(seed=seed, mode="rescale", value=target), problem.M)
    cfg = LandweberConfig(delta=delta)
    return run(problem, y_noisy, cfg, u_bar, u_exact), cfg


@pytest.mark.parametrize("target", [1e-3, 1e-4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7, 11, 19])
def test_single_precision_preconditioner_keeps_the_run(problem33, seed, target):
    # the production (float32) preconditioner against the exact float64 one:
    # same stopping index, reason and Newton counts, errors to 1e-9 relative
    assert problem33.mesh.m >= SINGLE_PRECISION_MIN_SIDE  # production runs float32 here
    exact = dataclasses.replace(problem33, precond=poisson_preconditioner(problem33.mesh.m))
    record, _ = _noisy_run(problem33, seed=seed, target=target)
    oracle, _ = _noisy_run(exact, seed=seed, target=target)
    assert record.stopping_index == oracle.stopping_index
    assert record.reason == oracle.reason
    assert np.array_equal(record.ssn_counts, oracle.ssn_counts)
    np.testing.assert_allclose(record.rel_errors, oracle.rel_errors, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("target", [1e-3, 1e-4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7, 11, 19])
def test_moving_set_exit_keeps_the_run(problem33, monkeypatch, seed, target):
    # a warm Newton step whose active set moves stops its CG at
    # MOVING_SET_FORCING of its residual; against the same run without the
    # exit (the constant at 0): the same stopping index, reason and Newton
    # counts (no count moved over these cases), errors within 5e-12 relative
    # (4.96e-13 measured over these cases), and fewer preconditioner
    # applications
    applications = []
    pre = problem33.precond

    def counted(r, *coarse):
        applications.append(1)
        return pre(r, *coarse)

    problem = dataclasses.replace(problem33, precond=counted)
    early, _ = _noisy_run(problem, seed=seed, target=target)
    with_exit = len(applications)
    applications.clear()
    monkeypatch.setattr(forward, "MOVING_SET_FORCING", 0.0)
    reference, _ = _noisy_run(problem, seed=seed, target=target)
    assert (early.stopping_index, early.reason) == (reference.stopping_index, reference.reason)
    assert early.ssn_counts.tolist() == reference.ssn_counts.tolist()
    np.testing.assert_allclose(early.rel_errors, reference.rel_errors, rtol=5e-12, atol=0.0)
    assert with_exit < len(applications)


def test_noisy_run_record_invariants(problem33):
    record, cfg = _noisy_run(problem33)
    assert record.reason == "discrepancy"
    N = record.stopping_index
    assert record.residual_norms[N] <= cfg.tau * cfg.delta
    assert np.all(record.residual_norms[:N] > cfg.tau * cfg.delta)
    assert record.check_discrepancy()
    assert len(record.residual_norms) == N + 1
    assert len(record.ssn_counts) == N + 1
    assert record.total_ssn == int(np.sum(record.ssn_counts))


def test_fejer_monotonicity_up_to_stopping(problem33):
    record, _ = _noisy_run(problem33, seed=9, target=5e-4)
    errors = record.rel_errors
    assert np.all(np.diff(errors) <= 1e-12)


def test_noise_free_monotone_error(problem17):
    # inverse-crime data on a small mesh: error decreases monotonically
    u_exact, _, u_bar = exact_fields(problem17.mesh)
    y_data = solve_forward(problem17, u_exact).y
    cfg = LandweberConfig(delta=0.0, max_iter=40)
    record = run(problem17, y_data, cfg, u_bar, u_exact)
    assert record.reason == "max-iterations"
    assert np.all(np.diff(record.rel_errors) <= 1e-12)
    assert record.rel_errors[-1] < record.rel_errors[0]


def test_run_deterministic(problem33):
    rec1, _ = _noisy_run(problem33, seed=13)
    rec2, _ = _noisy_run(problem33, seed=13)
    assert np.array_equal(rec1.residual_norms, rec2.residual_norms)
    assert np.array_equal(rec1.rel_errors, rec2.rel_errors)
    assert np.array_equal(rec1.final.values, rec2.final.values)


def _count_matvecs(monkeypatch) -> list:
    """A list that grows by one at each `SpdSystem.matvec`, the products CG forms."""
    matvecs = []
    matvec = sparse_linalg.SpdSystem.matvec

    def counted_matvec(system, v, scratch=None):
        matvecs.append(1)
        return matvec(system, v, scratch)

    monkeypatch.setattr(sparse_linalg.SpdSystem, "matvec", counted_matvec)
    return matvecs


def test_run_forms_each_product_once(problem33, monkeypatch):
    # outside CG, a run of N steps and S Newton steps forms A y once per
    # Newton iterate (the cold start from zero needs none), once for each
    # Galerkin prediction (the solves from the third on), and A g once for
    # each increment a later solve uses: 2 N + S - 2 products.  M products:
    # M u per forward solve, M r once per residual, for its norm and the
    # step, and M (u* - u) per error norm, plus ||u*||_M once.  Here N = 14
    # and S = 21: 216 A + 46 M products with CG's 169; forming every product
    # afresh took 254 + 60
    u_exact, y_exact, u_bar = exact_fields(problem33.mesh)
    y_noisy, delta = add_noise(y_exact, NoiseSpec(seed=3, value=1e-3), problem33.M)
    A, M = CountingMatrix(problem33.A), CountingMatrix(problem33.M)
    matvecs = _count_matvecs(monkeypatch)
    problem = dataclasses.replace(problem33, A=A, M=M)
    record = run(problem, y_noisy, LandweberConfig(delta=delta), u_bar, u_exact)
    N, S = record.stopping_index, record.total_ssn
    assert (N, S, record.reason) == (14, 21, "discrepancy")
    assert A.products - len(matvecs) == 2 * N + S - 2
    assert M.products == 3 * (N + 1) + 1
    assert A.products + M.products <= 216 + 46


def test_run_without_prediction_forms_no_increment_product(problem33, monkeypatch):
    # at PREDICTION_DIRECTIONS = 0 no window keeps an increment, so none
    # costs its A g: outside CG, the run forms A y once per Newton step and
    # nothing more.  Here 307 products in all; forming and dropping the A g
    # of each of the 19 increments took 326
    monkeypatch.setattr(forward, "PREDICTION_DIRECTIONS", 0)
    u_exact, y_exact, u_bar = exact_fields(problem33.mesh)
    A = CountingMatrix(problem33.A)
    matvecs = _count_matvecs(monkeypatch)
    problem = dataclasses.replace(problem33, A=A)
    record = run(problem, y_exact, LandweberConfig(max_iter=20), u_bar, u_exact)
    assert (record.stopping_index, record.reason) == (20, "max-iterations")
    assert A.products - len(matvecs) == record.total_ssn
    assert A.products == 307


def _afresh(problem, sol, increments):
    """`sol` as the `previous` of a solve, with every stiffness product formed anew.

    Its increment is the newest of `increments` and its window holds the
    older ones, each with A g formed here; the solve appends the newest.
    """
    older, newest = list(increments)[:-1], increments[-1] if increments else None
    return dataclasses.replace(
        sol,
        A_y=problem.A @ sol.y.values,
        increment=newest,
        window=tuple((g, problem.A @ g) for g in older),
    )


def _fresh_products_reference(problem, y_data, cfg, u0, u_exact):
    """run()'s loop with every product formed afresh, through the public calls only.

    Each forward solve gets a `previous` whose A y and A g are formed anew
    from the loop's own increments, each residual norm comes from m_norm
    and each step from the positional apply_subderivative.  Returns the
    residuals, the errors, the Newton counts and the last iterate.
    """
    M, data = problem.M, y_data.values
    u, norm_exact = u0.values.copy(), m_norm(M, u_exact)
    residuals, errors, counts = [], [], []
    sol, increments = None, deque(maxlen=forward.PREDICTION_DIRECTIONS)
    certificate, smallest = error_certificate(problem.mesh), math.inf
    for n in range(cfg.max_iter + 1):
        tol = 0.0 if n == 0 else lw.FORWARD_ERROR_FRACTION * smallest / certificate
        previous = None if sol is None else _afresh(problem, sol, increments)
        y_prev = None if sol is None else sol.y.values
        sol = solve_forward(problem, u, previous, tol)
        if y_prev is not None:
            increments.append(sol.y.values - y_prev)
        residual_vec = data - sol.y.values
        residuals.append(m_norm(M, residual_vec))
        smallest = min(smallest, residuals[-1])
        errors.append(m_norm(M, u_exact.values - u) / norm_exact)
        counts.append(sol.ssn_iterations)
        if residuals[-1] <= cfg.tau * cfg.delta or n == cfg.max_iter:
            break
        op = build_linearized(problem, sol.y)
        step = apply_subderivative(op, M, residual_vec, lw.SUBDERIVATIVE_RTOL)
        u = u + cfg.constant_step * step.values
    return residuals, errors, counts, u


@pytest.mark.parametrize("case", ["noisy", "noise-free"])
def test_kept_products_keep_the_run_bit_for_bit(problem33, case):
    # run() keeps A y, A g and M r between their uses; against the loop that
    # forms each afresh, every record and the final iterate keep their bits
    u_exact, y_exact, u_bar = exact_fields(problem33.mesh)
    if case == "noisy":
        y_data, delta = add_noise(y_exact, NoiseSpec(seed=3, value=1e-3), problem33.M)
        cfg, u0 = LandweberConfig(delta=delta), u_bar
    else:
        cfg = LandweberConfig(max_iter=40)
        y_data, u0 = y_exact, GridFunction(problem33.mesh, np.zeros_like(u_bar.values))
    record = run(problem33, y_data, cfg, u0, u_exact)
    residuals, errors, counts, u = _fresh_products_reference(problem33, y_data, cfg, u0, u_exact)
    assert record.reason == ("discrepancy" if case == "noisy" else "max-iterations")
    assert record.residual_norms.tobytes() == np.array(residuals).tobytes()
    assert record.rel_errors.tobytes() == np.array(errors).tobytes()
    assert record.ssn_counts.tolist() == counts
    assert record.final.values.tobytes() == u.tobytes()


def _steps_by_hand(problem, y_data, cfg, u0, u_exact):
    """run()'s record and stopping rule around lw.step, driven from the first Iterate.

    u0 is a source or its forward solution, as run() takes it.  Returns the
    residuals, the errors, the Newton counts and every Iterate.
    """
    data, M = y_data.values, problem.M
    sol = u0 if isinstance(u0, forward.ForwardSolution) else solve_forward(problem, u0)
    iterates = [lw.Iterate.at(problem, data, sol)]
    residuals, errors, counts = [], [], []
    certificate = error_certificate(problem.mesh)
    while True:
        it = iterates[-1]
        residuals.append(it.residual)
        errors.append(m_norm(M, u_exact.values - it.solution.u) / m_norm(M, u_exact))
        counts.append(it.solution.ssn_iterations)
        if it.residual <= cfg.tau * cfg.delta or len(residuals) > cfg.max_iter:
            return residuals, errors, counts, iterates
        tol = lw.FORWARD_ERROR_FRACTION * min(residuals) / certificate
        iterates.append(lw.step(problem, it, data, cfg.constant_step, tol))


def _case(problem, case):
    """(y_data, cfg, u0) of a noisy run from u_bar, a noise-free run from
    zero, or the noisy run from the forward solution of u_bar."""
    _, y_exact, u_bar = exact_fields(problem.mesh)
    if case == "noise-free":
        zero = GridFunction(problem.mesh, np.zeros_like(u_bar.values))
        return y_exact, LandweberConfig(max_iter=40), zero
    y_noisy, delta = add_noise(y_exact, NoiseSpec(seed=3, value=1e-3), problem.M)
    u0 = solve_forward(problem, u_bar) if case == "start-solution" else u_bar
    return y_noisy, LandweberConfig(delta=delta), u0


@pytest.mark.parametrize("directions", [0, 1, forward.PREDICTION_DIRECTIONS])
@pytest.mark.parametrize("case", ["noisy", "noise-free", "start-solution"])
def test_steps_by_hand_reproduce_the_run(problem33, monkeypatch, case, directions):
    # lw.step, driven from the first Iterate with run()'s stopping rule, gives
    # run()'s record and final iterate bit for bit; each solution's window
    # holds the increments its solve used, at most PREDICTION_DIRECTIONS
    # (none at 0: a window of the last 0 pairs is empty, not all of them),
    # and its increment is y_n - y_{n-1}, the newest of the next window
    monkeypatch.setattr(forward, "PREDICTION_DIRECTIONS", directions)
    u_exact = exact_fields(problem33.mesh)[0]
    y_data, cfg, u0 = _case(problem33, case)
    record = run(problem33, y_data, cfg, u0, u_exact)
    residuals, errors, counts, iterates = _steps_by_hand(problem33, y_data, cfg, u0, u_exact)
    assert record.reason == ("max-iterations" if case == "noise-free" else "discrepancy")
    assert record.residual_norms.tobytes() == np.array(residuals).tobytes()
    assert record.rel_errors.tobytes() == np.array(errors).tobytes()
    assert record.ssn_counts.tolist() == counts
    # a run from a solution counts the Newton steps that solution took
    assert counts[0] == iterates[0].solution.ssn_iterations >= 1
    assert record.final.values.tobytes() == iterates[-1].solution.u.tobytes()
    solutions = [it.solution for it in iterates]
    windows = [len(sol.window) for sol in solutions]
    assert windows == [min(max(n - 1, 0), directions) for n in range(len(solutions))]
    assert solutions[0].increment is None
    for before, sol in zip(solutions, solutions[1:]):
        increment = sol.y.values - before.y.values
        assert sol.increment.tobytes() == increment.tobytes()
    for sol, after in zip(solutions[1:], solutions[2:]):
        assert directions == 0 or after.window[-1][0] is sol.increment


def _iterate_bits(it):
    """Every array and number of an Iterate, as bytes and values."""
    sol = it.solution
    arrays = [sol.u, it.r, it.M_r, sol.y.values, sol.A_y]
    arrays += [sol.increment, *(a for pair in sol.window for a in pair)]
    return [a.tobytes() for a in arrays] + [it.residual, it.solution.ssn_iterations]


def test_step_is_a_function_of_its_iterate(problem33):
    # the same Iterate stepped twice gives the same bits, those of the run,
    # and keeps its own arrays, so iterations can step in lockstep or in threads
    u_exact = exact_fields(problem33.mesh)[0]
    y_data, cfg, u0 = _case(problem33, "noisy")
    residuals, _, _, iterates = _steps_by_hand(problem33, y_data, cfg, u0, u_exact)
    it = iterates[5]
    assert len(it.solution.window) == forward.PREDICTION_DIRECTIONS
    before = _iterate_bits(it)
    tol = lw.FORWARD_ERROR_FRACTION * min(residuals[:6]) / error_certificate(problem33.mesh)
    w = cfg.constant_step
    first, second = [lw.step(problem33, it, y_data.values, w, tol) for _ in range(2)]
    assert _iterate_bits(first) == _iterate_bits(second) == _iterate_bits(iterates[6])
    assert _iterate_bits(it) == before


def _cold_start_reference(problem, y_data, cfg, u0):
    """Landweber loop with every forward solve started from zero, and run()'s step.

    Returns the residual history, the total Newton count and the last iterate.
    """
    u = u0.values.copy()
    residuals, total_ssn = [], 0
    for n in range(cfg.max_iter + 1):
        sol = solve_forward(problem, u)
        residual_vec = y_data.values - sol.y.values
        residuals.append(m_norm(problem.M, residual_vec))
        total_ssn += sol.ssn_iterations
        if residuals[-1] <= cfg.tau * cfg.delta or n == cfg.max_iter:
            break
        op = build_linearized(problem, sol.y)
        step = apply_subderivative(op, problem.M, residual_vec, rtol=lw.SUBDERIVATIVE_RTOL)
        u = u + cfg.constant_step * step.values
    return np.array(residuals), total_ssn, u


def test_warm_start_agrees(problem33):
    # run() warm-starts each Newton solve from the previous state; the state
    # it converges to, and so the whole iteration, must not depend on that
    u_exact, y_exact, u_bar = exact_fields(problem33.mesh)
    y_noisy, delta = add_noise(y_exact, NoiseSpec(seed=4, mode="rescale", value=1e-3), problem33.M)
    cfg = LandweberConfig(delta=delta)
    record = run(problem33, y_noisy, cfg, u_bar, u_exact)
    residuals, total_ssn, u_ref = _cold_start_reference(problem33, y_noisy, cfg, u_bar)
    assert record.reason == "discrepancy"
    assert record.stopping_index == len(residuals) - 1
    np.testing.assert_allclose(record.residual_norms, residuals, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(record.final.values - u_ref)) <= 1e-10
    assert record.total_ssn <= total_ssn


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7, 11, 19])
def test_inexact_step_agrees_with_exact_step(problem33, monkeypatch, seed):
    # the step's floor SUBDERIVATIVE_RTOL changes no stopping index, reason or
    # Newton count.  At every noise level the final iterate moves by about 1e-10
    # of ||u*||_M and the relative errors by about 1e-11; at target 1e-4 that is
    # 2e-9 of the error itself (5e-3), so there the errors are compared on the
    # scale of ||u*||_M, which they are relative to
    targets = (1e-3, 1e-4)
    inexact = [_noisy_run(problem33, seed=seed, target=t)[0] for t in targets]
    monkeypatch.setattr(lw, "SUBDERIVATIVE_RTOL", 0.0)
    exact = [_noisy_run(problem33, seed=seed, target=t)[0] for t in targets]
    for record, reference in zip(inexact, exact):
        assert (record.stopping_index, record.reason) == (
            reference.stopping_index, reference.reason
        )
        assert record.ssn_counts.tolist() == reference.ssn_counts.tolist()
    np.testing.assert_allclose(inexact[0].rel_errors, exact[0].rel_errors, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(inexact[1].rel_errors, exact[1].rel_errors, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("target", [1e-3, 1e-4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7, 11, 19])
def test_predicted_newton_start_keeps_the_run(problem33, monkeypatch, seed, target):
    # the Galerkin prediction along the last state increments only moves each
    # Newton start: same stopping index and reason as starting from the
    # previous state, no more Newton steps, and errors that agree to 1e-11
    # relative (1.1e-13 measured over these cases)
    predicted, _ = _noisy_run(problem33, seed=seed, target=target)
    monkeypatch.setattr(forward, "PREDICTION_DIRECTIONS", 0)
    reference, _ = _noisy_run(problem33, seed=seed, target=target)
    assert (predicted.stopping_index, predicted.reason) == (
        reference.stopping_index, reference.reason
    )
    assert predicted.total_ssn <= reference.total_ssn
    np.testing.assert_allclose(predicted.rel_errors, reference.rel_errors, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("target", [1e-3, 1e-4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7, 11, 19])
def test_forward_error_floor_keeps_the_run(problem33, monkeypatch, seed, target):
    # stopping each forward solve at FORWARD_ERROR_FRACTION of the smallest
    # earlier residual changes no stopping index, reason or Newton count, and
    # the errors agree to 1e-11 relative (1.14e-12 measured over these cases;
    # FORWARD_ERROR_FRACTION = 1e-6 reads 2.0e-11)
    floored, _ = _noisy_run(problem33, seed=seed, target=target)
    monkeypatch.setattr(lw, "FORWARD_ERROR_FRACTION", 0.0)
    reference, _ = _noisy_run(problem33, seed=seed, target=target)
    assert (floored.stopping_index, floored.reason) == (
        reference.stopping_index, reference.reason
    )
    assert floored.ssn_counts.tolist() == reference.ssn_counts.tolist()
    np.testing.assert_allclose(floored.rel_errors, reference.rel_errors, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("target, lbar", [(1e-3, 0.05), (1e-4, 0.05), (1e-3, 0.045)])
def test_forward_solves_of_a_run_are_within_their_certificate(
    problem33, monkeypatch, target, lbar
):
    # solve n gets the floor kappa min_{k<n} ||r_k||_M / C, so its state is
    # within kappa min_{k<n} ||r_k||_M of the exact one; against a solve of
    # the same u at the relative stop alone, which is itself within C times
    # its residual, that is the distance allowed.  The first solve has no
    # floor and is that solve bit for bit.  The floor decides every later
    # solve here, and the distances stay below 1.4e-5 of what is allowed.
    # lbar = 0.045 makes the step too long: the residual rises at 18 of the
    # 25 steps before the run diverges, so the smallest earlier residual is
    # often not the last one
    calls = []

    def recording_solve(problem, u, previous=None, tol=0.0):
        sol = solve_forward(problem, u, previous, tol)
        calls.append((u.copy(), tol, sol))
        return sol

    monkeypatch.setattr(lw, "solve_forward", recording_solve)
    u_exact, y_exact, u_bar = exact_fields(problem33.mesh)
    noise = NoiseSpec(seed=3, mode="rescale", value=target)
    y_noisy, delta = add_noise(y_exact, noise, problem33.M)
    record = run(problem33, y_noisy, LandweberConfig(delta=delta, lbar=lbar), u_bar, u_exact)
    certificate = error_certificate(problem33.mesh)
    assert len(calls) == len(record.residual_norms) > 10
    for n, (u, tol, sol) in enumerate(calls):
        reference = solve_forward(problem33, u)
        if n == 0:
            assert tol == 0.0
            assert sol.y.values.tobytes() == reference.y.values.tobytes()
            continue
        allowed = lw.FORWARD_ERROR_FRACTION * np.min(record.residual_norms[:n])
        assert tol == allowed / certificate
        assert tol > FORWARD_RTOL * np.linalg.norm(problem33.M @ u)
        distance = m_norm(problem33.M, sol.y.values - reference.y.values)
        assert distance <= allowed + certificate * reference.final_residual


def test_forward_failure_truncates(problem17, monkeypatch):
    from bouligand_landweber import forward

    monkeypatch.setattr(forward, "SSN_MAX_ITER", 0)
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    record = run(problem17, y_exact, LandweberConfig(), u_bar, u_exact)
    assert record.reason == "forward-failure"
    assert len(record.residual_norms) == 0
    assert record.stopping_index == -1


def test_divergence_ends_run(problem65):
    # step 1.8e6: the first update overshoots and the residual grows
    u_exact, y_exact, u_bar = exact_fields(problem65.mesh)
    record = run(problem65, y_exact, LandweberConfig(lbar=1e-3, max_iter=20), u_bar, u_exact)
    assert record.reason == "divergence"
    assert record.stopping_index == 1
    assert record.residual_norms[1] > record.residual_norms[0]
    assert record.check_discrepancy()


def _overflowing_update(monkeypatch, problem):
    """Stand in for the subderivative apply with 1e308 per node, which the step 720 overflows."""
    update = GridFunction(problem.mesh, np.full(problem.mesh.n_interior, 1e308))
    monkeypatch.setattr(lw, "apply_subderivative", lambda *args, **kwargs: update)


def test_overflowing_update_ends_run(problem17, monkeypatch):
    # an update of 1e308 per node times the step 720 is not finite, so u_1 is not
    _overflowing_update(monkeypatch, problem17)
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    cfg = LandweberConfig(max_iter=5)
    record = run(problem17, y_exact, cfg, u_bar, u_exact)
    assert record.reason == "divergence"
    assert record.stopping_index == 0
    assert len(record.residual_norms) == 1
    assert np.array_equal(record.final.values, u_bar.values)


def test_overflowing_source_ends_run(problem17):
    # every entry is finite, but ||M u0||_2 overflows: the first forward solve
    # fails at once and the run ends with a named reason
    _, y_exact, _ = exact_fields(problem17.mesh)
    u0 = 1e200 * np.sin(np.arange(problem17.mesh.n_interior, dtype=float))
    record = run(problem17, y_exact, LandweberConfig(), u0)
    assert record.reason == "forward-failure"
    assert record.stopping_index == -1


def test_update_failure_truncates_after_residual(problem17, monkeypatch):
    from bouligand_landweber import ConvergenceError

    def boom(op, M, w, rtol=0.0, *, M_w=None):
        raise ConvergenceError("stalled", residual=1.0)

    monkeypatch.setattr(lw, "apply_subderivative", boom)
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    record = lw.run(problem17, y_exact, LandweberConfig(), u_bar, u_exact)
    assert record.reason == "forward-failure"
    assert len(record.residual_norms) == 1  # the starting residual was recorded
    assert record.stopping_index == 0


def test_record_roundtrip(tmp_path, problem33):
    record, cfg = _noisy_run(problem33, seed=2)
    base = tmp_path / "run"
    csv_path, json_path = record.save(base)
    assert csv_path.exists() and json_path.exists()
    back = RunRecord.load(base)
    assert np.array_equal(back.residual_norms, record.residual_norms)
    assert np.array_equal(back.rel_errors, record.rel_errors)
    assert np.array_equal(back.ssn_counts, record.ssn_counts)
    assert back.stopping_index == record.stopping_index
    assert back.reason == record.reason
    assert back.delta == record.delta
    assert back.tau == record.tau
    assert back.config == record.config
    assert back.parameter_check == record.parameter_check == check_parameters(cfg, cfg.lbar)
    assert record.final is not None and back.final is None
    # the stopping rule is re-checkable from the serialized record alone
    assert back.check_discrepancy()


def test_record_roundtrip_without_exact(tmp_path, problem17):
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    y_noisy, delta = add_noise(y_exact, NoiseSpec(seed=0, mode="rescale", value=1e-2), problem17.M)
    record = run(problem17, y_noisy, LandweberConfig(delta=delta), u_bar)
    assert record.rel_errors is None
    base = tmp_path / "run"
    record.save(base)
    back = RunRecord.load(base)
    assert back.rel_errors is None
    assert np.array_equal(back.residual_norms, record.residual_norms)


def test_record_roundtrip_of_overflowing_step(tmp_path, problem9, monkeypatch):
    # the update overflows; the stored summary must still be strict JSON
    # that load accepts
    _overflowing_update(monkeypatch, problem9)
    u_exact, y_exact, u_bar = exact_fields(problem9.mesh)
    cfg = LandweberConfig(max_iter=3)
    record = run(problem9, y_exact, cfg, u_bar, u_exact)
    assert record.reason == "divergence"
    base = tmp_path / "run"
    _, json_path = record.save(base)

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    json.loads(json_path.read_text(), parse_constant=reject)
    back = RunRecord.load(base)
    assert back.parameter_check == record.parameter_check
    assert back.parameter_check.choice_aux == pytest.approx(-1.0 + 0.1 + 5.0 * 1.8, abs=1e-12)
    assert back.reason == record.reason
    assert np.array_equal(back.residual_norms, record.residual_norms)


def test_record_load_reads_older_summaries(tmp_path, problem17):
    # files written before the parameter check was stored carry the removed
    # config keys steps/lam/Lam/warm_start and no "parameter_check"
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    cfg = LandweberConfig(max_iter=2)
    record = run(problem17, y_exact, cfg, u_bar, u_exact)
    base = tmp_path / "run"
    _, json_path = record.save(base)
    summary = json.loads(json_path.read_text())
    del summary["parameter_check"]
    summary["config"].update(steps=None, lam=720.0, Lam=720.0, warm_start=False)
    json_path.write_text(json.dumps(summary))
    back = RunRecord.load(base)
    assert back.config == cfg
    assert back.parameter_check == check_parameters(cfg, cfg.lbar)
    assert np.array_equal(back.residual_norms, record.residual_norms)


def test_record_load_reads_integer_valued_fields(tmp_path, problem9):
    # a config built from integers, as LandweberConfig(tau=2), was once stored
    # with integers; the record holds the floats of the same values
    u_exact, y_exact, u_bar = exact_fields(problem9.mesh)
    record = run(problem9, y_exact, LandweberConfig(tau=2, max_iter=1), u_bar, u_exact)
    base = tmp_path / "run"
    _, json_path = record.save(base)
    summary = json.loads(json_path.read_text())
    summary["tau"] = summary["config"]["tau"] = 2
    json_path.write_text(json.dumps(summary))
    back = RunRecord.load(base)
    assert back.config == record.config
    assert type(back.tau) is float and back.tau == 2.0


# run_noise_free(9, "zero", 2) as saved before load compared every summary key
_SAVED_CSV = (
    "n,residual_M,rel_error,ssn_iters\r\n"
    "0,0.025210970904030201,1,1\r\n"
    "1,0.019078722648622766,0.76194244544628442,3\r\n"
    "2,0.014554461733892944,0.59110595245209707,1\r\n"
)
_SAVED_SUMMARY = {
    "config": {"mu": 0.1, "tau": 1.4, "rho": 5.0, "lbar": 0.05, "max_iter": 2, "delta": 0.0},
    "delta": 0.0,
    "tau": 1.4,
    "stopping_index": 2,
    "reason": "max-iterations",
    "ssn_total": 5,
    "parameter_check": {
        "choice": 1.5714285714285716, "choice_aux": 8.1, "satisfied": [False, False]
    },
}


def test_saved_record_loads_and_saves_the_same_bytes(tmp_path):
    base = tmp_path / "saved"
    csv_path, json_path = base.with_suffix(".csv"), base.with_suffix(".json")
    csv_path.write_bytes(_SAVED_CSV.encode())
    json_path.write_text(json.dumps(_SAVED_SUMMARY, indent=2) + "\n")
    saved = csv_path.read_bytes(), json_path.read_bytes()
    record = RunRecord.load(base)
    assert record.config == LandweberConfig(max_iter=2)
    assert record.ssn_counts.tolist() == [1, 3, 1]
    assert record.rel_errors[0] == 1.0
    resaved = record.save(tmp_path / "again")
    assert tuple(path.read_bytes() for path in resaved) == saved


def _start(problem, kind):
    """u0 of a kind: u_bar, zero, or u_bar scaled below TINY_RHS (its ||M u||_2 underflows)."""
    u_bar = exact_fields(problem.mesh)[2].values
    return {"source": u_bar, "zero": np.zeros_like(u_bar), "tiny": 1e-165 * u_bar}[kind]


@pytest.mark.parametrize("kind", ["source", "zero", "tiny"])
def test_run_from_its_start_solution_keeps_the_record(problem33, monkeypatch, kind):
    # a run from solve_forward(problem, u0) makes no solve of u0 and has the
    # record of the run from u0: the same bits in every residual, error and
    # the final iterate, and the same Newton counts, the solution's at n = 0
    u_exact, y_exact, _ = exact_fields(problem33.mesh)
    y_noisy, delta = add_noise(y_exact, NoiseSpec(seed=3, value=1e-3), problem33.M)
    cfg, u0 = LandweberConfig(delta=delta, max_iter=12), _start(problem33, kind)
    start = solve_forward(problem33, u0)
    solved = run(problem33, y_noisy, cfg, u0, u_exact)
    calls = []

    def recording_solve(problem, u, previous=None, tol=0.0):
        calls.append(previous)
        return solve_forward(problem, u, previous, tol)

    monkeypatch.setattr(lw, "solve_forward", recording_solve)
    given = run(problem33, y_noisy, cfg, start, u_exact)
    assert solved.stopping_index >= 2
    assert len(calls) == given.stopping_index and None not in calls
    assert given.residual_norms.tobytes() == solved.residual_norms.tobytes()
    assert given.rel_errors.tobytes() == solved.rel_errors.tobytes()
    assert given.final.values.tobytes() == solved.final.values.tobytes()
    assert given.ssn_counts.tolist() == solved.ssn_counts.tolist()
    assert given.ssn_counts[0] == start.ssn_iterations >= 1
    assert given.reason == solved.reason


@pytest.mark.parametrize("scale", [1e-165, 1e-310, 1e-320, 5e-324])
def test_run_accepts_the_solve_of_a_tiny_start(problem33, scale, monkeypatch):
    # below TINY_RHS the state is solved scaled and scaled back, which rounds
    # its entries below the normal range; the solution keeps the unscaled u0,
    # and the run from it is the run from u0, counts included
    _, y_exact, u_bar = exact_fields(problem33.mesh)
    u0 = scale * u_bar.values
    cfg = LandweberConfig(max_iter=0)
    solved = run(problem33, y_exact, cfg, u0)
    start = solve_forward(problem33, u0)
    monkeypatch.setattr(lw, "solve_forward", lambda *a, **k: pytest.fail("solved"))
    record = run(problem33, y_exact, cfg, start)
    assert record.ssn_counts.tolist() == solved.ssn_counts.tolist() == [start.ssn_iterations]
    assert record.residual_norms.tobytes() == solved.residual_norms.tobytes()
    assert record.final.values.tobytes() == u0.tobytes()


def test_run_rejects_a_solution_on_another_mesh(problem17, problem33, monkeypatch):
    # the solution's u is the start, so it must have u0's shape; checked
    # before any forward solve, with the argument named
    monkeypatch.setattr(lw, "solve_forward", lambda *a, **k: pytest.fail("solved"))
    u_exact, y_exact, _ = exact_fields(problem33.mesh)
    start = forward.solve_forward(problem17, _start(problem17, "source"))
    with pytest.raises(ValueError, match=r"^u0 needs 961 interior values, got shape \(225,\)$"):
        run(problem33, y_exact, LandweberConfig(max_iter=1), start, u_exact)


def test_run_rejects_an_exact_source_of_zero_norm(problem9, monkeypatch):
    # relative errors would divide by 0: rejected before any solve
    monkeypatch.setattr(lw, "solve_forward", lambda *a, **k: pytest.fail("solved"))
    _, y_exact, u_bar = exact_fields(problem9.mesh)
    zero = np.zeros_like(u_bar.values)
    with pytest.raises(ValueError, match="^u_exact has zero norm; relative errors undefined$"):
        run(problem9, y_exact, LandweberConfig(max_iter=1), u_bar, zero)


def test_check_discrepancy_is_false_without_a_residual_or_after_an_earlier_crossing():
    # no residual recorded (the first solve failed), or a residual before
    # the last at or below tau * delta, which the run would have stopped at
    cfg = LandweberConfig(delta=0.1)  # threshold 1.4 * 0.1
    empty = RunRecord(np.array([]), None, np.array([], dtype=int), "forward-failure", cfg)
    assert empty.stopping_index == -1 and not empty.check_discrepancy()
    for reason in ("discrepancy", "max-iterations"):
        late = RunRecord(np.array([1.0, 0.1, 0.05]), None, np.array([2, 1, 1]), reason, cfg)
        assert not late.check_discrepancy()
    stopped = RunRecord(np.array([1.0, 0.5, 0.1]), None, np.array([2, 1, 1]), "discrepancy", cfg)
    assert stopped.check_discrepancy()


@pytest.mark.parametrize("argument", ["y_data", "u0", "u_exact"])
def test_run_rejects_non_finite_input(problem17, argument):
    # rejected before the first forward solve, with the argument named
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    fields = {"y_data": y_exact, "u0": u_bar, "u_exact": u_exact}
    fields = {name: gf.values.copy() for name, gf in fields.items()}
    fields[argument][7] = np.nan
    with pytest.raises(ValueError, match=f"{argument} contains non-finite values"):
        run(problem17, fields["y_data"], LandweberConfig(), fields["u0"], fields["u_exact"])


def _damage_last_csv_row(base):
    path = base.with_name(base.name + ".csv")
    text = path.read_text()
    path.write_text(text[: text.rstrip("\n").rindex(",")] + "\n")


def _drop_last_csv_row(base):
    path = base.with_name(base.name + ".csv")
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _empty_residual_cell(base):
    path = base.with_name(base.name + ".csv")
    lines = path.read_text().splitlines(keepends=True)
    n, _, err, ssn = lines[2].split(",")
    lines[2] = ",".join([n, "", err, ssn])
    path.write_text("".join(lines))


def _drop_csv_column(base):
    path = base.with_name(base.name + ".csv")
    lines = path.read_text().splitlines()
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))


def _truncate_json(base):
    path = base.with_name(base.name + ".json")
    path.write_text(path.read_text()[:40])


def _renumber_csv_row(base):
    path = base.with_name(base.name + ".csv")
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = "7" + lines[2][1:]  # the row of n = 1
    path.write_text("".join(lines))


def _blank_line_before_renumbered_row(base):
    # a blank line 3 and 9 in place of 2 on line 5: the blank line is named,
    # not the line before the renumbered row
    path = base.with_name(base.name + ".csv")
    lines = path.read_text().splitlines(keepends=True)
    lines[3] = "9" + lines[3][1:]  # the row of n = 2
    lines.insert(2, "\r\n")
    path.write_text("".join(lines))


def _extra_cell(base):
    path = base.with_name(base.name + ".csv")
    lines = path.read_text().splitlines()
    lines[2] += ",999"  # the row of n = 1
    path.write_text("".join(line + "\n" for line in lines))


def _append_csv_column(name, cell):
    """A damage that appends the column `name`, with `cell` in every row."""

    def damage(base):
        path = base.with_name(base.name + ".csv")
        header, *rows = path.read_text().splitlines()
        path.write_text(f"{header},{name}\n" + "".join(f"{row},{cell}\n" for row in rows))

    return damage


def _negative_newton_count(base):
    # ssn_iters = -5 in the row of n = 1, with a matching ssn_total
    csv_path, json_path = (base.with_name(base.name + ext) for ext in (".csv", ".json"))
    lines = csv_path.read_text().splitlines(keepends=True)
    cells = lines[2].rstrip("\r\n").split(",")
    summary = json.loads(json_path.read_text())
    summary["ssn_total"] += -5 - int(cells[3])
    lines[2] = ",".join([*cells[:3], "-5"]) + "\r\n"
    csv_path.write_text("".join(lines))
    json_path.write_text(json.dumps(summary))


def _negative_residual(base):
    path = base.with_name(base.name + ".csv")
    lines = path.read_text().splitlines(keepends=True)
    n, res, rest = lines[2].split(",", 2)
    lines[2] = ",".join([n, "-" + res, rest])
    path.write_text("".join(lines))


def _drop_json_key(key):
    """A damage that deletes one summary key."""

    def damage(base):
        path = base.with_name(base.name + ".json")
        summary = json.loads(path.read_text())
        del summary[key]
        path.write_text(json.dumps(summary))

    return damage


def _set_json(**changes):
    """A damage that sets summary keys; a `summary` change replaces the whole summary."""

    def damage(base):
        path = base.with_name(base.name + ".json")
        summary = json.loads(path.read_text())
        summary = changes["summary"] if "summary" in changes else {**summary, **changes}
        path.write_text(json.dumps(summary))

    return damage


def _update_config(**changes):
    """A damage that changes or adds keys of the stored config."""

    def damage(base):
        path = base.with_name(base.name + ".json")
        summary = json.loads(path.read_text())
        summary["config"].update(changes)
        path.write_text(json.dumps(summary))

    return damage


_CHECK = {"choice": 1.0, "choice_aux": 2.0, "satisfied": [False, False]}
# finite and self-consistent, but evaluated at a norm bound other than lbar
_OTHER = check_parameters(LandweberConfig(), L=0.04)
_CHECK_AT_OTHER_BOUND = {**dataclasses.asdict(_OTHER), "satisfied": list(_OTHER.satisfied)}
_BAD_CONFIG = r"run\.json: 'config' is not a valid LandweberConfig: "
_EXTRA_COLUMNS = r"run\.csv: unknown or repeated columns in the header "


def _derived(key, value):
    """The message for a summary key that contradicts the config and the CSV."""
    return rf"run\.json: '{key}' must be {value}, as the config and run\.csv give, got "


_BAD_CHECK = _derived("parameter_check", r"\{'choice': 1\.57.*'satisfied': \[False, False\]\}")


@pytest.mark.parametrize(
    "damage, message",
    [
        (_damage_last_csv_row, r"run\.csv, line \d+: empty cell"),
        (_drop_last_csv_row, _derived("stopping_index", 1) + "2"),
        (_empty_residual_cell, r"run\.csv, line 3: empty cell"),
        (_drop_csv_column, r"run\.csv: missing columns \['ssn_iters'\]"),
        (_truncate_json, r"run\.json: not valid JSON"),
        (_drop_json_key("stopping_index"), r"run\.json: missing key 'stopping_index'"),
        (_drop_json_key("config"), r"run\.json: missing key 'config'"),
        (_drop_json_key("ssn_total"), r"run\.json: missing key 'ssn_total'"),
        (_set_json(bogus=1), r"run\.json: unknown key 'bogus'"),
        (_renumber_csv_row, r"run\.csv, line 3: n must be 1, got 7"),
        (_blank_line_before_renumbered_row, r"run\.csv, line 3: blank line"),
        (_set_json(summary=5), r"run\.json: expected a JSON object"),
        (_set_json(stopping_index="2"), _derived("stopping_index", 2) + "'2'"),
        (_set_json(stopping_index=2.0), _derived("stopping_index", 2) + r"2\.0"),
        (_set_json(stopping_index=-2), _derived("stopping_index", 2) + "-2"),
        (_set_json(delta="abc"), _derived("delta", r"0\.0") + "'abc'"),
        (_set_json(delta=float("nan")), _derived("delta", r"0\.0") + "nan"),
        (_set_json(tau=None), _derived("tau", r"1\.4") + "None"),
        (_set_json(tau=True), _derived("tau", r"1\.4") + "True"),
        (_set_json(reason="bogus"), r"run\.json: 'reason' must be one of"),
        (_set_json(config=5), r"run\.json: 'config' must be a JSON object"),
        (_set_json(parameter_check={"choice": 1.0}), _BAD_CHECK),
        (_set_json(parameter_check="x"), _BAD_CHECK),
        (_set_json(parameter_check={**_CHECK, "satisfied": 5}), _BAD_CHECK),
        (_set_json(parameter_check={**_CHECK, "satisfied": [True]}), _BAD_CHECK),
        (_set_json(parameter_check={**_CHECK, "choice": "a"}), _BAD_CHECK),
        (_set_json(parameter_check={**_CHECK, "choice_aux": float("inf")}), _BAD_CHECK),
        (_set_json(parameter_check={**_CHECK, "satisfied": [True, True]}), _BAD_CHECK),
        (_update_config(mu="a"), _BAD_CONFIG + r"mu must lie in \[0, 1\), got 'a'"),
        (_update_config(mu=2.0), _BAD_CONFIG + r"mu must lie in \[0, 1\), got 2\.0"),
        (_update_config(bogus=1), _BAD_CONFIG + ".*unexpected keyword argument 'bogus'"),
        (_set_json(delta=1.0), _derived("delta", r"0\.0") + r"1\.0"),
        (_set_json(tau=3.0), _derived("tau", r"1\.4") + r"3\.0"),
        (_set_json(ssn_total=-7), _derived("ssn_total", r"\d+") + "-7"),
        (_set_json(parameter_check=_CHECK), _BAD_CHECK),
        (_set_json(parameter_check=_CHECK_AT_OTHER_BOUND), _BAD_CHECK),
        (_update_config(max_iter=True), _BAD_CONFIG + "max_iter must be an integer >= 0, got True"),
        (_update_config(tau=10**400),
         _BAD_CONFIG + "tau must be finite and exceed 1, got 10{400}$"),
        (_negative_newton_count,
         r"run\.csv, line 3: ssn_iters: value must be an integer >= 0, got -5"),
        (_negative_residual,
         r"run\.csv, line 3: residual_M: value must not be negative, got -0\.0"),
        (_extra_cell, r"run\.csv, line 3: 5 cells for 4 columns"),
        (_append_csv_column("bogus", "0"), _EXTRA_COLUMNS + r"\[.*'bogus'\]"),
        (_append_csv_column("n", "7"), _EXTRA_COLUMNS + r"\['n', .*'n'\]"),
    ],
    ids=[
        "cut-row",
        "missing-row",
        "empty-cell",
        "missing-column",
        "bad-json",
        "missing-key",
        "missing-config",
        "missing-ssn-total",
        "unknown-key",
        "index-column-out-of-order",
        "blank-line",
        "not-an-object",
        "index-string",
        "index-float",
        "index-below-minus-one",
        "delta-string",
        "delta-nan",
        "tau-null",
        "tau-bool",
        "reason-unknown",
        "config-number",
        "check-missing-fields",
        "check-string",
        "check-satisfied-number",
        "check-satisfied-one-bool",
        "check-choice-string",
        "check-choice-aux-inf",
        "check-satisfied-disagrees",
        "config-mu-string",
        "config-mu-out-of-range",
        "config-unknown-key",
        "delta-contradicts-config",
        "tau-contradicts-config",
        "ssn-total-wrong",
        "check-contradicts-config",
        "check-at-another-bound",
        "config-max-iter-bool",
        "config-tau-beyond-float-range",
        "newton-count-negative",
        "residual-negative",
        "extra-cell",
        "unknown-column",
        "repeated-column",
    ],
)
def test_record_load_rejects_damaged_files(tmp_path, problem17, damage, message):
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    record = run(problem17, y_exact, LandweberConfig(max_iter=2), u_bar, u_exact)
    base = tmp_path / "run"
    record.save(base)
    damage(base)
    with pytest.raises(ValueError, match=message):
        RunRecord.load(base)
