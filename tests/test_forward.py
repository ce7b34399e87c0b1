import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from bouligand_landweber import (
    ForwardProblem,
    ForwardSolveError,
    LandweberConfig,
    PositivePart,
    brute_force_forward,
    build_mesh,
    forward_residual,
    m_norm,
    run,
    solve_forward,
)
from bouligand_landweber import forward, sparse_linalg
from bouligand_landweber.experiments import NoiseSpec, add_noise, exact_fields
from bouligand_landweber.forward import FORWARD_RTOL, error_certificate
from conftest import CountingMatrix, peak_vectors, traced_call


@pytest.fixture(scope="module")
def problem3():
    return ForwardProblem.build(build_mesh(3))


def test_scalar_positive_branch(problem3):
    # active max: (4 + 0.25) y = 0.125
    sol = solve_forward(problem3, np.array([1.0]))
    assert sol.y.values == pytest.approx(np.array([0.125 / 4.25]), abs=1e-12)
    assert sol.active_pattern.tolist() == [1]
    assert sol.ssn_iterations <= 30


def test_scalar_negative_branch(problem3):
    # inactive max: 4 y = -0.125
    sol = solve_forward(problem3, np.array([-1.0]))
    assert sol.y.values == pytest.approx(np.array([-0.03125]), abs=1e-12)
    assert sol.active_pattern.tolist() == [0]


def test_zero_source_converges_immediately(problem9):
    sol = solve_forward(problem9, np.zeros(problem9.mesh.n_interior))
    assert np.array_equal(sol.y.values, np.zeros(problem9.mesh.n_interior))
    assert sol.ssn_iterations <= 2


def test_forward_residual_trivial(problem3):
    assert forward_residual(problem3, np.zeros(1), np.zeros(1)) == 0.0


def test_forward_residual_of_hand_solution(problem3):
    assert forward_residual(problem3, np.array([0.125 / 4.25]), np.array([1.0])) <= 1e-12


def test_forward_residual_of_converged_solves(problem17):
    rng = np.random.default_rng(1)
    for _ in range(5):
        u = rng.standard_normal(problem17.mesh.n_interior)
        sol = solve_forward(problem17, u)
        tol = FORWARD_RTOL * np.linalg.norm(problem17.M @ u)
        assert forward_residual(problem17, sol.y, u) <= tol
        assert sol.final_residual <= tol


def test_brute_force_scalar(problem3):
    y = brute_force_forward(problem3, np.array([1.0]))
    assert y.values == pytest.approx(np.array([0.125 / 4.25]), abs=1e-14)
    y = brute_force_forward(problem3, np.array([0.0]))
    assert np.array_equal(y.values, np.zeros(1))


def test_brute_force_refuses_large_mesh():
    problem = ForwardProblem.build(build_mesh(7))  # 25 unknowns
    with pytest.raises(ValueError, match="> 16 unknowns"):
        brute_force_forward(problem, np.zeros(25))


def test_oracle_equivalence_sweep():
    # 2^9 pattern enumeration against semi-smooth Newton
    problem = ForwardProblem.build(build_mesh(5))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(-1.0, 1.0, 9)
        diff = np.max(
            np.abs(solve_forward(problem, u).y.values - brute_force_forward(problem, u).values)
        )
        worst = max(worst, diff)
    assert worst <= 1e-10


def test_comparison_principle(problem9, problem17):
    # discrete monotonicity: u <= v nodewise implies F(u) <= F(v) nodewise
    rng = np.random.default_rng(3)
    for problem in (problem9, problem17):
        n = problem.mesh.n_interior
        for _ in range(10):
            u = rng.standard_normal(n)
            v = u + rng.uniform(0.0, 1.0, n)
            yu = solve_forward(problem, u).y.values
            yv = solve_forward(problem, v).y.values
            assert np.all(yu <= yv + 1e-10)


def test_lipschitz_stability(problem33):
    # fixed constant slightly above 1/(2 pi^2), the continuum Lipschitz bound
    C = 0.051
    rng = np.random.default_rng(8)
    M = problem33.M
    n = problem33.mesh.n_interior
    for _ in range(10):
        u = rng.standard_normal(n) * rng.uniform(0.5, 5.0)
        v = u + rng.standard_normal(n) * rng.uniform(0.1, 2.0)
        lhs = m_norm(M, solve_forward(problem33, u).y.values - solve_forward(problem33, v).y.values)
        assert lhs <= C * m_norm(M, u - v)


def test_ssn_iteration_budget(problem33):
    rng = np.random.default_rng(12)
    for _ in range(10):
        u = rng.standard_normal(problem33.mesh.n_interior) * 3.0
        assert solve_forward(problem33, u).ssn_iterations <= 30


def test_warm_start_reaches_same_solution(problem17):
    rng = np.random.default_rng(21)
    u = rng.standard_normal(problem17.mesh.n_interior)
    cold = solve_forward(problem17, u)
    warm = solve_forward(problem17, u, previous=cold)
    assert warm.ssn_iterations <= cold.ssn_iterations
    assert np.max(np.abs(warm.y.values - cold.y.values)) <= 1e-10


def test_zero_source_from_nonzero_start(problem17):
    # ||M u||_2 = 0 leaves no room for round-off; the solution y = 0 is exact
    rng = np.random.default_rng(5)
    n = problem17.mesh.n_interior
    previous = solve_forward(problem17, rng.standard_normal(n))
    sol = solve_forward(problem17, np.zeros(n), previous=previous)
    assert np.array_equal(sol.y.values, np.zeros(n))
    assert sol.ssn_iterations == 1
    assert sol.final_residual == 0.0


def test_nonconvergence_raises_with_residual(monkeypatch):
    # one step from y = 0 (all nodes active) cannot settle a negative state
    monkeypatch.setattr(forward, "SSN_MAX_ITER", 1)
    problem = ForwardProblem.build(build_mesh(5))
    with pytest.raises(ForwardSolveError, match="within 1 iterations") as err:
        solve_forward(problem, -np.ones(9))
    assert 0.0 < err.value.residual < np.inf


@pytest.mark.parametrize(
    "m, dtype",
    [
        (forward.SINGLE_PRECISION_MIN_SIDE - 1, np.float64),
        (forward.SINGLE_PRECISION_MIN_SIDE, np.float32),
    ],
    ids=["below-exact", "from-single-precision"],
)
def test_build_chooses_preconditioner_by_grid_side(m, dtype):
    problem = ForwardProblem.build(build_mesh(m + 2))
    v = np.sin(np.arange(m * m, dtype=float))
    assert np.array_equal(problem.precond(v), sparse_linalg.poisson_preconditioner(m, dtype)(v))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_each_cg_iteration_calls_problem_precond_once(problem33, monkeypatch, warm):
    # the benchmark counts CG iterations by wrapping the precond field of a
    # built problem: each iteration of a Newton solve must be one call of
    # that field, read at solve time, with the coarse block of its system
    calls, applications, matvecs, solves = [], [], [], []
    pre, matvec = problem33.precond, sparse_linalg.SpdSystem.matvec

    def wrapped(*args, **kwargs):  # as a wrapper that knows no argument sees it
        calls.append(args[1:])
        return pre(*args, **kwargs)

    def counting_solve(system, b, preconditioner, **kwargs):
        def counted(r):
            applications.append(1)
            return preconditioner(r)

        solves.append(problem33.coarse_block(system.shift))
        return sparse_linalg.solve_spd(system, b, counted, **kwargs)

    def counted_matvec(system, v, scratch=None):
        matvecs.append(1)
        return matvec(system, v, scratch)

    monkeypatch.setattr(forward, "solve_spd", counting_solve)
    monkeypatch.setattr(sparse_linalg.SpdSystem, "matvec", counted_matvec)
    problem = dataclasses.replace(problem33, precond=wrapped)
    u = 3.0 * np.sin(np.arange(problem.mesh.n_interior, dtype=float))
    previous = solve_forward(problem33, 0.9 * u) if warm else None
    calls.clear(), applications.clear(), matvecs.clear(), solves.clear()
    solve_forward(problem, u, previous=previous)
    # one true-residual product per solve, one product per CG iteration
    assert len(calls) == len(applications) == len(matvecs) - len(solves) > 0
    assert all(any(np.array_equal(coarse, c) for c in solves) for (coarse,) in calls)


def test_positive_part_conventions():
    f = PositivePart()
    t = np.array([-2.0, -1e-15, 0.0, 1e-15, 3.0])
    assert np.array_equal(f.value(t), np.maximum(t, 0.0))
    # subderivative: strict indicator of t > 0; Newton derivative: t >= 0
    assert f.bouligand_coeff(t).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]
    assert f.newton_coeff(t).tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
    assert f.selection_pattern(t).tolist() == [0, 0, 1, 1, 1]


def test_solve_forward_deterministic(problem17):
    u = np.sin(np.arange(problem17.mesh.n_interior, dtype=float))
    y1 = solve_forward(problem17, u).y.values
    y2 = solve_forward(problem17, u).y.values
    assert np.array_equal(y1, y2)


def test_forcing_keeps_newton_steps_and_active_sets(problem33, monkeypatch):
    # the forcing floor only cuts CG work: the Newton loop takes the same steps
    # to the same active set as one that solves every increment to CG_TOL
    rng = np.random.default_rng(30)
    n = problem33.mesh.n_interior
    sources = [rng.standard_normal(n) * scale for scale in (0.3, 1.0, 3.0, 10.0, 100.0)]
    applications = {"forced": 0, "exact": 0}
    floors = []

    def counting_solve(kind):
        def solve(system, b, pre, atol=0.0, early_exit=None):
            assert early_exit is None  # cold solves are offered no exit

            def counted(r):
                applications[kind] += 1
                return pre(r)

            floors.append(atol)
            floor = atol if kind == "forced" else 0.0
            return sparse_linalg.solve_spd(system, b, counted, atol=floor)

        return solve

    for u in sources:
        monkeypatch.setattr(forward, "solve_spd", counting_solve("forced"))
        forced = solve_forward(problem33, u)
        monkeypatch.setattr(forward, "solve_spd", counting_solve("exact"))
        exact = solve_forward(problem33, u)
        assert np.array_equal(forced.active_pattern, exact.active_pattern)
        assert forced.ssn_iterations == exact.ssn_iterations
        assert forced.final_residual <= FORWARD_RTOL * np.linalg.norm(problem33.M @ u)
    assert min(floors) > 0.0
    assert applications["forced"] < applications["exact"]


@pytest.mark.parametrize("u", [np.zeros(48), np.full(49, np.nan)], ids=["u-size", "u-nan"])
def test_solve_forward_rejects_bad_fields(problem9, u):
    with pytest.raises(ValueError, match=r"^(dimension mismatch: )?u "):
        solve_forward(problem9, u)


@pytest.mark.parametrize("kind", ["source", "zero", "tiny"])
def test_solve_forward_rejects_a_previous_on_another_mesh(problem9, problem17, kind):
    # checked where it enters, before any path: the tiny-source and u = 0
    # paths solve from zero, yet keep the window and increment of previous
    u = {"source": np.ones(49), "zero": np.zeros(49), "tiny": np.full(49, 1e-165)}[kind]
    previous = solve_forward(problem17, np.ones(problem17.mesh.n_interior))
    with pytest.raises(ValueError, match=r"^previous lies on the mesh n_h=17, not on .* n_h=9$"):
        solve_forward(problem9, u, previous=previous)


def test_overflowing_source_fails_before_newton(problem9, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a Newton increment was solved")

    monkeypatch.setattr(forward, "solve_spd", no_solve)
    u = 1e200 * np.ones(problem9.mesh.n_interior)
    with pytest.raises(ForwardSolveError, match="overflows") as err:
        solve_forward(problem9, u)
    assert err.value.residual == np.inf


def test_source_with_underflowing_norm_is_solved(problem17):
    # ||M u||_2 underflows to 0 for u = 1e-165, which is not the zero source;
    # F is positively homogeneous and the solve scales u by a power of two,
    # so y is the state of 2^600 u scaled back, bit for bit, and not y = 0
    u = np.full(problem17.mesh.n_interior, 1e-165)
    sol = solve_forward(problem17, u)
    big = solve_forward(problem17, np.ldexp(u, 600))
    assert np.all(sol.y.values > 0.0)
    assert sol.y.values.tobytes() == np.ldexp(big.y.values, -600).tobytes()
    assert sol.ssn_iterations == big.ssn_iterations


def _sign_changing_source(problem, scale):
    x1, x2 = problem.mesh.interior_coords()
    return scale * np.sin(3.0 * np.pi * x1) * np.cos(2.0 * np.pi * x2)


def test_tiny_source_scales_its_floor(problem17):
    # the floor is an absolute residual, so the tiny-source path scales it
    # with u: the solve of u at floor t is the solve of 2^600 u at floor
    # 2^600 t scaled back, bit for bit, and that floor changes the state
    u = _sign_changing_source(problem17, 1e-165)
    big_u = np.ldexp(u, 600)
    tol = 1e-4 * np.linalg.norm(problem17.M @ big_u)
    big = solve_forward(problem17, big_u, tol=tol)
    assert big.y.values.tobytes() != solve_forward(problem17, big_u).y.values.tobytes()
    sol = solve_forward(problem17, u, tol=np.ldexp(tol, -600))
    assert sol.y.values.tobytes() == np.ldexp(big.y.values, -600).tobytes()
    assert sol.ssn_iterations == big.ssn_iterations


def test_tiny_source_with_a_huge_floor_is_solved(problem17):
    # a floor that overflows once scaled with a tiny u is capped, not raised
    u = _sign_changing_source(problem17, 1e-165)
    sol = solve_forward(problem17, u, tol=1e300)
    assert np.all(np.isfinite(sol.y.values)) and np.any(sol.y.values != 0.0)


@pytest.mark.parametrize("kind", ["source", "zero", "tiny", "warm"])
def test_solution_keeps_its_own_copy_of_its_source(problem17, kind):
    # the solution's u has the caller's bits but not its memory; below
    # TINY_RHS it is the unscaled source, not the scaled one the Newton loop solved
    u_bar = exact_fields(problem17.mesh)[2].values
    u = {
        "source": u_bar, "zero": np.zeros_like(u_bar), "warm": 1.01 * u_bar,
        "tiny": _sign_changing_source(problem17, 1e-165),
    }[kind]
    tiny = np.linalg.norm(problem17.M @ u) < sparse_linalg.TINY_RHS and u.any()
    assert tiny == (kind == "tiny")
    previous = solve_forward(problem17, u_bar) if kind == "warm" else None
    given = u.copy()
    sol = solve_forward(problem17, given, previous=previous)
    assert not np.shares_memory(sol.u, given)
    assert sol.u.tobytes() == u.tobytes()
    given += 1.0  # the caller's later change does not reach the solution
    assert sol.u.tobytes() == u.tobytes()


@pytest.mark.parametrize("kind", ["source", "zero", "tiny"])
def test_every_warm_path_keeps_the_window(problem17, kind):
    # the tiny-source and u = 0 paths solve from zero, but their solutions
    # keep the window all the same: previous.window with previous.increment
    # appended, that very array, and the increment y - previous.y
    u_bar = exact_fields(problem17.mesh)[2].values
    chain = [solve_forward(problem17, u_bar)]
    for scale in (1.01, 1.02):
        chain.append(solve_forward(problem17, scale * u_bar, previous=chain[-1]))
    first, second, previous = chain
    u = {
        "source": 1.03 * u_bar, "zero": np.zeros_like(u_bar),
        "tiny": _sign_changing_source(problem17, 1e-165),
    }[kind]
    sol = solve_forward(problem17, u, previous=previous)
    assert first.increment is None and first.window == () and second.window == ()
    assert len(previous.window) == 1 and previous.window[0][0] is second.increment
    assert len(sol.window) == 2 and sol.window[0] is previous.window[0]
    assert sol.window[1][0] is previous.increment
    assert sol.window[1][1].tobytes() == (problem17.A @ previous.increment).tobytes()
    assert sol.increment.tobytes() == (sol.y.values - previous.y.values).tobytes()


def test_forward_problem_rejects_matrices_of_another_size(problem9):
    for field in ("A", "M"):
        smaller = getattr(problem9, field).tocsr()[:-1, :-1]
        with pytest.raises(ValueError, match="^matrix dimensions do not match the mesh$"):
            dataclasses.replace(problem9, **{field: smaller})


@pytest.mark.parametrize("D", [np.full(49, 1 / 64), np.nan, 0.0, -1 / 64],
                         ids=["array", "nan", "zero", "negative"])
def test_forward_problem_takes_its_lumped_mass_as_one_positive_number(problem9, D):
    # the lumped mass is the same at every interior node, so the problem
    # keeps one float; a per-node array is refused rather than broadcast
    with pytest.raises(ValueError, match="^D must be finite and positive, got"):
        dataclasses.replace(problem9, D=D)
    assert type(dataclasses.replace(problem9, D=np.float64(problem9.D)).D) is float


def test_zero_floor_is_the_default_stop(problem17):
    u = _sign_changing_source(problem17, 30.0)
    a, b = solve_forward(problem17, u, tol=0.0), solve_forward(problem17, u)
    assert a.y.values.tobytes() == b.y.values.tobytes()
    assert (a.ssn_iterations, a.final_residual) == (b.ssn_iterations, b.final_residual)


# a bool is an int to Python: True would otherwise be a floor of 1.0
@pytest.mark.parametrize("tol", [-1e-12, np.nan, np.inf, -np.inf, True, False, np.bool_(True)])
def test_solve_forward_rejects_bad_floor(problem9, tol):
    with pytest.raises(ValueError, match="^tol must be finite"):
        solve_forward(problem9, np.ones(49), tol=tol)


def test_floor_stops_at_the_larger_residual(problem33):
    # the stop is max(FORWARD_RTOL ||M u||_2, tol): a floor above the relative
    # stop ends the solve at a larger residual, and the state stays within the
    # certificate of its own residual
    u = _sign_changing_source(problem33, 30.0)
    exact = solve_forward(problem33, u)
    tol = 1e3 * FORWARD_RTOL * np.linalg.norm(problem33.M @ u)
    loose = solve_forward(problem33, u, tol=tol)
    assert loose.final_residual <= tol
    assert loose.final_residual > exact.final_residual
    distance = m_norm(problem33.M, loose.y.values - exact.y.values)
    assert distance <= error_certificate(problem33.mesh) * (
        loose.final_residual + exact.final_residual
    )


@pytest.mark.parametrize("n_h", [3, 5, 9, 17, 33])
def test_error_certificate_is_h_over_the_smallest_stiffness_eigenvalue(n_h):
    # C = h / lambda_min(A) with lambda_max(M) <= h^2, so the certificate holds
    # for every pair of states; two states below zero, where F(y) = A y, whose
    # difference is the smoothest sine mode attain it up to that mode's
    # M-norm, which falls short of h times its 2-norm by about pi^2 h^2 / 6
    problem = ForwardProblem.build(build_mesh(n_h))
    h = problem.mesh.h
    lam_a = np.linalg.eigvalsh(problem.A.toarray())
    assert np.max(np.linalg.eigvalsh(problem.M.toarray())) <= h * h
    assert error_certificate(problem.mesh) == pytest.approx(h / lam_a[0], rel=1e-12)
    if n_h == 33:
        assert lam_a[0] == pytest.approx(0.019261, abs=5e-7)
    x1, x2 = problem.mesh.interior_coords()
    mode = np.sin(np.pi * x1) * np.sin(np.pi * x2)  # y - z, so F(y) - F(z) = A mode
    ratio = m_norm(problem.M, mode) / (
        error_certificate(problem.mesh) * np.linalg.norm(problem.A @ mode)
    )
    assert 1.0 - np.pi**2 * h * h / 6.0 <= ratio <= 1.0 + 1e-12


def _nearby_solve(problem, seed):
    """A source u, the cold solve `previous` of a perturbed source, and the solve of u from it."""
    rng = np.random.default_rng(seed)
    n = problem.mesh.n_interior
    u = 3.0 * rng.standard_normal(n)
    previous = solve_forward(problem, u + 0.1 * rng.standard_normal(n))
    return u, previous, solve_forward(problem, u, previous=previous)


def _with_directions(problem, previous, directions):
    """`previous` as though its solve had predicted along `directions`: the last
    becomes its increment, the others its window, each with its A g."""
    *older, newest = directions
    window = tuple((g, problem.A @ g) for g in older)
    return dataclasses.replace(previous, increment=newest, window=window)


def _start_residual(problem, u, y0):
    """b = M u and the residual H0 at y0, as a warm solve forms them."""
    b = problem.M @ u
    return b, problem.A @ y0 + problem.D * np.maximum(y0, 0.0) - b


@pytest.mark.parametrize(
    "make_directions",
    [
        lambda n, g: [np.zeros(n)],
        lambda n, g: [g, g.copy()],
        lambda n, g: [np.where(np.arange(n) == n // 2, 1e300, 0.0)],
    ],
    ids=["zero", "repeated", "huge-entry"],
)
def test_degenerate_directions_keep_the_solve(problem33, make_directions):
    # a singular or overflowing Galerkin system falls back to the start y0:
    # no exception or warning, the start itself, and a solve with the same
    # active set, the same Newton stop and the same bits as without directions
    u, previous, plain = _nearby_solve(problem33, seed=40)
    g = np.random.default_rng(41).standard_normal(problem33.mesh.n_interior)
    directions = make_directions(problem33.mesh.n_interior, g)
    y0 = previous.y.values
    b, H0 = _start_residual(problem33, u, y0)
    window = [(d, problem33.A @ d) for d in directions]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, H = forward._predicted_start(problem33, y0, H0, b, window)
        sol = solve_forward(problem33, u, _with_directions(problem33, previous, directions))
    assert y is y0 and H is H0
    assert np.array_equal(sol.active_pattern, plain.active_pattern)
    assert sol.final_residual <= FORWARD_RTOL * np.linalg.norm(problem33.M @ u)
    assert sol.y.values.tobytes() == plain.y.values.tobytes()


def test_prediction_falls_back_on_a_coefficient_that_is_not_finite(problem9):
    # along a tiny direction the 1 x 1 Galerkin system is not singular (its
    # entry is subnormal), but against a large residual its coefficient
    # overflows: the start stays y0, with no exception or warning
    n = problem9.mesh.n_interior
    y0, b = np.zeros(n), problem9.M @ np.ones(n)
    H0 = -1e150 * b
    g = np.full(n, 1e-160)
    gram = g @ (problem9.D * g + problem9.A @ g)
    assert 0.0 < gram < np.finfo(float).tiny and abs(g @ H0) / np.finfo(float).max > gram
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, H = forward._predicted_start(problem9, y0, H0, b, [(g, problem9.A @ g)])
    assert y is y0 and H is H0


def test_prediction_is_used_only_where_it_lowers_the_residual(problem33):
    # along random directions the Galerkin prediction lowers the residual for
    # some and not for others; only the former move the start, and the
    # latter leave the solve bit for bit as without directions
    u, previous, plain = _nearby_solve(problem33, seed=40)
    y0 = previous.y.values
    b, H0 = _start_residual(problem33, u, y0)
    moved = []
    for seed in range(10):
        g = np.random.default_rng(seed).standard_normal(problem33.mesh.n_interior)
        y, H = forward._predicted_start(problem33, y0, H0, b, [(g, problem33.A @ g)])
        moved.append(y is not y0)
        if moved[-1]:
            assert np.array_equal(H, problem33.A @ y + problem33.D * np.maximum(y, 0.0) - b)
            assert np.linalg.norm(H) < np.linalg.norm(H0)
        else:
            sol = solve_forward(problem33, u, _with_directions(problem33, previous, [g]))
            assert sol.y.values.tobytes() == plain.y.values.tobytes()
    assert any(moved) and not all(moved)


def test_direction_along_the_increment_predicts_the_state(problem33):
    # along the true increment y(u_hat) - y0 the Galerkin prediction lands
    # close enough to y(u_hat) to share its active set (F is affine wherever
    # the set is unchanged), so one Newton step confirms it, where the plain
    # warm start needs two
    rng = np.random.default_rng(0)
    n = problem33.mesh.n_interior
    u = 3.0 * rng.standard_normal(n)
    u_hat = u + rng.standard_normal(n)
    previous = solve_forward(problem33, u)
    exact = solve_forward(problem33, u_hat)
    plain = solve_forward(problem33, u_hat, previous=previous)
    along = _with_directions(problem33, previous, [exact.y.values - previous.y.values])
    predicted = solve_forward(problem33, u_hat, previous=along)
    assert predicted.ssn_iterations == 1 < plain.ssn_iterations
    assert np.array_equal(predicted.active_pattern, exact.active_pattern)
    assert np.max(np.abs(predicted.y.values - exact.y.values)) <= 1e-10


def test_solve_forward_leaves_its_inputs_unchanged(problem33):
    # the Newton loop updates its own state in place; u and every array of
    # previous keep every bit, from zero, from y0, and from the prediction
    u, previous, _ = _nearby_solve(problem33, seed=40)
    y0 = previous.y.values
    g = np.random.default_rng(3).standard_normal(problem33.mesh.n_interior)
    b, H0 = _start_residual(problem33, u, y0)
    directions = [g, solve_forward(problem33, 1.1 * u).y.values - y0]
    window = [(d, problem33.A @ d) for d in directions]
    assert forward._predicted_start(problem33, y0, H0, b, window)[0] is not y0
    given = _with_directions(problem33, previous, directions)
    arrays = (u, y0, previous.A_y, previous.u, *directions, given.window[0][1])
    before = [v.tobytes() for v in arrays]
    solve_forward(problem33, u)
    solve_forward(problem33, u, previous=previous)
    solve_forward(problem33, u, previous=given)
    assert [v.tobytes() for v in arrays] == before


def test_solve_forward_working_set(problem257):
    # one cold solve of u_bar at n_h = 257: tracemalloc measured 9.76
    # vectors of 8 n bytes, returned state and bool active set included
    # (numpy 2.4, scipy 1.17); the bound fails the 10.63 of a float shift
    # plus two int64 active-set patterns per Newton step
    n = problem257.mesh.n_interior
    u_bar = exact_fields(problem257.mesh)[2]
    assert peak_vectors(lambda: solve_forward(problem257, u_bar), n) <= 10.2


def test_built_problem_holds_no_per_node_constant():
    # at n_h = 257 a built problem holds the diagonals of A and M and the
    # float32 eigenvalue table of its preconditioner; the slack of 128 KiB
    # covers the coarse-block builder's tables (47 KB measured) and the
    # small arrays beside them, and is a quarter of the 8 n bytes a lumped
    # mass stored per node would add (numpy 2.4, scipy 1.17: 64 KB over)
    problem, (held, _) = traced_call(lambda: ForwardProblem.build(build_mesh(257)))
    m = problem.mesh.m
    assert held <= problem.A.data.nbytes + problem.M.data.nbytes + 4 * m * m + 128 * 1024


def test_run_working_set(problem65):
    # one noisy run from u_bar at n_h = 65 (delta 1e-4, seed 3, 21 steps):
    # tracemalloc measured 25.0 to 25.4 vectors of 8 n bytes, record and
    # final iterate included (numpy 2.4, scipy 1.17); the bound fails the
    # 28.3 of a record that also keeps F(u0), its y, A y and u, and the
    # 32.6 of an iterate that keeps F(u_{n-1}) and a step that holds its
    # linearized operator and update through the forward solve
    n = problem65.mesh.n_interior
    _, y_exact, u_bar = exact_fields(problem65.mesh)
    y_data, delta = add_noise(y_exact, NoiseSpec(seed=3, value=1e-4), problem65.M)
    cfg = LandweberConfig(delta=delta)
    assert peak_vectors(lambda: run(problem65, y_data, cfg, u_bar), n) <= 27.0


def _cold_sources(problem):
    """u*, u_bar, the zero source and a source below TINY_RHS, each solved from zero."""
    u_star, _, u_bar = exact_fields(problem.mesh)
    n = problem.mesh.n_interior
    return [u_star.values, u_bar.values, np.zeros(n), _sign_changing_source(problem, 1e-165)]


def test_cold_solve_forms_no_product_before_its_first_newton_step(problem33, monkeypatch):
    # the zero start's residual takes A 0 = 0 without forming it, on the
    # tiny-source path too.  A start from previous takes its A y: from a
    # cold solution, which has no increment, it forms nothing; from a warm
    # one, the A g of its increment and the A y of the prediction, and
    # nothing at PREDICTION_DIRECTIONS = 0
    A = CountingMatrix(problem33.A)
    problem = dataclasses.replace(problem33, A=A)
    before_first_step = []

    def first_step(system, b, pre, **kwargs):
        before_first_step.append(A.products)
        return sparse_linalg.solve_spd(system, b, pre, **kwargs)

    monkeypatch.setattr(forward, "solve_spd", first_step)

    def products_before_first_step(u, previous=None):
        before_first_step.clear()
        A.products = 0
        sol = solve_forward(problem, u, previous=previous)
        return before_first_step[0], sol

    for u in _cold_sources(problem):
        assert products_before_first_step(u)[0] == 0
    u = _cold_sources(problem)[1]
    _, cold = products_before_first_step(u)
    products, warm = products_before_first_step(1.01 * u, cold)
    assert products == 0 and warm.increment is not None
    assert products_before_first_step(1.02 * u, warm)[0] == 2
    monkeypatch.setattr(forward, "PREDICTION_DIRECTIONS", 0)
    products, solution = products_before_first_step(1.02 * u, warm)
    assert products == 0 and solution.window == ()


def _solution_hash(sol) -> str:
    parts = (sol.y.values, sol.A_y, np.float64(sol.final_residual), sol.active_pattern)
    return hashlib.sha1(b"".join(part.tobytes() for part in parts)).hexdigest()


@pytest.mark.parametrize("n_h", [3, 9, 33, 129])
def test_cold_solves_keep_their_bits(n_h, monkeypatch):
    # against residuals that form every stiffness product, the zero start's
    # included, each cold solve's state, product, residual, set and count
    # hash equal
    problem = ForwardProblem.build(build_mesh(n_h))
    sources = _cold_sources(problem)
    kept = [solve_forward(problem, u) for u in sources]
    residual = forward._residual
    monkeypatch.setattr(
        forward, "_residual", lambda problem, y, A_y, b: residual(problem, y, problem.A @ y, b)
    )
    formed = [solve_forward(problem, u) for u in sources]
    assert [_solution_hash(sol) for sol in kept] == [_solution_hash(sol) for sol in formed]
    assert [sol.ssn_iterations for sol in kept] == [sol.ssn_iterations for sol in formed]


class _CountingNonlinearity:
    """Delegates to a nonlinearity and counts the calls of each mask."""

    def __init__(self, inner):
        self.inner, self.calls = inner, {"newton": 0, "bouligand": 0}

    def newton_coeff(self, t):
        self.calls["newton"] += 1
        return self.inner.newton_coeff(t)

    selection_pattern = newton_coeff

    def bouligand_coeff(self, t):
        self.calls["bouligand"] += 1
        return self.inner.bouligand_coeff(t)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_solve_forward_evaluates_one_active_set_per_iterate(problem33):
    # the start and each Newton iterate: one {y >= 0} mask apiece, which
    # serves the shift, the repeat test and the returned pattern
    counting = _CountingNonlinearity(problem33.nonlinearity)
    problem = dataclasses.replace(problem33, nonlinearity=counting)
    u = exact_fields(problem.mesh)[2]
    sol = solve_forward(problem, u)
    assert sol.ssn_iterations >= 2
    assert counting.calls == {"newton": sol.ssn_iterations + 1, "bouligand": 0}
    assert sol.active_pattern.dtype == np.bool_
    assert np.array_equal(sol.y.values, solve_forward(problem33, u).y.values)


def test_warm_solves_end_with_a_step_solved_to_its_floor(problem33, monkeypatch):
    # along u_bar -> u* in ten warm solves, each Newton step whose active set
    # moves may stop its CG at MOVING_SET_FORCING of its residual, but such a
    # step never ends the loop: the last CG solve of every warm solve runs to
    # its floor.  The cold first solve is offered no exit.  Each Newton
    # system has the shift D {y >= 0} of the state it starts from, the one
    # the last step returned, so {y >= 0} is evaluated once per iterate plus
    # once per exit asked
    counting = _CountingNonlinearity(problem33.nonlinearity)
    problem = dataclasses.replace(problem33, nonlinearity=counting)
    steps, shifts, states = [], [], []

    def recording_solve(system, b, pre, atol=0.0, early_exit=None):
        verdicts = []
        offered = early_exit is not None
        if offered:
            tol, test = early_exit
            early_exit = (tol, lambda x: verdicts.append(test(x)) or verdicts[-1])
        x = sparse_linalg.solve_spd(system, b, pre, atol=atol, early_exit=early_exit)
        floor = max(sparse_linalg.CG_TOL * np.linalg.norm(b), atol)
        steps.append((offered, verdicts, np.linalg.norm(system.matvec(x) - b) <= floor))
        shifts.append(system.shift.copy())
        return x

    residual = forward._residual

    def recording_residual(problem, y, A_y, b):
        states.append(y.copy())  # the start, then each Newton iterate
        return residual(problem, y, A_y, b)

    monkeypatch.setattr(forward, "solve_spd", recording_solve)
    monkeypatch.setattr(forward, "_residual", recording_residual)
    # each solve starts from the last state itself, with no prediction
    monkeypatch.setattr(forward, "PREDICTION_DIRECTIONS", 0)
    u_star, _, u_bar = exact_fields(problem.mesh)
    previous, taken = None, 0
    for t in np.linspace(0.0, 1.0, 11):
        u = u_bar.values + t * (u_star.values - u_bar.values)
        for recorded in (steps, shifts, states):
            recorded.clear()
        counting.calls["newton"] = 0
        sol = solve_forward(problem, u, previous=previous)
        expected = [previous is not None] * sol.ssn_iterations
        assert [offered for offered, _, _ in steps] == expected
        _, verdicts, at_floor = steps[-1]
        assert verdicts in ([], [False]) and at_floor
        asked = sum(len(v) for _, v, _ in steps)
        assert counting.calls["newton"] == sol.ssn_iterations + 1 + asked
        assert len(states) == len(shifts) + 1
        for shift, state in zip(shifts, states):
            assert np.array_equal(shift, problem.D * (state >= 0.0))
        assert np.array_equal(sol.active_pattern, sol.y.values >= 0.0)
        assert sol.final_residual <= FORWARD_RTOL * np.linalg.norm(problem.M @ u)
        taken += sum(v == [True] for _, v, _ in steps)
        previous = sol
    assert taken >= 5
