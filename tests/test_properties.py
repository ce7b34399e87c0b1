"""Property tests over drawn inputs that the seeded tests do not reach.

The examples are derandomized, so every run checks the same inputs.
"""

import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bouligand_landweber import (
    ForwardProblem,
    GridFunction,
    LandweberConfig,
    NoiseSpec,
    PositivePart,
    RunRecord,
    add_noise,
    apply_subderivative,
    brute_force_forward,
    build_linearized,
    build_mesh,
    exact_fields,
    m_norm,
    read_grid_function,
    solve_forward,
    write_grid_function,
)
from bouligand_landweber.forward import FORWARD_RTOL, error_certificate
from bouligand_landweber.sparse_linalg import CG_TOL, dot, norm

PROPERTY = settings(derandomize=True, deadline=None, database=None)
EPS = np.finfo(float).eps
TINY = math.ulp(0.0)  # absolute rounding error of a product that underflows

finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
# every finite float, with the kink and its neighbours drawn often
kink_heavy = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]), finite
)

PROBLEMS = {n_h: ForwardProblem.build(build_mesh(n_h)) for n_h in (3, 4, 5)}


@PROPERTY
@given(arrays(np.float64, st.integers(0, 40), elements=kink_heavy))
def test_positive_part_matches_scalar_definitions(t):
    f = PositivePart()
    value = f.value(t)
    assert value.dtype == np.float64 and value.shape == t.shape
    assert [float(v) for v in value] == [max(x, 0.0) for x in t]
    assert f.bouligand_coeff(t).tolist() == [float(x > 0.0) for x in t]
    assert f.newton_coeff(t).tolist() == [float(x >= 0.0) for x in t]
    pattern = f.selection_pattern(t)
    assert all(mask.dtype == np.bool_ for mask in (f.bouligand_coeff(t), f.newton_coeff(t), pattern))
    assert PositivePart.selection_pattern is PositivePart.newton_coeff
    assert pattern.tolist() == [int(x >= 0.0) for x in t]


def _sources(n: int):
    """Sources with exact zeros, small-integer lattices and general floats."""
    lattice = st.integers(-3, 3).map(float)
    general = st.floats(-100.0, 100.0, allow_subnormal=True)
    entries = st.one_of(st.just(0.0), lattice, general)
    scale = st.sampled_from([1.0, 1e-3, 1e3])
    return st.tuples(arrays(np.float64, n, elements=entries), scale).map(
        lambda pair: pair[0] * pair[1]
    )


@st.composite
def _problem_and_source(draw):
    n_h = draw(st.sampled_from(sorted(PROBLEMS)))
    problem = PROBLEMS[n_h]
    return problem, draw(_sources(problem.mesh.n_interior))


@settings(PROPERTY, max_examples=150)
@given(_problem_and_source())
def test_ssn_agrees_with_enumeration(case):
    problem, u = case
    y_ssn = solve_forward(problem, u).y.values
    y_enum = brute_force_forward(problem, u).values
    assert np.max(np.abs(y_ssn - y_enum)) <= 1e-10


def _residual_and_rounding(problem, y, b):
    """||A y + D max(y, 0) - b||_2 as computed, and a bound on its rounding error.

    With u = eps / 2 and s = |A| |y| + D |y| + |b|: each entry of H sums at
    most seven terms (five exact stencil products, the rounded lumped term
    and b_i), so it is within gamma_7 s_i of the exact entry, gamma_k =
    k u / (1 - k u); the norm of n entries adds at most gamma_{n+2} ||H||_2
    <= gamma_{n+2} ||s||_2.  With n <= 9 unknowns here that is 18 u ||s||_2
    to first order, which 16 eps ||s||_2 covers.
    """
    H = problem.A @ y + problem.D * np.maximum(y, 0.0) - b
    scale = abs(problem.A) @ np.abs(y) + problem.D * np.abs(y) + np.abs(b)
    return norm(H), 16.0 * EPS * norm(scale)


@settings(PROPERTY, max_examples=150)
@given(_problem_and_source(), st.sampled_from([0.0, 1e-6, 1e-2, 1e2, 1e4]))
def test_ssn_state_is_within_the_certificate_of_its_residual(case, floor):
    # ||y - y_exact||_M <= C ||H(y)||_2 for every state y (forward.error_certificate),
    # also when a floor on the Newton residual, up to 1e4 ||M u||_2, ends the
    # solve early.  y_exact is known through the enumeration's state only,
    # which misses it by the rounding of its LU solves: by at most C times its
    # own residual.  That is the one slack beyond the SSN state's certificate;
    # both residuals are taken as computed plus the bound on the rounding of
    # their evaluation
    problem, u = case
    b = problem.M @ u
    y_ssn = solve_forward(problem, u, tol=floor * norm(b)).y.values
    y_enum = brute_force_forward(problem, u).values
    bound = error_certificate(problem.mesh) * (
        sum(_residual_and_rounding(problem, y_ssn, b))
        + sum(_residual_and_rounding(problem, y_enum, b))
    )
    assert m_norm(problem.M, y_ssn - y_enum) <= bound


@PROPERTY
@given(st.sampled_from([3, 4, 6]).flatmap(
    lambda n_h: arrays(np.float64, (n_h - 2) ** 2, elements=finite).map(
        lambda v: GridFunction(build_mesh(n_h), v, "data")
    )
))
def test_grid_function_csv_roundtrip_is_bit_exact(gf):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.csv"
        write_grid_function(path, gf)
        back = read_grid_function(path)
    assert back.mesh == gf.mesh and back.role == gf.role
    assert back.values.tobytes() == gf.values.tobytes()


@st.composite
def _ordered_sources(draw):
    """A problem and sources u1 <= u2 nodewise, equal at some nodes."""
    problem, u1 = draw(_problem_and_source())
    n = problem.mesh.n_interior
    gap = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 100.0))))
    return problem, u1, u1 + gap


@settings(PROPERTY, max_examples=150)
@given(_ordered_sources())
def test_forward_map_preserves_order(case):
    # A is an M-matrix, M >= 0 and max(., 0) is monotone, so F is order preserving
    problem, u1, u2 = case
    y1 = solve_forward(problem, u1).y.values
    y2 = solve_forward(problem, u2).y.values
    scale = max(np.max(np.abs(y1)), np.max(np.abs(y2)))
    assert np.all(y1 <= y2 + 1e-12 * scale)


@st.composite
def _source_pair(draw):
    """A problem and two sources (or a source and a direction), drawn independently."""
    problem, u1 = draw(_problem_and_source())
    return problem, u1, draw(_sources(problem.mesh.n_interior))


def _true_residual_bound(problem, sol, u) -> float:
    """Bound on the exact-arithmetic residual of a computed forward solution.

    The recorded residual is evaluated in floating point; the evaluation
    error is at most n*eps times the residual of the absolute values.
    """
    y, n = sol.y.values, problem.mesh.n_interior
    magnitude = abs(problem.A) @ np.abs(y) + problem.D * np.abs(y) + problem.M @ np.abs(u)
    return sol.final_residual + 4 * n * EPS * np.linalg.norm(magnitude)


@settings(PROPERTY, max_examples=150)
@given(_source_pair())
def test_forward_map_energy_bound(case):
    # subtracting the two equations, A dy + D (max(y1, 0) - max(y2, 0)) = M du,
    # and the middle term pairs nonnegatively with dy because max is monotone
    problem, u1, u2 = case
    s1, s2 = solve_forward(problem, u1), solve_forward(problem, u2)
    dy, du = s1.y.values - s2.y.values, u1 - u2
    A, M, n = problem.A, problem.M, problem.mesh.n_interior
    energy, work = dy @ (A @ dy), dy @ (M @ du)
    # each computed state solves its equation up to its true residual, and
    # each product rounds by at most n eps times its absolute-value product
    residuals = _true_residual_bound(problem, s1, u1) + _true_residual_bound(problem, s2, u2)
    rounding = n * EPS * (np.abs(dy) @ (abs(A) @ np.abs(dy)) + np.abs(dy) @ (M @ np.abs(du)))
    assert energy <= work + np.linalg.norm(dy) * residuals + 4 * rounding


@settings(PROPERTY, max_examples=150)
@given(_source_pair())
def test_subderivative_is_directional_limit(case):
    # while the active set of F(u + t h) stays that of F(u), both states solve
    # the same linear system (A + K_y) y = M (.), so the difference quotient is G_u h
    problem, u, h = case
    sol = solve_forward(problem, u)
    y = sol.y.values
    assume(np.all(y != 0.0))
    g = apply_subderivative(build_linearized(problem, sol.y), problem.M, h).values
    # to first order F(u + t h) = F(u) + t g keeps every sign while t |g| < |y|
    reach, g_max = 0.5 * np.min(np.abs(y)), np.max(np.abs(g))
    t = 1.0 if g_max <= reach else reach / g_max
    sol_t = solve_forward(problem, u + t * h)
    for _ in range(60):
        if np.array_equal(sol_t.active_pattern, sol.active_pattern):
            break
        t /= 2.0
        sol_t = solve_forward(problem, u + t * h)
    assert np.array_equal(sol_t.active_pattern, sol.active_pattern)
    quotient = (sol_t.y.values - y) / t
    # ||(A + K_y)^{-1}||_2 <= 1 / lambda_min(A); each Newton solve leaves a
    # residual of at most FORWARD_RTOL ||M u||_2, the CG solve for g one of
    # at most CG_TOL ||M h||_2, and the subtraction rounds each entry once
    lam_min = np.linalg.eigvalsh(problem.A.toarray())[0]
    M = problem.M
    solve_error = FORWARD_RTOL * (norm(M @ u) + norm(M @ (u + t * h))) / t + CG_TOL * norm(M @ h)
    tol = solve_error / lam_min + EPS * np.linalg.norm(quotient)
    assert np.linalg.norm(quotient - g) <= tol


@PROPERTY
@given(st.integers(0, 60).flatmap(
    lambda n: st.tuples(*[arrays(np.float64, n, elements=st.floats(-1e150, 1e150))] * 2)
))
def test_dot_and_norm_match_exact_sums(pair):
    # recursive summation errs by at most (n - 1) eps/2 sum |a_i b_i|, plus
    # one smallest subnormal per product where a product underflows
    a, b = pair
    n = a.size
    products = a * b
    assert abs(dot(a, b) - math.fsum(products)) <= n * EPS * math.fsum(np.abs(products)) + n * TINY
    squares = math.fsum(a * a)
    assert abs(norm(a) ** 2 - squares) <= (n + 3) * EPS * squares + (n + 1) * TINY


positive = st.floats(0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True)


@st.composite
def configs(draw):
    mu = draw(st.floats(0.0, 1.0, exclude_max=True))
    # every lbar LandweberConfig accepts at this mu: those whose square is a
    # finite nonzero float and whose step (2 - 2 mu) / lbar^2 is too
    lbar = draw(st.floats(2.0**-537.5, math.sqrt(sys.float_info.max)).filter(
        lambda v: 0.0 < (2.0 - 2.0 * mu) / v**2 < math.inf
    ))
    return LandweberConfig(
        mu=mu,
        tau=draw(st.floats(1.0, exclude_min=True, allow_infinity=False)),
        rho=draw(positive),
        lbar=lbar,
        max_iter=draw(st.integers(0, 10**6)),
        delta=draw(st.floats(0.0, allow_infinity=False, allow_subnormal=True)),
    )


@st.composite
def _run_records(draw):
    rows = draw(st.integers(1, 12))
    # a residual norm or relative error is never negative (load rejects one);
    # -0.0 is not below 0, and run records a NaN where dot(r, M r) is NaN
    norms = st.floats(0.0, allow_infinity=False, allow_subnormal=True) | st.sampled_from(
        [-0.0, math.nan]
    )
    return RunRecord(
        residual_norms=draw(arrays(np.float64, rows, elements=norms)),
        rel_errors=draw(st.one_of(st.none(), arrays(np.float64, rows, elements=norms))),
        ssn_counts=draw(arrays(np.int64, rows, elements=st.integers(0, 100))),
        reason=draw(st.sampled_from(["discrepancy", "max-iterations", "divergence"])),
        config=draw(configs()),
    )


@PROPERTY
@given(_run_records())
def test_run_record_roundtrip_is_bit_exact(record):
    with tempfile.TemporaryDirectory() as tmp:
        record.save(Path(tmp) / "run")
        back = RunRecord.load(Path(tmp) / "run")
    assert back.residual_norms.tobytes() == record.residual_norms.tobytes()
    if record.rel_errors is None:
        assert back.rel_errors is None
    else:
        assert back.rel_errors.tobytes() == record.rel_errors.tobytes()
    assert back.ssn_counts.tolist() == record.ssn_counts.tolist()
    assert (back.stopping_index, back.reason) == (record.stopping_index, record.reason)
    assert repr(back.config) == repr(record.config)  # repr tells every float apart, even -0.0
    assert np.float64(back.delta).tobytes() == np.float64(record.delta).tobytes()
    assert np.float64(back.tau).tobytes() == np.float64(record.tau).tobytes()
    assert back.parameter_check == record.parameter_check


@settings(PROPERTY, max_examples=150)
@given(
    st.sampled_from(["raw", "rescale"]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True),
    st.integers(0, 2**32),
)
def test_add_noise_returns_a_finite_positive_delta_or_refuses(mode, level, seed):
    # over every positive level, from subnormal to the largest float: the data
    # carry a finite positive delta, their measured M-norm noise, or the level
    # is refused with the delta it measured
    problem = PROBLEMS[5]
    _, y, _ = exact_fields(problem.mesh)
    try:
        data, delta = add_noise(y, NoiseSpec(seed=seed, mode=mode, value=level), problem.M)
    except ValueError as exc:
        assert str(exc).startswith(f"delta of {mode} noise at level {level!r} on the n_h=5 data")
    else:
        assert 0.0 < delta < math.inf
        assert delta == m_norm(problem.M, data.values - y.values)
