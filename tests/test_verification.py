import math
import pickle
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from bouligand_landweber import (
    DegeneratePairError,
    adjoint_check,
    assemble,
    build_mesh,
    exact_fields,
    mismatch_measure,
    oracle_sweep,
    tcc_ratio,
    tcc_survey,
)


def test_mismatch_equal_states():
    _, _, D = assemble(build_mesh(9))
    y = np.linspace(-1, 1, D.size)
    assert mismatch_measure(D, y, y) == 0.0


def test_mismatch_full_flip_covers_interior_area():
    # lumped weights sum to (n_h-2)^2 h^2, approaching |Omega| = 1 under refinement
    for n_h in (17, 65, 129):
        mesh = build_mesh(n_h)
        _, _, D = assemble(mesh)
        y = -np.ones(mesh.n_interior)
        y_hat = np.ones(mesh.n_interior)
        total = mismatch_measure(D, y, y_hat)
        assert total == pytest.approx(mesh.n_interior * mesh.h**2, rel=1e-12)
    assert mismatch_measure(*_flip_setup(129)) == pytest.approx(1.0, abs=0.04)


def _flip_setup(n_h):
    mesh = build_mesh(n_h)
    _, _, D = assemble(mesh)
    return D, -np.ones(mesh.n_interior), np.ones(mesh.n_interior)


def test_mismatch_half_flip():
    mesh = build_mesh(17)
    _, _, D = assemble(mesh)
    y = np.ones(mesh.n_interior)
    y_hat = y.copy()
    half = mesh.n_interior // 2
    y_hat[:half] = -1.0
    assert mismatch_measure(D, y, y_hat) == pytest.approx(np.sum(D[:half]), rel=1e-14)


def test_mismatch_symmetric():
    mesh = build_mesh(17)
    _, _, D = assemble(mesh)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(mesh.n_interior)
    y_hat = rng.standard_normal(mesh.n_interior)
    assert mismatch_measure(D, y, y_hat) == mismatch_measure(D, y_hat, y)


def test_mismatch_boundary_convention():
    # zero belongs to the nonpositive class: 0 vs positive counts, 0 vs negative does not
    D = np.ones(2)
    assert mismatch_measure(D, np.array([0.0, 0.0]), np.array([1.0, -1.0])) == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["y", "y_hat"])
def test_mismatch_rejects_non_finite(name, bad):
    # a NaN compares false both ways, so it would silently land on one side of the kink
    good, broken = np.array([1.0, 1.0, -1.0]), np.array([bad, 1.0, -1.0])
    args = (broken, good) if name == "y" else (good, broken)
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values"):
        mismatch_measure(np.ones(3), *args)


def test_mismatch_dimension_mismatch():
    with pytest.raises(ValueError):
        mismatch_measure(np.ones(3), np.zeros(3), np.zeros(2))


def test_tcc_degenerate_pair(problem17):
    u = np.ones(problem17.mesh.n_interior)
    with pytest.raises(DegeneratePairError):
        tcc_ratio(problem17, u, u)


def test_tcc_perturbation_in_strictly_positive_region(problem33):
    # base at the interpolated exact source; bump where the exact state is
    # strictly positive, scaled to keep every nodal sign unchanged
    from bouligand_landweber import apply_subderivative, build_linearized, solve_forward

    problem = problem33
    u_exact, y_exact, _ = exact_fields(problem.mesh)
    sol = solve_forward(problem, u_exact)
    y = sol.y.values
    assert np.all(y != 0.0)
    x1, _ = problem.mesh.interior_coords()
    w = np.where(y_exact.values > 1e-3, 1.0, 0.0) * np.sin(np.pi * x1)
    eta = apply_subderivative(build_linearized(problem, sol.y), problem.M, w).values
    amplitude = 0.45 * np.min(np.abs(y) / np.maximum(np.abs(eta), 1e-300))
    u_hat = u_exact.values + amplitude * w
    sol_hat = solve_forward(problem, u_hat)
    assert np.array_equal(sol_hat.active_pattern, sol.active_pattern)
    est = tcc_ratio(problem, u_exact, u_hat)
    assert est.ratio <= 1e-9
    assert est.mismatch == 0.0


def test_tcc_survey_reports_small_ratios(problem33):
    u_exact, _, _ = exact_fields(problem33.mesh)
    survey = tcc_survey(problem33, u_exact, n_pairs=25, ball_radius=0.5, seed=1, mode="nodal")
    assert len(survey.estimates) == 25
    # condition plausibility: the measured ratio stays well below one
    assert survey.max_ratio < 1.0
    for est in survey.estimates:
        assert est.ratio >= 0.0
        assert 0.0 <= est.mismatch <= 1.0
        assert est.radius <= 2 * 0.5 + 1e-12
    constants = survey.fitted_constants()
    assert set(constants) == {4.0, 6.0, 10.0}


def test_tcc_survey_bump_mode(problem33):
    u_exact, _, _ = exact_fields(problem33.mesh)
    survey = tcc_survey(problem33, u_exact, n_pairs=10, ball_radius=0.5, seed=2, mode="bump")
    assert survey.max_ratio < 1.0


def test_tcc_survey_deterministic(problem17):
    u_exact, _, _ = exact_fields(problem17.mesh)
    s1 = tcc_survey(problem17, u_exact, n_pairs=5, seed=11)
    s2 = tcc_survey(problem17, u_exact, n_pairs=5, seed=11)
    assert [e.ratio for e in s1.estimates] == [e.ratio for e in s2.estimates]


def test_tcc_survey_unknown_mode(problem17):
    with pytest.raises(ValueError, match="mode"):
        tcc_survey(problem17, np.zeros(problem17.mesh.n_interior), n_pairs=1, mode="fancy")


@pytest.mark.parametrize("n_h,expected", [(3, 1e-12), (4, 1e-10), (5, 1e-10)])
def test_oracle_sweep(n_h, expected):
    report = oracle_sweep(n_h, trials=100, seed=0)
    assert report.max_diff <= expected
    assert report.passed
    assert report.failures == []


def test_oracle_sweep_refuses_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        oracle_sweep(8)


def test_adjoint_check(problem17):
    report = adjoint_check(problem17, trials=10, seed=0)
    assert report.max_asymmetry <= 1e-10
    assert report.max_rayleigh <= 5e-2


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda problem: oracle_sweep(3, trials=0), "trials"),
        (lambda problem: adjoint_check(problem, trials=0), "trials"),
        (lambda problem: tcc_survey(problem, np.zeros(problem.mesh.n_interior), 0), "n_pairs"),
    ],
    ids=["oracle_sweep", "adjoint_check", "tcc_survey"],
)
def test_counts_below_one_rejected(call, name, problem9):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got 0$"):
        call(problem9)


@pytest.mark.parametrize("count", [2.5, 2.0, True], ids=["fraction", "float", "bool"])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda problem, k: oracle_sweep(3, trials=k), "trials"),
        (lambda problem, k: adjoint_check(problem, trials=k), "trials"),
        (lambda problem, k: tcc_survey(problem, np.zeros(problem.mesh.n_interior), k), "n_pairs"),
    ],
    ids=["oracle_sweep", "adjoint_check", "tcc_survey"],
)
def test_non_integer_counts_rejected(call, name, count, problem9):
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {count!r}$"):
        call(problem9, count)


def test_numpy_integer_count_accepted():
    assert oracle_sweep(3, trials=np.int64(2)).diffs.shape == (2,)


_SEEDED = [
    lambda problem, seed: oracle_sweep(3, trials=2, seed=seed),
    lambda problem, seed: adjoint_check(problem, trials=2, seed=seed),
    lambda problem, seed: tcc_survey(problem, exact_fields(problem.mesh)[0], 2, seed=seed),
]


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(False), "3", None])
@pytest.mark.parametrize("call", _SEEDED, ids=["oracle_sweep", "adjoint_check", "tcc_survey"])
def test_bad_seed_rejected(call, seed, problem9):
    # checked as NoiseSpec checks its own: True would otherwise run as seed 1
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}"):
        call(problem9, seed)


@pytest.mark.parametrize("call", _SEEDED, ids=["oracle_sweep", "adjoint_check", "tcc_survey"])
def test_numpy_integer_seed_accepted(call, problem9):
    # the same draws as the plain int, bit for bit
    reports = [call(problem9, seed) for seed in (np.uint8(7), 7)]
    assert pickle.dumps(reports[0]) == pickle.dumps(reports[1])


@contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("radius", [0.0, -0.5, math.nan, math.inf, True])
def test_tcc_survey_rejects_bad_radius(problem9, radius):
    u_exact, _, _ = exact_fields(problem9.mesh)
    with _deadline(20), pytest.raises(ValueError, match="ball_radius must be finite and positive"):
        tcc_survey(problem9, u_exact, n_pairs=2, ball_radius=radius)


def test_tcc_survey_gives_up_on_degenerate_draws(problem9):
    # a perturbation of 1e-300 vanishes when added to the center: every pair is degenerate
    u_exact, _, _ = exact_fields(problem9.mesh)
    with _deadline(20), pytest.raises(DegeneratePairError, match="100 degenerate pairs in a row"):
        tcc_survey(problem9, u_exact, n_pairs=2, ball_radius=1e-300)
