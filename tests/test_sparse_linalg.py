import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.fft import dstn
from scipy.sparse.linalg import spsolve

from bouligand_landweber import (
    ConvergenceError,
    SpdSystem,
    assemble,
    build_mesh,
    interpolate,
    poisson_preconditioner,
    solve_spd,
    sparse_linalg,
)
from bouligand_landweber.sparse_linalg import CG_TOL, COARSE_SIDE, TINY_RHS, coarse_block_builder
from conftest import peak_vectors

PRECISIONS = [
    pytest.param(np.float64, id="poisson"),
    pytest.param(np.float32, id="single-precision"),
]


def _solve(system, b):
    """solve_spd with the fast-Poisson preconditioner of the system's grid."""
    return solve_spd(system, b, poisson_preconditioner(round(np.sqrt(system.dim))))


def _unshifted(A):
    return SpdSystem(A, np.zeros(A.shape[0]))


def test_scalar_system():
    A, M, _ = assemble(build_mesh(3))
    x = _solve(_unshifted(A), M @ np.array([1.0]))
    assert x == pytest.approx(np.array([0.03125]), rel=1e-13)


def test_zero_rhs():
    A, _, _ = assemble(build_mesh(17))
    assert np.array_equal(_solve(_unshifted(A), np.zeros(15 * 15)), np.zeros(15 * 15))


def test_solve_matches_direct_sparse_oracle():
    # independent oracle: SuperLU factorization of the same system
    mesh = build_mesh(32)
    A, M, _ = assemble(mesh)
    b = M @ interpolate(mesh, lambda x1, x2: np.ones_like(x1)).values
    x = _solve(_unshifted(A), b)
    x_direct = spsolve(A.tocsr().tocsc(), b)
    assert np.max(np.abs(x - x_direct)) <= 1e-11


@pytest.mark.parametrize("dtype", PRECISIONS)
def test_preconditioner_choices_agree(dtype):
    # shifted system (lumped indicator of a random active set) against SuperLU
    mesh = build_mesh(17)
    A, M, D = assemble(mesh)
    rng = np.random.default_rng(2)
    b = M @ rng.standard_normal(mesh.n_interior)
    system = SpdSystem(A, D * (rng.uniform(0, 1, mesh.n_interior) > 0.5))
    x = solve_spd(system, b, poisson_preconditioner(mesh.m, dtype))
    x_direct = spsolve((A.tocsr() + sp.diags(system.shift)).tocsc(), b)
    assert np.max(np.abs(x - x_direct)) <= 1e-11


@pytest.mark.parametrize("dtype", PRECISIONS)
def test_residual_contract_post_hoc(dtype):
    mesh = build_mesh(33)
    A, M, D = assemble(mesh)
    rng = np.random.default_rng(9)
    for _ in range(5):
        shift = D * rng.uniform(0.0, 2.0, mesh.n_interior)
        system = SpdSystem(A, shift)
        b = M @ rng.standard_normal(mesh.n_interior)
        x = solve_spd(system, b, poisson_preconditioner(mesh.m, dtype))
        assert np.linalg.norm(system.matvec(x) - b) <= 1e-12 * np.linalg.norm(b)


def test_solver_deterministic():
    mesh = build_mesh(33)
    A, M, _ = assemble(mesh)
    b = M @ np.sin(np.arange(mesh.n_interior, dtype=float))
    x1 = _solve(_unshifted(A), b)
    x2 = _solve(_unshifted(A), b)
    assert np.array_equal(x1, x2)


def test_nonfinite_rhs_rejected():
    A, _, _ = assemble(build_mesh(5))
    b = np.zeros(9)
    b[3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _solve(_unshifted(A), b)


def test_nonconvergence_error_carries_residual():
    # the eigenvalues of A lie in (0, 8), so A - 8 I is negative definite and
    # CG breaks down in its first step, at the starting residual b
    A, M, _ = assemble(build_mesh(33))
    b = M @ np.ones(31 * 31)
    with pytest.raises(ConvergenceError, match="breakdown") as err:
        _solve(SpdSystem(A, np.full(31 * 31, -8.0)), b)
    assert err.value.residual == sparse_linalg.norm(b)


def test_rhs_of_another_dimension_rejected():
    A, _, _ = assemble(build_mesh(5))
    with pytest.raises(ValueError, match=r"^dimension mismatch: system dim 9, b shape \(8,\)$"):
        _solve(_unshifted(A), np.ones(8))


def test_cg_gives_up_after_ten_times_the_dimension():
    # a preconditioner drawn afresh at each call is no fixed SPD map: CG
    # loses its conjugacy and is still far from the target after 10 * dim
    # iterations, which raises with the residual it reached
    A, M, _ = assemble(build_mesh(9))
    b = M @ np.ones(49)
    rng = np.random.default_rng(0)
    cap = r"^CG did not converge within 490 iterations \(residual \S+, target \S+\)$"
    with pytest.raises(ConvergenceError, match=cap) as err:
        solve_spd(_unshifted(A), b, lambda r: r * rng.uniform(0.1, 10.0, r.size))
    assert err.value.residual > 1e6 * CG_TOL * sparse_linalg.norm(b)


def test_cg_stagnates_where_its_recurrence_residual_is_stale(monkeypatch):
    # a preconditioner that halves its argument, CG's recurrence residual,
    # changes it between calls: the recurrence falls to the target while the
    # true residual stays far above it, in each of the three runs.  This is
    # a stagnation at any rounding floor: the true residual stays a fraction
    # of ||b||, not a multiple of eps (||K|| ||x|| + ||b||)
    A, M, _ = assemble(build_mesh(9))
    b = M @ np.ones(49)
    runs = []

    def halving(r):
        z = r.copy()
        r *= 0.5
        return z

    def counted(system, *args):
        runs.append(1)
        return pcg(system, *args)

    pcg = sparse_linalg._pcg
    monkeypatch.setattr(sparse_linalg, "_pcg", counted)
    with pytest.raises(ConvergenceError, match=r"^CG stagnated: true residual ") as err:
        solve_spd(_unshifted(A), b, halving)
    assert len(runs) == 3
    assert err.value.residual > 1e-3 * sparse_linalg.norm(b)


@pytest.mark.parametrize(
    "shift, scale",
    [
        pytest.param(0.0, 1e200, id="rhs-norm-overflows"),
        pytest.param(np.nan, 1.0, id="nan-curvature"),
    ],
)
def test_non_finite_arithmetic_fails_at_once(shift, scale):
    # a NaN residual never meets the target; CG must stop instead of iterating
    mesh = build_mesh(17)
    A, _, D = assemble(mesh)
    pre = poisson_preconditioner(mesh.m)
    applications = []

    def counted(r):
        applications.append(1)
        return pre(r)

    system = SpdSystem(A, np.full(mesh.n_interior, D + shift))
    with pytest.raises(ConvergenceError):
        solve_spd(system, scale * np.sin(np.arange(mesh.n_interior, dtype=float)), counted)
    assert len(applications) <= 1


@pytest.mark.parametrize("tiny", [1e-170, 5e-324])
def test_rhs_with_underflowing_norm_is_solved(tiny):
    # every |b_i| is below about 1e-162, so ||b||_2 squares to 0 though b is
    # nonzero; the solve scales b by a power of two, which CG commutes with,
    # so x is the solve of 2^600 b scaled back, bit for bit, and not x = 0
    mesh = build_mesh(17)
    A, _, _ = assemble(mesh)
    system, pre = SpdSystem(A, 0), poisson_preconditioner(mesh.m)
    b = np.full(mesh.n_interior, tiny)
    x = solve_spd(system, b, pre)
    assert np.any(x != 0.0)
    assert x.tobytes() == np.ldexp(solve_spd(system, np.ldexp(b, 600), pre), -600).tobytes()


def test_tiny_rhs_keeps_a_large_floor_finite():
    # a floor above max|b_i| would overflow when scaled with b; it is capped
    mesh = build_mesh(17)
    A, _, _ = assemble(mesh)
    b = np.full(mesh.n_interior, 1e-300)
    x = solve_spd(SpdSystem(A, 0), b, poisson_preconditioner(mesh.m), atol=1e300)
    assert np.all(np.isfinite(x))
    assert sparse_linalg.norm(np.ldexp(A @ x - b, 990)) <= sparse_linalg.norm(np.ldexp(b, 990))


def test_poisson_preconditioner_is_exact_inverse():
    mesh = build_mesh(17)
    A, _, _ = assemble(mesh)
    pre = poisson_preconditioner(mesh.m)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(mesh.n_interior)
    assert np.max(np.abs(A @ pre(v) - v)) <= 1e-12


@pytest.mark.parametrize("n_h", [17, 257])
def test_single_precision_preconditioner_is_near_inverse(n_h):
    # float32 transforms: a relative defect of 3e-7 (n_h = 17) to 7e-6 (n_h = 257)
    mesh = build_mesh(n_h)
    A, _, _ = assemble(mesh)
    pre = poisson_preconditioner(mesh.m, np.float32)
    v = np.random.default_rng(11).standard_normal(mesh.n_interior)
    z = pre(v)
    assert z.dtype == np.float64 and z.shape == v.shape
    assert np.linalg.norm(A @ z - v) <= 1e-4 * np.linalg.norm(v)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_preconditioner_edge_inputs(dtype):
    m = 15
    pre = poisson_preconditioner(m, dtype)
    assert np.array_equal(pre(np.zeros(m * m)), np.zeros(m * m))
    for bad in (np.nan, np.inf, -np.inf):  # reaches CG's breakdown check
        v = np.ones(m * m)
        v[7] = bad
        assert not np.all(np.isfinite(pre(v)))
    # residuals at the extreme exponents of float64 (subnormal, or above 2^1023)
    A, _, _ = assemble(build_mesh(m + 2))
    for w in (1e-310, 5e307):
        x = np.full(m * m, w)
        v = 4.0 * (A @ (x / 4.0))  # A x, without the overflow of 4 w in the product
        assert np.max(np.abs(v)) > w
        assert np.allclose(pre(v), x, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("k", [-600, 600])
def test_preconditioner_commutes_with_powers_of_two(dtype, k):
    # the input is scaled to max|r| in [0.5, 1) before the cast, so a power
    # of two passes through the map exactly, far outside float32's range too
    m = 15
    pre = poisson_preconditioner(m, dtype)
    v = np.sin(np.arange(m * m, dtype=float))
    assert pre(np.ldexp(v, k)).tobytes() == np.ldexp(pre(v), k).tobytes()


@pytest.mark.parametrize("scale", [1e-100, 1e-60, 1e-30, 1.0, 1e30, 1e60, 1e100])
def test_single_precision_solve_reaches_cg_tol_at_any_scale(scale):
    # the residual is scaled by a power of two before the float32 cast, so a
    # right-hand side far outside float32's range solves like one of size 1
    mesh = build_mesh(33)
    A, M, D = assemble(mesh)
    system = SpdSystem(A, D * (np.arange(mesh.n_interior) % 3 == 0))
    b = scale * (M @ np.sin(np.arange(mesh.n_interior, dtype=float)))
    x = solve_spd(system, b, poisson_preconditioner(mesh.m, np.float32))
    assert np.linalg.norm(system.matvec(x) - b) <= CG_TOL * np.linalg.norm(b)


@pytest.mark.parametrize("scale", [1e-100, 1e-60, 1e-30, 1.0, 1e30, 1e60, 1e100])
def test_two_level_solve_reaches_cg_tol_at_any_scale(scale):
    # the same systems with the coarse block of their shift: the block acts
    # between the transforms, on the residual scaled by its power of two
    mesh = build_mesh(33)
    A, M, D = assemble(mesh)
    system = SpdSystem(A, D * (np.arange(mesh.n_interior) % 3 == 0))
    b = scale * (M @ np.sin(np.arange(mesh.n_interior, dtype=float)))
    x = solve_spd(system, b, _two_level(mesh.m, system.shift, np.float32))
    assert np.linalg.norm(system.matvec(x) - b) <= CG_TOL * np.linalg.norm(b)


def _mask(kind: str, m: int) -> np.ndarray:
    """An active set over the m x m interior grid, as a bool mask in row-major order."""
    i, j = np.divmod(np.arange(m * m), m)
    if kind == "random":
        return np.random.default_rng(m).uniform(size=m * m) < 0.5
    if kind == "checkerboard":
        return (i + j) % 2 == 0
    return np.full(m * m, kind == "full")


MASKS = ["random", "empty", "full", "checkerboard"]


def _two_level(m, shift, dtype=np.float64):
    """The two-level map of A + diag(shift) as a function of one vector."""
    pre, coarse = poisson_preconditioner(m, dtype), coarse_block_builder(m)(shift)
    return lambda r: pre(r, coarse)


def _coarse_modes(m):
    """The lowest k x k DST-I modes as columns, mode (a, b) at a k + b, from scipy's transform."""
    k = min(COARSE_SIDE, m)
    Z = np.empty((m * m, k * k))
    for col, (a, b) in enumerate(np.ndindex(k, k)):
        unit = np.zeros((m, m))
        unit[a, b] = 1.0
        Z[:, col] = dstn(unit, type=1, norm="ortho").ravel()
    return Z


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("m", [1, 3, 15, 31, 127])
def test_two_level_map_is_spd(m, kind):
    # symmetric to rounding and positive definite, in the dtype production
    # runs at this side: on the whole space up to m = 15, and above on the
    # span of the coarse modes and a few random vectors, by their Gram matrix
    dtype = np.float32 if m >= 31 else np.float64
    _, _, D = assemble(build_mesh(m + 2))
    pre = _two_level(m, D * _mask(kind, m), dtype)
    if m <= 15:
        probes = np.eye(m * m)
    else:
        random = np.random.default_rng(m).standard_normal((4, m * m))
        probes = np.vstack([_coarse_modes(m).T, random])
    images = np.vstack([pre(v) for v in probes])
    gram = probes @ images.T
    tol = 20 * np.finfo(dtype).eps * np.abs(gram).max()
    assert np.abs(gram - gram.T).max() <= tol
    assert np.linalg.eigvalsh(0.5 * (gram + gram.T)).min() > tol


@pytest.mark.parametrize("kind", MASKS)
@pytest.mark.parametrize("n_h", [3, 4, 5, 6])
def test_two_level_map_with_every_mode_coarse_is_the_exact_inverse(n_h, kind):
    # at m <= COARSE_SIDE every sine mode is coarse, so in float64 the map is K^{-1}
    mesh = build_mesh(n_h)
    assert mesh.m <= COARSE_SIDE
    A, _, D = assemble(mesh)
    shift = D * _mask(kind, mesh.m)
    K = SpdSystem(A, shift)
    pre = _two_level(mesh.m, shift)
    for v in np.eye(mesh.n_interior):
        assert np.abs(K.matvec(pre(v)) - v).max() <= 1e-14


@pytest.mark.parametrize("shift_kind", ["mask", "nonuniform", "zero"])
@pytest.mark.parametrize("m", [1, 3, 15, 31, 127])
def test_coarse_block_is_the_inverse_galerkin_matrix(m, shift_kind):
    # the dense oracle: C = Z_c^T diag(shift) Z_c + Lambda_c
    k = min(COARSE_SIDE, m)
    _, _, D = assemble(build_mesh(m + 2))
    shift = {
        "mask": D * _mask("random", m),
        "nonuniform": D * np.random.default_rng(1).uniform(0.0, 2.0, m * m),
        "zero": np.zeros(m * m),
    }[shift_kind]
    Z = _coarse_modes(m)
    c = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, k + 1) / (m + 1))
    galerkin = Z.T @ (shift[:, None] * Z) + np.diag(np.add.outer(c, c).ravel())
    coarse = coarse_block_builder(m)(shift)
    assert coarse.shape == (k * k, k * k) and np.array_equal(coarse, coarse.T)
    assert np.abs(coarse @ galerkin - np.eye(k * k)).max() <= 1e-13


def _one_level_reference(m, dtype, r):
    """The DST-I inverse as written before the coarse block existed."""
    k = np.arange(1, m + 1)
    c = 2.0 - 2.0 * np.cos(np.pi * k / (m + 1))
    lam = np.empty((m, m), dtype)
    np.add(c[:, None], c[None, :], out=lam, casting="same_kind")
    e = min(max(math.frexp(max(r.max(), -r.min()))[1], -1021), 1023)
    scaled = np.empty((m, m), dtype)
    np.multiply(r.reshape(m, m), 2.0**-e, out=scaled, casting="same_kind")
    spectral = dstn(scaled, type=1, norm="ortho", overwrite_x=True)
    spectral /= lam
    scaled = dstn(spectral, type=1, norm="ortho", overwrite_x=True)
    return np.multiply(scaled, 2.0**e, dtype=np.float64).ravel()


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("m", [1, 15, 127])
def test_without_coarse_block_the_map_keeps_its_bits(m, dtype):
    pre = poisson_preconditioner(m, dtype)
    v = np.sin(np.arange(m * m, dtype=float)) * 1e3
    expected = _one_level_reference(m, dtype, v).tobytes()
    assert pre(v).tobytes() == pre(v, None).tobytes() == expected


def _counting(pre, applications):
    def counted(r):
        applications.append(1)
        return pre(r)

    return counted


def test_atol_floor_stops_early_with_true_residual_below_it():
    mesh = build_mesh(65)
    A, M, D = assemble(mesh)
    rng = np.random.default_rng(4)
    system = SpdSystem(A, D * (rng.uniform(0, 1, mesh.n_interior) > 0.5))
    b = M @ rng.standard_normal(mesh.n_interior)
    pre = poisson_preconditioner(mesh.m)
    atol = 1e-6 * np.linalg.norm(b)  # far above CG_TOL * ||b||_2
    tight, loose = [], []
    solve_spd(system, b, _counting(pre, tight))
    x = solve_spd(system, b, _counting(pre, loose), atol=atol)
    assert len(loose) < len(tight)
    assert np.linalg.norm(system.matvec(x) - b) <= atol


# a bool is an int to Python: True would otherwise be a floor of 1.0
@pytest.mark.parametrize(
    "atol",
    [-1.0, np.nan, np.inf, True, False, np.bool_(True)],
    ids=["negative", "nan", "inf", "true", "false", "numpy-bool"],
)
def test_bad_atol_rejected(atol):
    A, M, _ = assemble(build_mesh(5))
    with pytest.raises(ValueError, match="atol"):
        solve_spd(_unshifted(A), M @ np.ones(9), poisson_preconditioner(3), atol=atol)


@pytest.mark.parametrize("scale", [1.0, 1e-170], ids=["normal", "tiny-rhs"])
def test_solve_leaves_the_rhs_unchanged(scale):
    # CG updates its own x, r and p in place; the caller's b keeps every bit
    mesh = build_mesh(17)
    A, _, D = assemble(mesh)
    b = scale * np.random.default_rng(5).standard_normal(mesh.n_interior)
    assert (sparse_linalg.norm(b) < TINY_RHS) == (scale < 1.0)
    before = b.tobytes()
    x = solve_spd(SpdSystem(A, np.full(mesh.n_interior, D)), b, poisson_preconditioner(mesh.m))
    assert np.any(x != 0.0)
    assert b.tobytes() == before


def test_solve_working_set(problem257):
    # one production solve at n_h = 257 (the float32 preconditioner) holds x,
    # r, p, z, Ap and one scratch vector besides the preconditioner's own
    # buffers: tracemalloc measured 5.63 vectors of 8 n bytes, returned x
    # included (numpy 2.4, scipy 1.17)
    n = problem257.mesh.n_interior
    system = SpdSystem(problem257.A, np.full(n, problem257.D))
    b = problem257.M @ np.sin(np.arange(n, dtype=float))
    assert peak_vectors(lambda: solve_spd(system, b, problem257.precond), n) <= 6.5


def _exit_case():
    """A shifted system at n_h = 65, its right-hand side, preconditioner and exit tol."""
    mesh = build_mesh(65)
    A, M, D = assemble(mesh)
    rng = np.random.default_rng(4)
    system = SpdSystem(A, D * (rng.uniform(0, 1, mesh.n_interior) > 0.5))
    b = M @ rng.standard_normal(mesh.n_interior)
    return system, b, poisson_preconditioner(mesh.m), 1e-3 * np.linalg.norm(b)


@pytest.mark.parametrize("floor", [0.0, 1e-8], ids=["cg-tol", "atol"])
def test_early_exit_refused_keeps_the_solve(floor):
    # a test that returns false is asked once, and CG then goes on to the
    # floor as if no exit had been offered: the same iterate, bit for bit
    system, b, pre, tol = _exit_case()
    atol = floor * np.linalg.norm(b)
    seen = []

    def refuse(x):
        seen.append(np.linalg.norm(system.matvec(x) - b))
        return False

    x = solve_spd(system, b, pre, atol=atol, early_exit=(tol, refuse))
    assert len(seen) == 1 and seen[0] <= 1.01 * tol
    assert x.tobytes() == solve_spd(system, b, pre, atol=atol).tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e-170], ids=["normal", "tiny-rhs"])
def test_early_exit_taken_stops_at_its_tol(scale):
    # a test that holds ends the solve at the first iterate within tol, with
    # a true residual within tol and fewer preconditioner applications; a
    # right-hand side below TINY_RHS is solved scaled, and the test sees the
    # iterate scaled back
    system, b, pre, tol = _exit_case()
    b, tol = scale * b, scale * tol
    plain, early, seen = [], [], []

    def accept(x):
        seen.append(x.copy())
        return True

    exact = solve_spd(system, b, _counting(pre, plain))
    x = solve_spd(system, b, _counting(pre, early), early_exit=(tol, accept))
    assert len(seen) == 1 and np.array_equal(seen[0], x)
    assert np.linalg.norm(system.matvec(x) - b) <= tol
    assert len(early) < len(plain)
    assert not np.array_equal(x, exact)


@pytest.mark.parametrize("verdict, change", [(False, 1e-6), (True, 1e-2)], ids=["refused", "taken"])
def test_early_exit_test_runs_once_across_restarts(monkeypatch, verdict, change):
    # the test raises the system's shift in place, so the recurrence residual
    # goes stale and the true-residual check restarts CG from the new
    # residual, which already lies below tol: the test is not asked again,
    # and the restart goes on to the floor (refused) or to tol (taken)
    mesh = build_mesh(17)
    A, M, D = assemble(mesh)
    system = SpdSystem(A, np.full(mesh.n_interior, D))
    b = M @ np.random.default_rng(4).standard_normal(mesh.n_interior)
    tol = 1e-3 * np.linalg.norm(b)
    runs, calls = [], []
    pcg = sparse_linalg._pcg

    def counted_pcg(*args):
        runs.append(1)
        return pcg(*args)

    def shifting_test(x):
        calls.append(1)
        system.shift[:] += change
        return verdict

    monkeypatch.setattr(sparse_linalg, "_pcg", counted_pcg)
    x = solve_spd(system, b, poisson_preconditioner(mesh.m), early_exit=(tol, shifting_test))
    assert (len(runs), len(calls)) == (2, 1)
    target = tol if verdict else CG_TOL * np.linalg.norm(b)
    assert np.linalg.norm(system.matvec(x) - b) <= target


def test_early_exit_below_the_floor_is_never_asked():
    # CG reaches an atol above the exit's tol first: no test, and the bits of
    # a call without the keyword
    system, b, pre, tol = _exit_case()

    def never(x):
        raise AssertionError("test called")

    x = solve_spd(system, b, pre, atol=10.0 * tol, early_exit=(tol, never))
    assert x.tobytes() == solve_spd(system, b, pre, atol=10.0 * tol).tobytes()


@pytest.mark.parametrize(
    "tol",
    [-1.0, np.nan, np.inf, True, False, np.bool_(True)],
    ids=["negative", "nan", "inf", "true", "false", "numpy-bool"],
)
def test_bad_early_exit_tol_rejected(tol):
    A, M, _ = assemble(build_mesh(5))
    with pytest.raises(ValueError, match="early exit tol"):
        solve_spd(
            _unshifted(A), M @ np.ones(9), poisson_preconditioner(3), early_exit=(tol, bool)
        )
