"""Empirical instruments for the analytic assumptions behind the iteration.

The convergence theory rests on a tangential-cone-type bound: the
linearization error ||F(u_hat) - F(u) - G_u(u_hat - u)||_M stays below a
multiple mu < 1 of the nonlinear residual ||F(u_hat) - F(u)||_M on a ball.
No computable constants are available for this bound, so this module
measures it: :func:`tcc_ratio` evaluates the quotient for a given pair, and
:func:`tcc_survey` samples seeded random pairs around a center.  The
companion quantity is the lumped area of the set where the two states
disagree in sign, computed by :func:`mismatch_measure`; the surveys report
both so that the ratio can be related to the mismatch (the fitted constants
are diagnostics, not assertions).

The module also hosts the brute-force oracle for the forward solver, which
enumerates all 2^m sign patterns on meshes with at most 16 interior
unknowns, its comparison sweep, and a randomized self-adjointness check for
the subderivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bouligand import apply_subderivative, build_linearized
from .forward import ForwardProblem, PositivePart, solve_forward
from .mesh_fem import (
    GridFunction,
    build_mesh,
    field_values,
    m_inner,
    m_norm,
    require_finite,
    values_of,
)
from .sparse_linalg import FINITE_POSITIVE, POSITIVE_INTEGER, require_scalar, require_seed


ORACLE_TOL = 1e-10  # max-norm agreement of Newton with enumeration per source
MAX_DEGENERATE_DRAWS = 100  # degenerate pairs in a row before a survey gives up


class DegeneratePairError(ValueError):
    """The nonlinear residual of a pair is too small to form the ratio."""


@dataclass(frozen=True)
class TCCEstimate:
    """Linearization-error ratio and sign-mismatch area of one pair."""

    ratio: float
    mismatch: float
    radius: float


def mismatch_measure(D: np.ndarray, y, y_hat) -> float:
    """Lumped area of the set where y and y_hat disagree in sign.

    Counts nodes where the subderivative masks {y > 0} and {y_hat > 0}
    differ, each weighted by its lumped-mass entry D_ii; a quadrature
    surrogate for the Lebesgue measure of the continuum mismatch set.  A
    NaN or infinite entry in y or y_hat raises ValueError naming it.
    """
    a, b = values_of(y), values_of(y_hat)
    D = np.asarray(D, dtype=float)
    if a.shape != b.shape or D.shape != a.shape:
        raise ValueError(f"dimension mismatch: D {D.shape}, y {a.shape}, y_hat {b.shape}")
    require_finite("y", a)
    require_finite("y_hat", b)
    flipped = PositivePart.bouligand_coeff(a) != PositivePart.bouligand_coeff(b)
    return float(np.sum(D[flipped]))


def tcc_ratio(problem: ForwardProblem, u, u_hat) -> TCCEstimate:
    """Measure the linearization error of G_u against the residual for one pair.

    Costs one forward solve per argument and one subderivative solve.  Raises
    :class:`DegeneratePairError` when ||F(u_hat) - F(u)||_M falls below
    1e-14 times the pair distance.
    """
    M = problem.M
    uv, uhv = field_values(problem.mesh, "u", u), field_values(problem.mesh, "u_hat", u_hat)
    radius = m_norm(M, uhv - uv)
    sol = solve_forward(problem, uv)
    sol_hat = solve_forward(problem, uhv)
    state_diff = sol_hat.y.values - sol.y.values
    denom = m_norm(M, state_diff)
    if denom <= 1e-14 * radius:
        raise DegeneratePairError(
            f"degenerate pair: residual {denom:.3e} below 1e-14 * radius {radius:.3e}"
        )
    op = build_linearized(problem, sol.y)
    linearized = apply_subderivative(op, M, uhv - uv)
    ratio = m_norm(M, state_diff - linearized.values) / denom
    return TCCEstimate(
        ratio=ratio,
        mismatch=mismatch_measure(problem.D, sol.y.values, sol_hat.y.values),
        radius=radius,
    )


def _smooth_bump(problem: ForwardProblem, rng: np.random.Generator, modes: int = 4) -> np.ndarray:
    """Random low-frequency field: sine modes with 1/(i^2+j^2) weighted coefficients."""
    x1, x2 = problem.mesh.interior_coords()
    out = np.zeros_like(x1)
    for i in range(1, modes + 1):
        for j in range(1, modes + 1):
            c = rng.standard_normal() / (i * i + j * j)
            out += c * np.sin(i * np.pi * x1) * np.sin(j * np.pi * x2)
    return out


@dataclass
class TCCSurvey:
    """Seeded random-pair survey of the tangential-cone ratio around a center.

    Sampling: perturbations are either iid normal nodal vectors ('nodal') or
    smooth low-frequency bumps ('bump'), scaled to a uniform random M-radius
    within the ball; both pair members are drawn around the center.
    """

    estimates: list[TCCEstimate]
    mode: str

    @property
    def max_ratio(self) -> float:
        return max(e.ratio for e in self.estimates)

    def fitted_constants(self, exponents=(4.0, 6.0, 10.0)) -> dict[float, float]:
        """Smallest C with ratio <= C * mismatch^(1/p') over the survey, per p'."""
        out = {}
        for p in exponents:
            quotients = [
                e.ratio / e.mismatch ** (1.0 / p) for e in self.estimates if e.mismatch > 0.0
            ]
            out[p] = max(quotients) if quotients else 0.0
        return out


def tcc_survey(
    problem: ForwardProblem,
    center,
    n_pairs: int,
    ball_radius: float = 0.5,
    seed: int = 0,
    mode: str = "nodal",
) -> TCCSurvey:
    """Sample n_pairs random pairs in the M-ball around `center` and measure ratios.

    A pair whose states nearly coincide (:class:`DegeneratePairError`) is
    redrawn; MAX_DEGENERATE_DRAWS of them in a row end the survey with that
    error, as a ball too small for the perturbation to survive rounding does.
    `seed` is an integer >= 0, as `NoiseSpec` takes it.
    """
    n_pairs = require_scalar("n_pairs", n_pairs, *POSITIVE_INTEGER)
    seed = require_seed(seed)
    ball_radius = require_scalar("ball_radius", ball_radius, *FINITE_POSITIVE)
    if mode not in ("nodal", "bump"):
        raise ValueError(f"unknown sampling mode {mode!r}")
    rng = np.random.default_rng(seed)
    M = problem.M
    c = field_values(problem.mesh, "center", center)
    estimates = []
    degenerate = 0
    while len(estimates) < n_pairs:
        pair = []
        for _ in range(2):
            g = rng.standard_normal(c.size) if mode == "nodal" else _smooth_bump(problem, rng)
            r = ball_radius * rng.uniform(0.05, 1.0)
            pair.append(c + g * (r / m_norm(M, g)))
        try:
            estimates.append(tcc_ratio(problem, pair[0], pair[1]))
            degenerate = 0
        except DegeneratePairError as exc:
            degenerate += 1
            if degenerate == MAX_DEGENERATE_DRAWS:
                raise DegeneratePairError(
                    f"{degenerate} degenerate pairs in a row at ball_radius {ball_radius:g}"
                ) from exc
    return TCCSurvey(estimates=estimates, mode=mode)


def brute_force_forward(problem: ForwardProblem, u) -> GridFunction:
    """Oracle solve by enumerating all sign patterns; at most 16 unknowns.

    For each pattern s the linear system (A + D diag(s)) y = M u is solved;
    the unique y consistent with its own signs (y_i >= 0 where s_i = 1,
    y_i <= 0 where s_i = 0, zeros accepted either way) is returned.
    """
    m = problem.mesh.n_interior
    if m > 16:
        raise ValueError(f"brute-force enumeration refused for {m} > 16 unknowns")
    A = problem.A.toarray()
    b = problem.M @ field_values(problem.mesh, "u", u)
    bits = np.arange(m)
    for code in range(1 << m):
        s = (code >> bits) & 1
        y = np.linalg.solve(A + np.diag(problem.D * s), b)
        if np.all(y[s == 1] >= 0.0) and np.all(y[s == 0] <= 0.0):
            return GridFunction(problem.mesh, y, "state")
    raise RuntimeError(
        "internal error: no sign-consistent pattern found, "
        "which is impossible for this monotone problem"
    )


@dataclass
class OracleReport:
    """Result of a brute-force vs semi-smooth Newton comparison sweep."""

    diffs: np.ndarray  # max-norm difference per trial

    @property
    def trials(self) -> int:
        return self.diffs.size

    @property
    def max_diff(self) -> float:
        return float(np.max(self.diffs))

    @property
    def failures(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.diffs > ORACLE_TOL)[0]]

    @property
    def passed(self) -> bool:
        return not self.failures


def oracle_sweep(n_h: int, trials: int = 100, seed: int = 0) -> OracleReport:
    """Compare solve_forward against pattern enumeration on seeded random sources.

    Sources are iid uniform on [-1, 1] per interior node; feasible only for
    meshes with at most 16 interior unknowns.  `seed` is an integer >= 0,
    as `NoiseSpec` takes it.
    """
    trials = require_scalar("trials", trials, *POSITIVE_INTEGER)
    seed = require_seed(seed)
    mesh = build_mesh(n_h)
    if mesh.n_interior > 16:
        raise ValueError(f"enumeration infeasible: {mesh.n_interior} > 16 unknowns")
    problem = ForwardProblem.build(mesh)
    rng = np.random.default_rng(seed)
    diffs = np.empty(trials)
    for t in range(trials):
        u = rng.uniform(-1.0, 1.0, mesh.n_interior)
        y_newton = solve_forward(problem, u).y.values
        y_oracle = brute_force_forward(problem, u).values
        diffs[t] = np.max(np.abs(y_newton - y_oracle))
    return OracleReport(diffs)


@dataclass
class AdjointReport:
    """Randomized self-adjointness and norm-bound probe of the subderivative."""

    asymmetries: np.ndarray  # relative, per trial
    rayleigh: np.ndarray  # ||G w||_M / ||w||_M per trial

    @property
    def max_asymmetry(self) -> float:
        return float(np.max(self.asymmetries))

    @property
    def max_rayleigh(self) -> float:
        return float(np.max(self.rayleigh))


def adjoint_check(problem: ForwardProblem, trials: int = 50, seed: int = 0) -> AdjointReport:
    """Probe |(h, G w)_M - (w, G h)_M| / (||h||_M ||w||_M) on random triples (u, h, w).

    `seed` is an integer >= 0, as `NoiseSpec` takes it.
    """
    trials = require_scalar("trials", trials, *POSITIVE_INTEGER)
    seed = require_seed(seed)
    rng = np.random.default_rng(seed)
    M = problem.M
    n = problem.mesh.n_interior
    asym = np.empty(trials)
    rayleigh = np.empty(trials)
    for t in range(trials):
        u = rng.standard_normal(n)
        h = rng.standard_normal(n)
        w = rng.standard_normal(n)
        op = build_linearized(problem, solve_forward(problem, u).y)
        Gw = apply_subderivative(op, M, w).values
        Gh = apply_subderivative(op, M, h).values
        asym[t] = abs(m_inner(M, h, Gw) - m_inner(M, w, Gh)) / (m_norm(M, h) * m_norm(M, w))
        rayleigh[t] = m_norm(M, Gw) / m_norm(M, w)
    return AdjointReport(asym, rayleigh)
