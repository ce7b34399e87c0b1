"""Semi-smooth Newton solver for the discrete problem A y + D max(y, 0) = M u.

Each Newton step solves (A + D diag(s)) dy = -(A y + D max(y, 0) - M u)
with s the indicator of the active set {y_i >= 0} at the current iterate.
This is the active-set iteration, which terminates finitely: once the set
repeats, the iterate solves the nonlinear system up to the error of the
inner CG solves.  Termination therefore requires an unchanged set and a
residual of at most max(FORWARD_RTOL * ||M u||_2, tol), so an inexact CG
solve cannot end the iteration early.  The absolute floor `tol` (default 0)
is for a caller that needs the state only to a known accuracy: the map
y -> A y + D max(y, 0) is strongly monotone with constant lambda_min(A), so
any y whose residual is H lies within `error_certificate(mesh)` * ||H||_2
of the exact state in the M-norm.  For M u = 0 the solution is y = 0, which
is also where the iteration starts then.

A caller that solves for a sequence of nearby sources, as the Landweber
loop does, passes the last few state increments as `directions`.  The
Newton iteration then starts from the Galerkin prediction of its first
step within their span (projection onto earlier solutions, Fischer 1998),
provided that lowers the residual; the active set of the prediction is
closer to the solution's, so fewer Newton steps follow.  The stop, and so
the solution, does not depend on the start.

Since only that stop decides the final accuracy, each increment is solved
inexactly (inexact Newton with a forcing term, Dembo-Eisenstat-Steihaug
1982): CG stops at max(CG_TOL * ||H||_2, FORCING * max(FORWARD_RTOL *
||M u||_2, tol)), so the increment's own error is a fraction FORCING of
what the stop allows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh_fem import GridFunction, Mesh, assemble, field_values
from .sparse_linalg import (
    TINY_RHS,
    ConvergenceError,
    SpdSystem,
    dot,
    norm,
    poisson_preconditioner,
    single_precision_poisson_preconditioner,
    solve_spd,
)

FORWARD_RTOL = 1e-10  # Newton residual bound relative to ||M u||_2
FORCING = 1e-4  # each increment's CG floor as a fraction of the Newton stop
SSN_MAX_ITER = 100
# Grids with fewer interior points per side keep the exact float64
# preconditioner: there the float32 transforms save no time, and CG's
# finite termination under the exact inverse keeps tiny systems solved far
# below the tolerance, as the enumeration oracle of n_h <= 5 expects.
SINGLE_PRECISION_MIN_SIDE = 31


class ForwardSolveError(ConvergenceError):
    """Semi-smooth Newton did not converge; carries the last residual."""


class PositivePart:
    """The nonlinearity f(t) = max(t, 0) and its two conventions at the kink, as bool masks."""

    @staticmethod
    def value(t) -> np.ndarray:
        """f(t) = max(t, 0)."""
        return np.maximum(t, 0.0)

    @staticmethod
    def bouligand_coeff(t) -> np.ndarray:
        """Subderivative coefficient: the bool mask {t > 0}."""
        return np.greater(t, 0.0)

    @staticmethod
    def newton_coeff(t) -> np.ndarray:
        """Newton derivative coefficient and active set: the bool mask {t >= 0}."""
        return np.greater_equal(t, 0.0)

    # the same set under its older name, kept only because the benchmark's
    # perfbench/spans.py wraps it by name (ROADMAP item 1(a) drops it)
    selection_pattern = newton_coeff


@dataclass
class ForwardProblem:
    """Assembled discrete problem A y + D f(y) = M u on one mesh.

    A and M are the DIA matrices of `mesh_fem.assemble`; the solvers apply
    them with `@` only, so a CSR matrix of the same shape also works.
    """

    mesh: Mesh
    A: sp.dia_matrix
    M: sp.dia_matrix
    D: np.ndarray
    nonlinearity: PositivePart
    precond: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        n = self.mesh.n_interior
        if self.A.shape != (n, n) or self.M.shape != (n, n) or self.D.shape != (n,):
            raise ValueError("matrix dimensions do not match the mesh")

    @classmethod
    def build(cls, mesh: Mesh) -> "ForwardProblem":
        """Assemble matrices and set up the fast-Poisson preconditioner.

        The preconditioner runs in single precision from
        SINGLE_PRECISION_MIN_SIDE interior points per side on, and is the
        exact float64 inverse below.
        """
        A, M, D = assemble(mesh)
        if mesh.m >= SINGLE_PRECISION_MIN_SIDE:
            precond = single_precision_poisson_preconditioner(mesh.m)
        else:
            precond = poisson_preconditioner(mesh.m)
        return cls(mesh=mesh, A=A, M=M, D=D, nonlinearity=PositivePart(), precond=precond)


@dataclass
class ForwardSolution:
    """Converged state, its active set {y >= 0} as a bool mask, and iteration diagnostics."""

    y: GridFunction
    active_pattern: np.ndarray
    ssn_iterations: int
    final_residual: float


def _residual(problem: ForwardProblem, y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The residual A y + D f(y) - b, summed in that order into one new vector."""
    H = problem.A @ y
    Df = problem.nonlinearity.value(y)
    Df *= problem.D
    H += Df
    H -= b
    return H


def forward_residual(problem: ForwardProblem, y, u) -> float:
    """Euclidean residual ||A y + D f(y) - M u||_2."""
    yv, uv = field_values(problem.mesh, "y", y), field_values(problem.mesh, "u", u)
    return norm(_residual(problem, yv, problem.M @ uv))


def error_certificate(mesh: Mesh) -> float:
    """C with ||y - y_exact||_M <= C ||A y + D max(y, 0) - M u||_2 for every y.

    Here y_exact solves A y + D max(y, 0) = M u.  Since D >= 0 and max(., 0)
    is monotone, F(y) = A y + D max(y, 0) satisfies (F(y) - F(z), y - z) >=
    lambda_min(A) ||y - z||_2^2, so ||y - y_exact||_2 <= ||H||_2 / lambda_min(A)
    for the residual H at y; and ||v||_M <= h ||v||_2, because no row of |M|
    sums to more than h^2 (Gershgorin).  lambda_min(A) = 4 - 4 cos(pi h) is
    the smallest sine-transform eigenvalue, written 8 sin(pi h / 2)^2 to
    avoid the cancellation; so C = h / (4 - 4 cos(pi h)), about
    1 / (2 pi^2 h).
    """
    h = mesh.h
    return h / (8.0 * math.sin(0.5 * math.pi * h) ** 2)


def _predicted_start(problem: ForwardProblem, y0, H0, b, directions):
    """The Galerkin prediction of the first Newton step from y0 within span(directions).

    With G the stacked directions and K = A + D diag(newton_coeff(y0)) the
    first Newton system, solves (G^T K G) a = -G^T H0 for the residual H0 at
    y0 and returns the start y0 + G a with its residual, or (y0, H0) when
    the k x k system is singular, a is not finite or the residual norm does
    not fall.  Costs k matvecs, k (k + 3) / 2 dot products and one residual.
    """
    f = problem.nonlinearity
    system = SpdSystem(problem.A, problem.D * f.newton_coeff(y0))
    k = len(directions)
    gram, rhs = np.empty((k, k)), np.empty(k)
    for i, g in enumerate(directions):
        Kg = system.matvec(g)
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = dot(directions[j], Kg)
        rhs[i] = -dot(g, H0)
    try:
        a = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return y0, H0
    if not np.all(np.isfinite(a)):
        return y0, H0
    y = y0.copy()
    for a_i, g in zip(a, directions):
        y += a_i * g
    H = _residual(problem, y, b)
    if norm(H) < norm(H0):
        return y, H
    return y0, H0


def solve_forward(
    problem: ForwardProblem, u, y0=None, directions=(), tol: float = 0.0
) -> ForwardSolution:
    """Solve the nonlinear system by semi-smooth Newton, starting from y0 (default 0).

    The iteration stops once the active set repeats and the residual is at
    most max(FORWARD_RTOL * ||M u||_2, tol); the floor `tol` (finite, >= 0,
    else ValueError) bounds the state's M-norm error by
    `error_certificate(mesh) * tol` where it exceeds the relative stop.
    `directions` (recent state increments, say y_n - y_{n-1}) move a given
    start y0 to the Galerkin prediction of the first Newton step within
    their span when that lowers the residual (see `_predicted_start`);
    without y0, or for u = 0, they are unused.  A `u`, `y0` or direction
    that is not one finite value per interior node raises ValueError naming
    the argument; a `u` whose ||M u||_2 overflows raises ForwardSolveError
    before any Newton step.  A nonzero `u` with ||M u||_2 below TINY_RHS is
    solved from zero, scaled up by a power of two together with `tol`, so
    that neither the Newton stop nor CG work with underflowing norms; only
    u = 0 gives y = 0.  `u`, `y0` and `directions` are never modified: the
    iteration updates its own copy of the state in place.
    """
    if not 0.0 <= tol < math.inf:  # written so that NaN fails
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    f = problem.nonlinearity
    u = field_values(problem.mesh, "u", u)
    if y0 is not None:
        y0 = field_values(problem.mesh, "y0", y0)
    directions = [field_values(problem.mesh, "directions", g) for g in directions]
    b = problem.M @ u
    norm_b = norm(b)
    if not math.isfinite(norm_b):
        raise ForwardSolveError(
            f"source too large: ||M u||_2 overflows to {norm_b}", residual=norm_b
        )
    if norm_b < TINY_RHS and u.any():
        # F(2^k u) = 2^k F(u), and the Newton iteration scales exactly with
        # it; a floor whose scaled value would overflow, which every finite
        # residual meets anyway, is capped at the largest float
        e = math.frexp(np.abs(u).max())[1]
        scaled_tol = math.ldexp(min(tol, math.ldexp(sys.float_info.max, e)), -e)
        sol = solve_forward(problem, np.ldexp(u, -e), tol=scaled_tol)
        y = GridFunction(problem.mesh, np.ldexp(sol.y.values, e), "state")
        return replace(sol, y=y, final_residual=math.ldexp(sol.final_residual, e))
    if y0 is None or norm_b == 0.0:
        y = np.zeros(problem.mesh.n_interior)
    else:
        y = y0.copy()
    H = _residual(problem, y, b)
    if directions and y0 is not None and norm_b > 0.0:
        y, H = _predicted_start(problem, y, H, b, directions)
    active = f.newton_coeff(y)
    stop = max(FORWARD_RTOL * norm_b, tol)
    atol = FORCING * stop
    residual = math.inf
    for iters in range(1, SSN_MAX_ITER + 1):
        # CG is sign-symmetric, so y - K^{-1} H has the bits of y + K^{-1} (-H)
        y -= solve_spd(SpdSystem(problem.A, problem.D * active), H, problem.precond, atol=atol)
        new_active = f.newton_coeff(y)
        H = _residual(problem, y, b)
        residual = norm(H)
        if residual <= stop and np.array_equal(new_active, active):
            return ForwardSolution(
                y=GridFunction(problem.mesh, y, "state"),
                active_pattern=new_active,
                ssn_iterations=iters,
                final_residual=residual,
            )
        active = new_active
    raise ForwardSolveError(
        f"semi-smooth Newton did not converge within {SSN_MAX_ITER} iterations "
        f"(last residual {residual:.3e}, target {stop:.3e})",
        residual=residual,
    )
