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
loop does, passes the solution of the preceding source as `previous`.
The Newton iteration then starts from its state, moved to the Galerkin
prediction of the first step within the span of the last
PREDICTION_DIRECTIONS state increments (projection onto earlier
solutions, Fischer 1998), provided that lowers the residual; the active
set of the prediction is closer to the solution's, so fewer Newton steps
follow.  The stop, and so the solution, does not depend on the start.
The window of increments is this module's: each solution keeps its own
increment over `previous` and the (g, A g) pairs its solve used, and the
next solve appends that increment with its A g.  So each stiffness
product, A y of a state and A g of an increment, is formed once, and the
bits of every result stay those of products formed afresh.

Since only that stop decides the final accuracy, each increment is solved
inexactly (inexact Newton with a forcing term, Dembo-Eisenstat-Steihaug
1982): CG stops at max(CG_TOL * ||H||_2, FORCING * max(FORWARD_RTOL *
||M u||_2, tol)), so the increment's own error is a fraction FORCING of
what the stop allows.  A warm solve (`previous` given) offers CG one earlier
exit at MOVING_SET_FORCING * ||H||_2, a forcing term relative to the
step's own residual (Eisenstat-Walker 1996).  There the active set of the
Newton iterate that CG's current iterate gives is compared with the step's
set, and the step ends if they differ.  A step that moves the set is never
the last (Hintermueller-Ito-Kunisch 2002): the step that ends the loop was
solved to the floor above, so the stop keeps its meaning.  Cold solves
are offered no exit.  Either way the next step's set is that of the
iterate the step returned, so the loop carries only its current iterate.

Each Newton system K = A + D diag(s) is preconditioned by the two-level
fast-Poisson map of `sparse_linalg`, with the coarse block of its own
shift, built once per system: the lowest sine modes of K are solved
exactly and the rest by A's inverse.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh_fem import GridFunction, Mesh, assemble, field_values
from .sparse_linalg import (
    FINITE_POSITIVE,
    TINY_RHS,
    ConvergenceError,
    SpdSystem,
    coarse_block_builder,
    dot,
    norm,
    poisson_preconditioner,
    require_scalar,
    require_tolerance,
    solve_spd,
)

FORWARD_RTOL = 1e-10  # Newton residual bound relative to ||M u||_2
FORCING = 1e-4  # each increment's CG floor as a fraction of the Newton stop
# a warm step's CG exit, relative to its residual ||H||_2, taken once the set moves
MOVING_SET_FORCING = 1e-3
SSN_MAX_ITER = 100
# state increments spanning each warm Newton start's prediction; 0 starts from
# the previous state.  At n_h = 257 one increment saves no Newton solve and
# costs more CG work, and four save one solve more than three
PREDICTION_DIRECTIONS = 3
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
    them with `@` only, so a CSR matrix of the same shape also works.  D
    is the lumped mass, one number for every interior node (the lumped
    matrix is D times the identity), stored as a float: one that is not
    finite and positive, an array included, raises ValueError.
    `precond(r, coarse=None)` is the fast-Poisson preconditioner, and
    `coarse_block` maps a Newton system's shift to the coarse block that
    makes it the two-level map of that system.
    """

    mesh: Mesh
    A: sp.dia_matrix
    M: sp.dia_matrix
    D: float
    nonlinearity: PositivePart
    precond: Callable[..., np.ndarray]
    coarse_block: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        n = self.mesh.n_interior
        if self.A.shape != (n, n) or self.M.shape != (n, n):
            raise ValueError("matrix dimensions do not match the mesh")
        self.D = require_scalar("D", self.D, *FINITE_POSITIVE)

    @classmethod
    def build(cls, mesh: Mesh) -> "ForwardProblem":
        """Assemble matrices and set up the fast-Poisson preconditioner.

        The preconditioner `poisson_preconditioner` runs in float32 from
        SINGLE_PRECISION_MIN_SIDE interior points per side on, and in
        float64, the exact inverse, below; the coarse blocks of its
        two-level form come from `coarse_block_builder`.
        """
        A, M, D = assemble(mesh)
        dtype = np.float32 if mesh.m >= SINGLE_PRECISION_MIN_SIDE else np.float64
        return cls(
            mesh=mesh,
            A=A,
            M=M,
            D=D,
            nonlinearity=PositivePart(),
            precond=poisson_preconditioner(mesh.m, dtype),
            coarse_block=coarse_block_builder(mesh.m),
        )


@dataclass
class ForwardSolution:
    """Converged state, its active set {y >= 0} as a bool mask, and iteration diagnostics.

    `A_y` is the stiffness product A y of the state, which the last
    residual formed; a warm solve from this solution takes it for the
    residual of its start.
    `u` is the source the state solves: a copy of the caller's values,
    bit for bit, that no later change to the caller's array reaches.
    `increment` is y - previous.y over the solution the solve started
    from (None for a cold solve), and `window` the at most
    PREDICTION_DIRECTIONS (g, A g) pairs of increments its solve used,
    oldest first; a solve from this solution appends `increment` to them.
    """

    y: GridFunction
    active_pattern: np.ndarray
    ssn_iterations: int
    final_residual: float
    A_y: np.ndarray
    u: np.ndarray
    increment: np.ndarray | None
    window: tuple


def _residual(problem: ForwardProblem, y: np.ndarray, A_y: np.ndarray, b: np.ndarray):
    """The residual A y + D f(y) - b in one new vector, from the product A_y = A y.

    D f(y) + A y is summed into the vector of f(y); IEEE addition commutes,
    so the bits are those of A y + D f(y).
    """
    H = problem.nonlinearity.value(y)
    H *= problem.D
    H += A_y
    H -= b
    return H


def forward_residual(problem: ForwardProblem, y, u) -> float:
    """Euclidean residual ||A y + D f(y) - M u||_2."""
    yv, uv = field_values(problem.mesh, "y", y), field_values(problem.mesh, "u", u)
    return norm(_residual(problem, yv, problem.A @ yv, problem.M @ uv))


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


def _predicted_start(problem: ForwardProblem, y0, H0, b, window):
    """The Galerkin prediction of the first Newton step from y0 within the span of a window.

    `window` holds (g, A g) pairs of directions g and their stiffness
    products.  With G the stacked directions and K = A + D
    diag(newton_coeff(y0)) the first Newton system, solves (G^T K G) a =
    -G^T H0 for the residual H0 at y0 and returns the start y0 + G a with
    its residual, or (y0, H0) when the k x k system is singular, a is not
    finite or the residual norm does not fall.  K g is summed as shift * g
    + A g, which has the bits of K applied to g since IEEE addition
    commutes.  Costs k (k + 3) / 2 dot products and one residual, whose
    A y is the only stiffness product.
    """
    shift = problem.D * problem.nonlinearity.newton_coeff(y0)
    k = len(window)
    gram, rhs = np.empty((k, k)), np.empty(k)
    for i, (g, A_g) in enumerate(window):
        Kg = shift * g
        Kg += A_g
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = dot(window[j][0], Kg)
        rhs[i] = -dot(g, H0)
    try:
        a = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        return y0, H0
    if not np.all(np.isfinite(a)):
        return y0, H0
    y = y0.copy()
    for a_i, (g, _) in zip(a, window):
        y += a_i * g
    H = _residual(problem, y, problem.A @ y, b)
    if norm(H) < norm(H0):
        return y, H
    return y0, H0


def solve_forward(
    problem: ForwardProblem, u, previous: ForwardSolution | None = None, tol: float = 0.0
) -> ForwardSolution:
    """Solve the nonlinear system by semi-smooth Newton, from zero or from `previous`.

    The iteration stops once the active set repeats and the residual is at
    most max(FORWARD_RTOL * ||M u||_2, tol); the floor `tol` (finite, >= 0,
    not a bool, else ValueError) bounds the state's M-norm error by
    `error_certificate(mesh) * tol` where it exceeds the relative stop.  A
    `u` that is not one finite value per interior node raises ValueError
    naming it; a `u` whose ||M u||_2 overflows raises ForwardSolveError
    before any Newton step.  A nonzero `u` with ||M u||_2 below TINY_RHS is
    solved from zero, scaled up by a power of two together with `tol`, so
    that neither the Newton stop nor CG work with underflowing norms; only
    u = 0 gives y = 0.  Neither `u` nor `previous` is modified: the
    iteration updates its own copy of the state in place, and the solution
    keeps its own copy of `u` (unscaled where the solve was scaled).

    `previous`, the solution of the preceding source, makes the solve warm;
    one on another mesh raises ValueError naming it.  The solve owns the
    prediction window: its own is previous.window with previous.increment
    appended, that increment's A g formed here, cut to the last
    PREDICTION_DIRECTIONS pairs (at 0 none is kept and no A g formed).  The
    Newton iteration starts from previous.y, whose residual takes
    previous.A_y, moved to the Galerkin prediction within the span of the
    window where that lowers the residual (see `_predicted_start`).  The
    tiny-source and u = 0 paths start from zero, but their solutions keep
    the window and the increment all the same.  A start from zero forms no
    product before the first Newton step: A 0 = 0.  The returned solution
    carries A y of its state as `A_y`, its increment y - previous.y (None
    without `previous`) and its window.

    From `previous`, each Newton step offers `solve_spd` its early exit at
    MOVING_SET_FORCING times the step's residual ||H||_2.  Once CG gets
    there, the set {y >= 0} of the Newton iterate its current iterate gives
    is evaluated; if it differs from the step's set, the step ends there.
    Every step's next set is {y >= 0} of the iterate its solve returned,
    whether or not the exit was taken.  A step that took the exit cannot
    end the loop, so the returned state comes from a step solved to the
    FORCING floor.  A cold solve offers no exit, and every CG solve runs
    to that floor.
    """
    require_tolerance("tol", tol)
    if previous is not None and previous.y.mesh != problem.mesh:
        raise ValueError(
            f"previous lies on the mesh n_h={previous.y.mesh.n_h}, "
            f"not on the problem's n_h={problem.mesh.n_h}"
        )
    f = problem.nonlinearity
    u = field_values(problem.mesh, "u", u)
    b = problem.M @ u
    norm_b = norm(b)
    if not math.isfinite(norm_b):
        raise ForwardSolveError(
            f"source too large: ||M u||_2 overflows to {norm_b}", residual=norm_b
        )
    window = ()
    if previous is not None and previous.increment is not None and PREDICTION_DIRECTIONS > 0:
        g = previous.increment
        window = (*previous.window, (g, problem.A @ g))[-PREDICTION_DIRECTIONS:]

    def solution(y, **diagnostics) -> ForwardSolution:
        return ForwardSolution(
            y=GridFunction(problem.mesh, y, "state"),
            u=u.copy(),  # once CG's buffers are freed, so the peak does not grow
            increment=None if previous is None else y - previous.y.values,
            window=window,
            **diagnostics,
        )

    if norm_b < TINY_RHS and u.any():
        # F(2^k u) = 2^k F(u), and the Newton iteration scales exactly with
        # it; a floor whose scaled value would overflow, which every finite
        # residual meets anyway, is capped at the largest float
        e = math.frexp(np.abs(u).max())[1]
        scaled_tol = math.ldexp(min(tol, math.ldexp(sys.float_info.max, e)), -e)
        sol = solve_forward(problem, np.ldexp(u, -e), tol=scaled_tol)
        y = np.ldexp(sol.y.values, e)
        return solution(
            y,
            active_pattern=sol.active_pattern,
            ssn_iterations=sol.ssn_iterations,
            final_residual=math.ldexp(sol.final_residual, e),
            A_y=problem.A @ y,  # scaling back may round into subnormals
        )
    if previous is None or norm_b == 0.0:
        y = np.zeros(problem.mesh.n_interior)
        H = _residual(problem, y, y, b)  # A 0 = 0: the zero state is its own product
    else:
        y = previous.y.values.copy()
        H = _residual(problem, y, previous.A_y, b)
        if window:
            y, H = _predicted_start(problem, y, H, b, window)
    active = f.newton_coeff(y)
    stop = max(FORWARD_RTOL * norm_b, tol)
    atol = FORCING * stop
    residual = norm(H)

    def set_moves(dy):
        """Whether the iterate y - dy leaves the step's active set."""
        return not np.array_equal(f.newton_coeff(y - dy), active)

    for iters in range(1, SSN_MAX_ITER + 1):
        system = SpdSystem(problem.A, problem.D * active)
        coarse = problem.coarse_block(system.shift)

        def precond(r):
            # problem.precond is read at each call, so a wrapper put on the
            # field after build sees every CG iteration
            return problem.precond(r, coarse)

        early_exit = None if previous is None else (MOVING_SET_FORCING * residual, set_moves)
        # CG is sign-symmetric, so y - K^{-1} H has the bits of y + K^{-1} (-H)
        y -= solve_spd(system, H, precond, atol=atol, early_exit=early_exit)
        new_active = f.newton_coeff(y)
        A_y = problem.A @ y
        H = _residual(problem, y, A_y, b)
        residual = norm(H)
        if residual <= stop and np.array_equal(new_active, active):
            return solution(
                y, active_pattern=new_active, ssn_iterations=iters, final_residual=residual, A_y=A_y
            )
        del A_y  # only the returned state's product is kept past a CG solve
        active = new_active
    raise ForwardSolveError(
        f"semi-smooth Newton did not converge within {SSN_MAX_ITER} iterations "
        f"(last residual {residual:.3e}, target {stop:.3e})",
        residual=residual,
    )
