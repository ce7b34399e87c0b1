"""Semi-smooth Newton solver for the discrete problem A y + D f(y) = M u.

The nonlinearity f is a continuous, nondecreasing, piecewise-C^1 scalar
function applied nodewise; the default is f(t) = max(t, 0).  Each Newton
step solves (A + D diag(sigma)) dy = -(A y + D f(y) - M u) where sigma is
the branch derivative at the current iterate, taking the right branch at
breakpoints.  For the max nonlinearity this is the active-set iteration
with the set {y_i >= 0}, which terminates finitely: once the selection
pattern repeats, the iterate solves the nonlinear system up to inner-solver
error.  Termination therefore requires an unchanged pattern and a residual
below the forward tolerance, which also covers branches that are not affine.

A brute-force oracle enumerating all 2^m sign patterns is provided for
meshes with at most 16 interior unknowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .mesh_fem import GridFunction, Mesh, assemble, values_of
from .sparse_linalg import SolveOptions, SpdSystem, poisson_preconditioner, solve_spd


class ForwardSolveError(RuntimeError):
    """Semi-smooth Newton did not converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class PC1Nonlinearity:
    """Continuous nondecreasing piecewise-C^1 function with finitely many kinks.

    Branch i covers the half-open interval (t_{i-1}, t_i]; there is one more
    branch than breakpoints.  `values` and `slopes` hold the branch functions
    and their derivatives as numpy-vectorized callables.  Continuity at each
    breakpoint and nondecreasing branches are checked at construction.
    """

    breakpoints: tuple[float, ...]
    values: tuple[Callable, ...]
    slopes: tuple[Callable, ...]

    def __post_init__(self):
        bp = tuple(float(t) for t in self.breakpoints)
        object.__setattr__(self, "breakpoints", bp)
        if len(self.values) != len(bp) + 1 or len(self.slopes) != len(bp) + 1:
            raise ValueError(
                f"{len(bp)} breakpoints need {len(bp) + 1} branches, "
                f"got {len(self.values)} values / {len(self.slopes)} slopes"
            )
        if any(b >= c for b, c in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must be strictly increasing, got {bp}")
        for i, t in enumerate(bp):
            left = float(np.asarray(self.values[i](np.array([t]))).ravel()[0])
            right = float(np.asarray(self.values[i + 1](np.array([t]))).ravel()[0])
            if not math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError(
                    f"branches {i} and {i + 1} disagree at breakpoint {t}: {left} vs {right}"
                )
        self._check_monotone()

    def _check_monotone(self):
        lo = min(self.breakpoints, default=0.0) - 1.0
        hi = max(self.breakpoints, default=0.0) + 1.0
        edges = [lo, *self.breakpoints, hi]
        for i, slope in enumerate(self.slopes):
            a, b = edges[i], edges[i + 1]
            t = np.linspace(a, b, 33)
            s = np.asarray(slope(t), dtype=float)
            if np.any(s < -1e-12):
                raise ValueError(f"branch {i} is decreasing on ({a}, {b}]")

    @property
    def _bp(self) -> np.ndarray:
        return np.asarray(self.breakpoints)

    def _branch(self, t: np.ndarray, side: str) -> np.ndarray:
        return np.searchsorted(self._bp, t, side=side)

    def _eval(self, funcs: Sequence[Callable], t, side: str) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        branch = self._branch(t, side)
        out = np.empty_like(t)
        for i, fn in enumerate(funcs):
            mask = branch == i
            if mask.any():
                out[mask] = np.asarray(fn(t[mask]), dtype=float)
        return out

    def value(self, t) -> np.ndarray:
        """f(t), selecting branch i on (t_{i-1}, t_i]."""
        return self._eval(self.values, t, "left")

    def bouligand_coeff(self, t) -> np.ndarray:
        """Subderivative coefficient: branch derivative with the left branch at kinks.

        For the max nonlinearity this is the strict indicator of t > 0.
        """
        return self._eval(self.slopes, t, "left")

    def newton_coeff(self, t) -> np.ndarray:
        """Newton derivative coefficient: right branch derivative at kinks.

        For the max nonlinearity this is the indicator of t >= 0.
        """
        return self._eval(self.slopes, t, "right")

    def selection_pattern(self, t) -> np.ndarray:
        """Per-node branch index with the >= convention at kinks."""
        return self._branch(np.asarray(t, dtype=float), "right")


def positive_part() -> PC1Nonlinearity:
    """The default nonlinearity max(t, 0)."""
    return PC1Nonlinearity(
        breakpoints=(0.0,),
        values=(lambda t: np.zeros_like(t), lambda t: t),
        slopes=(lambda t: np.zeros_like(t), lambda t: np.ones_like(t)),
    )


def _is_positive_part(f: PC1Nonlinearity) -> bool:
    if f.breakpoints != (0.0,):
        return False
    probe = np.linspace(-1e3, 1e3, 41)
    return bool(np.max(np.abs(f.value(probe) - np.maximum(probe, 0.0))) <= 1e-14)


@dataclass
class ForwardProblem:
    """Assembled discrete problem A y + D f(y) = M u on one mesh."""

    mesh: Mesh
    A: sp.csr_matrix
    M: sp.csr_matrix
    D: np.ndarray
    nonlinearity: PC1Nonlinearity
    precond: Callable[[np.ndarray], np.ndarray]
    options: SolveOptions = field(default_factory=SolveOptions)
    forward_tol: float = 1e-11
    ssn_max_iter: int = 100

    def __post_init__(self):
        n = self.mesh.n_interior
        if self.A.shape != (n, n) or self.M.shape != (n, n) or self.D.shape != (n,):
            raise ValueError("matrix dimensions do not match the mesh")

    @classmethod
    def build(
        cls,
        mesh: Mesh,
        nonlinearity: PC1Nonlinearity | None = None,
        ssn_max_iter: int = 100,
    ) -> "ForwardProblem":
        """Assemble matrices and set up the fast-Poisson preconditioner."""
        A, M, D = assemble(mesh)
        return cls(
            mesh=mesh,
            A=A,
            M=M,
            D=D,
            nonlinearity=nonlinearity if nonlinearity is not None else positive_part(),
            precond=poisson_preconditioner(mesh.m),
            ssn_max_iter=ssn_max_iter,
        )


@dataclass
class ForwardSolution:
    """Converged state with its selection pattern and iteration diagnostics."""

    y: GridFunction
    active_pattern: np.ndarray
    ssn_iterations: int
    final_residual: float


def forward_residual(problem: ForwardProblem, y, u) -> float:
    """Euclidean residual ||A y + D f(y) - M u||_2."""
    yv, uv = values_of(y), values_of(u)
    if yv.size != problem.mesh.n_interior or uv.size != problem.mesh.n_interior:
        raise ValueError("dimension mismatch between fields and problem")
    r = problem.A @ yv + problem.D * problem.nonlinearity.value(yv) - problem.M @ uv
    return float(np.linalg.norm(r))


def solve_forward(problem: ForwardProblem, u, y0=None) -> ForwardSolution:
    """Solve the nonlinear system by semi-smooth Newton, starting from y0 (default 0)."""
    f = problem.nonlinearity
    b = problem.M @ values_of(u)
    y = np.zeros(problem.mesh.n_interior) if y0 is None else values_of(y0).copy()
    pattern = f.selection_pattern(y)
    residual = math.inf
    for iters in range(1, problem.ssn_max_iter + 1):
        H = problem.A @ y + problem.D * f.value(y) - b
        system = SpdSystem(problem.A, problem.D * f.newton_coeff(y))
        dy = solve_spd(system, -H, problem.options, problem.precond)
        y = y + dy
        new_pattern = f.selection_pattern(y)
        residual = float(np.linalg.norm(problem.A @ y + problem.D * f.value(y) - b))
        if residual <= problem.forward_tol and np.array_equal(new_pattern, pattern):
            return ForwardSolution(
                y=GridFunction(problem.mesh, y, "state"),
                active_pattern=new_pattern,
                ssn_iterations=iters,
                final_residual=residual,
            )
        pattern = new_pattern
    raise ForwardSolveError(
        f"semi-smooth Newton did not converge within {problem.ssn_max_iter} iterations "
        f"(last residual {residual:.3e})",
        residual=residual,
    )


def brute_force_forward(problem: ForwardProblem, u) -> GridFunction:
    """Oracle solve by enumerating all sign patterns; max nonlinearity, <= 16 unknowns.

    For each pattern s the linear system (A + D diag(s)) y = M u is solved;
    the unique y consistent with its own signs (y_i >= 0 where s_i = 1,
    y_i <= 0 where s_i = 0, zeros accepted either way) is returned.
    """
    m = problem.mesh.n_interior
    if m > 16:
        raise ValueError(f"brute-force enumeration refused for {m} > 16 unknowns")
    if not _is_positive_part(problem.nonlinearity):
        raise ValueError("brute-force oracle only covers the max nonlinearity")
    A = problem.A.toarray()
    b = problem.M @ values_of(u)
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
