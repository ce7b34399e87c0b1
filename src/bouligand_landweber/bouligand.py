"""Application of the Bouligand subderivative of the forward map.

At a state y the subderivative maps w to the solution eta of the linear
system (A + K_y) eta = M w, where K_y = D diag(a) and a is the strict
indicator of y_i > 0, so K_y has entries h^2 at strictly positive interior
nodes and 0 elsewhere.

The operator (A + K_y)^{-1} M is self-adjoint in the M-weighted inner
product, so the Landweber step uses it directly in place of a separately
implemented adjoint; the tests verify this rather than assume it.

By default the solve is exact up to CG_TOL, which the contract checks
(self-adjointness, the linearization and tangential-cone checks) rely on.
A caller that needs less may pass a relative floor `rtol`: CG then stops
at max(CG_TOL, rtol) * ||M w||_2, as the Landweber step does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .forward import ForwardProblem
from .mesh_fem import GridFunction, field_values
from .sparse_linalg import SpdSystem, norm, solve_spd


@dataclass(frozen=True)
class LinearizedOperator:
    """The matrix A + K_y frozen at a base state y; `coeff` is the bool mask {y > 0}."""

    problem: ForwardProblem
    coeff: np.ndarray
    system: SpdSystem


def build_linearized(problem: ForwardProblem, y) -> LinearizedOperator:
    """Assemble A + K_y with the subderivative coefficient ind_{y > 0}."""
    coeff = problem.nonlinearity.bouligand_coeff(field_values(problem.mesh, "y", y))
    return LinearizedOperator(
        problem=problem,
        coeff=coeff,
        system=SpdSystem(problem.A, problem.D * coeff),
    )


def apply_subderivative(
    op: LinearizedOperator, M: sp.spmatrix, w, rtol: float = 0.0
) -> GridFunction:
    """Solve (A + K_y) eta = M w to max(CG_TOL, rtol) * ||M w||_2 and return eta.

    `rtol` (finite, >= 0) is a relative floor; the default 0 keeps the
    solve at CG_TOL.
    """
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and >= 0, got {rtol}")
    rhs = M @ field_values(op.problem.mesh, "w", w)
    atol = rtol * norm(rhs) if rtol > 0.0 else 0.0
    if not math.isfinite(atol):  # ||M w||_2 overflowed or is NaN: solve_spd names that
        atol = 0.0
    eta = solve_spd(op.system, rhs, op.problem.precond, atol=atol)
    return GridFunction(op.problem.mesh, eta, "source")
