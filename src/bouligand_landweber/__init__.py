"""Bouligand-Landweber iterative regularization for a nonsmooth inverse source problem.

The package reconstructs the source u in

    -Laplace(y) + max(y, 0) = u  on (0,1)^2,    y = 0 on the boundary,

from noisy observations of the state y.  The forward map is only
directionally differentiable where the state vanishes, so the Landweber
update employs a Bouligand subderivative: the solution operator of the
linear PDE with coefficient ind_{y > 0}.  Stopping follows the Morozov
discrepancy principle.

Layout:
  mesh_fem      P1 finite elements on the uniform Friedrichs-Keller mesh
  sparse_linalg preconditioned CG for the SPD systems
  forward       semi-smooth Newton forward solver for max(y, 0)
  bouligand     assembly/application of the subderivative systems
  formats       the CSV column tables and JSON files: cells, readers, writers
  landweber     outer iteration, discrepancy stopping, run records
  verification  tangential-cone surveys, oracle and adjoint checks
  experiments   exact benchmark data, noise, experiment campaigns
  cli           command-line front end
"""

import types

from .mesh_fem import (
    GridFunction,
    Mesh,
    assemble,
    assemble_full,
    build_mesh,
    interpolate,
    m_inner,
    m_norm,
    read_grid_function,
    write_grid_function,
)
from .sparse_linalg import (
    ConvergenceError,
    SpdSystem,
    poisson_preconditioner,
    solve_spd,
)
from .forward import (
    ForwardProblem,
    ForwardSolution,
    ForwardSolveError,
    PositivePart,
    forward_residual,
    solve_forward,
)
from .bouligand import LinearizedOperator, apply_subderivative, build_linearized
from .landweber import (
    LandweberConfig,
    ParameterCheck,
    RunRecord,
    check_parameters,
    empirical_rate,
    run,
)
from .verification import (
    AdjointReport,
    DegeneratePairError,
    OracleReport,
    TCCEstimate,
    TCCSurvey,
    adjoint_check,
    brute_force_forward,
    mismatch_measure,
    oracle_sweep,
    tcc_ratio,
    tcc_survey,
)
from .experiments import (
    NoiseSpec,
    add_noise,
    consistency_residuals,
    exact_fields,
    exact_source,
    exact_state,
    run_noise_free,
    run_noisy,
    run_table,
    source_guess,
)
from .formats import read_table_csv, write_table_csv

__version__ = "0.1.0"

# the import blocks above are the one list of exported names
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
