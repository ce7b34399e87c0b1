"""Exact data, noise generation and the experiment campaigns.

The benchmark problem reconstructs the source

    u*(x1, x2) = max(y*, 0) + [4 pi^2 y*
                 - 2 ((2 x1 - 1)^2 + 2 (x1 - 1 + beta)(x1 - beta)) sin(2 pi x2)]
                 * ind_(beta, 1-beta](x1)

whose state is

    y*(x1, x2) = (x1 - beta)^2 (x1 - 1 + beta)^2 sin(2 pi x2) * ind_(beta, 1-beta](x1)

with beta = 0.005; y* vanishes on a strip of width 2 beta, so the forward
map is not differentiable at u*.  A second starting point

    u_bar = u* - 2 rho sin(pi x1) sin(2 pi x2)

places the initial error in the range of the subderivative at u*, which
speeds up the iteration considerably.

Noise is iid Gaussian per interior node, either with a raw amplitude sigma
or rescaled so the measured M-norm noise level matches a target exactly.
The generator is NumPy's default PCG64, seeded per cell, so all campaign
outputs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from pathlib import Path

import numpy as np

from .forward import ForwardProblem, solve_forward
from .landweber import (
    FLOAT_CELL,
    INT_CELL,
    LandweberConfig,
    RunRecord,
    empirical_rate,
    parse_reason,
    read_rows,
    run,
    write_rows,
)
from .mesh_fem import GridFunction, Mesh, build_mesh, m_norm

DEFAULT_BETA = 0.005
DEFAULT_RHO = LandweberConfig.rho


def exact_state(x1, x2, beta: float = DEFAULT_BETA):
    """Closed-form exact state y*."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    strip = (x1 > beta) & (x1 <= 1.0 - beta)
    return (x1 - beta) ** 2 * (x1 - 1.0 + beta) ** 2 * np.sin(2.0 * np.pi * x2) * strip


def exact_source(x1, x2, beta: float = DEFAULT_BETA):
    """Closed-form exact source u*; satisfies the PDE with state y*."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    strip = (x1 > beta) & (x1 <= 1.0 - beta)
    y = exact_state(x1, x2, beta)
    curvature = 4.0 * np.pi**2 * y - 2.0 * (
        (2.0 * x1 - 1.0) ** 2 + 2.0 * (x1 - 1.0 + beta) * (x1 - beta)
    ) * np.sin(2.0 * np.pi * x2)
    return np.maximum(y, 0.0) + curvature * strip


def _guess_from(u_star, x1, x2, rho: float):
    """u_bar from the values u* at (x1, x2)."""
    return u_star - 2.0 * rho * np.sin(np.pi * x1) * np.sin(2.0 * np.pi * x2)


def source_guess(x1, x2, beta: float = DEFAULT_BETA, rho: float = DEFAULT_RHO):
    """Starting point u_bar = u* - 2 rho sin(pi x1) sin(2 pi x2)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return _guess_from(exact_source(x1, x2, beta), x1, x2, rho)


def exact_fields(
    mesh: Mesh, beta: float = DEFAULT_BETA, rho: float = DEFAULT_RHO
) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Nodal interpolants (u*, y*, u_bar) on the given mesh.

    The closed forms are called on the m interior coordinates of x1 and, as
    a column, of x2: broadcasting gives the (m, m) node values in row-major
    order with O(m) sine calls and, per node, the operations of the pointwise
    call. u* is evaluated once; u_bar is built from it.
    """
    if not 0.0 < beta < 0.5:
        raise ValueError(f"beta must lie in (0, 0.5), got {beta}")
    x = (np.arange(mesh.m) + 1) * mesh.h  # either axis, as in Mesh.interior_coords
    x1, x2 = x, x[:, None]
    u_star = exact_source(x1, x2, beta)
    return (
        GridFunction(mesh, u_star.ravel(), "source"),
        GridFunction(mesh, exact_state(x1, x2, beta).ravel(), "state"),
        GridFunction(mesh, _guess_from(u_star, x1, x2, rho).ravel(), "source"),
    )


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded Gaussian noise, either raw amplitude or rescaled to a target level."""

    seed: int
    mode: str = "rescale"  # 'raw' (value = sigma) | 'rescale' (value = target delta)
    value: float = 0.0

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))  # a plain int, as a table row records it
        if self.mode not in ("raw", "rescale"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if not 0.0 <= self.value < math.inf:
            raise ValueError(f"noise amplitude/target must be finite and >= 0, got {self.value}")


def add_noise(y: GridFunction, spec: NoiseSpec, M) -> tuple[GridFunction, float]:
    """Perturb y with componentwise Gaussian noise; returns (y_noisy, measured delta).

    In raw mode the draws are scaled by sigma; in rescale mode they are
    scaled so the measured M-norm perturbation equals the target.  The
    returned delta is always the measured M-norm of the perturbation.
    """
    if spec.value == 0.0:
        return y.copy(), 0.0
    rng = np.random.default_rng(spec.seed)
    g = rng.standard_normal(y.values.size)
    scale = spec.value if spec.mode == "raw" else spec.value / m_norm(M, g)
    noisy = GridFunction(y.mesh, y.values + scale * g, role="data")
    return noisy, m_norm(M, noisy.values - y.values)


def _campaign(n_h: int, cfg: LandweberConfig | None):
    """(cfg, problem, (u*, y*, u_bar)) for a campaign at mesh size n_h."""
    cfg = cfg or LandweberConfig()
    problem = ForwardProblem.build(build_mesh(n_h))
    return cfg, problem, exact_fields(problem.mesh, rho=cfg.rho)


def _cell(problem, fields, start: str, cfg: LandweberConfig, noise: NoiseSpec | None):
    """One run from 'zero' or 'source' (u_bar); noisy data with delta measured, or exact
    data with delta 0 when noise is None."""
    u_exact, y_exact, u_bar = fields
    if start == "zero":
        u0 = GridFunction(u_exact.mesh, np.zeros_like(u_exact.values), "source")
    elif start == "source":
        u0 = u_bar
    else:
        raise ValueError(f"unknown starting point {start!r}, expected 'zero' or 'source'")
    if noise is None:
        y_data, delta = y_exact, 0.0
    else:
        y_data, delta = add_noise(y_exact, noise, problem.M)
    return run(problem, y_data, replace(cfg, delta=delta), u0, u_exact)


def run_noise_free(
    n_h: int,
    start: str = "source",
    iters: int = 100,
    cfg: LandweberConfig | None = None,
) -> RunRecord:
    """Noise-free campaign: fixed iteration count, discrepancy disabled (delta = 0)."""
    cfg, problem, fields = _campaign(n_h, cfg)
    return _cell(problem, fields, start, replace(cfg, max_iter=iters), None)


def run_noisy(
    n_h: int,
    noise: NoiseSpec,
    start: str = "source",
    cfg: LandweberConfig | None = None,
) -> RunRecord:
    """One noisy reconstruction, stopped by the discrepancy principle at the measured delta."""
    cfg, problem, fields = _campaign(n_h, cfg)
    return _cell(problem, fields, start, cfg, noise)


TABLE_COLUMNS = (
    ("delta", FLOAT_CELL, float),
    ("seed", INT_CELL, int),
    ("N", INT_CELL, int),
    ("rel_error", FLOAT_CELL, float),  # nan, like rate, for a failed cell
    ("rate", FLOAT_CELL, float),
    ("ssn_total", INT_CELL, int),
    ("reason", str, parse_reason),
)


def run_table(
    n_h: int,
    deltas,
    start: str = "source",
    seeds=(0,),
    cfg: LandweberConfig | None = None,
) -> list[dict]:
    """Noisy campaign over (delta_target, seed) cells; rescale-mode noise.

    Returns one row dict per cell, keyed by the TABLE_COLUMNS names.  Failures
    of a single cell are recorded in its 'reason' and the campaign continues.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0.0 for d in deltas):
        raise ValueError("all noise targets must be positive")
    noises = [NoiseSpec(seed=seed, mode="rescale", value=d) for seed in seeds for d in deltas]
    cfg, problem, fields = _campaign(n_h, cfg)
    norm_exact = m_norm(problem.M, fields[0])

    rows = []
    for noise in noises:
        record = _cell(problem, fields, start, cfg, noise)
        err = np.nan if record.rel_errors is None else float(record.rel_errors[-1])
        rows.append(
            {
                "delta": record.delta,
                "seed": noise.seed,
                "N": record.stopping_index,
                "rel_error": err,
                "rate": empirical_rate(err * norm_exact, record.delta),
                "ssn_total": record.total_ssn,
                "reason": record.reason,
            }
        )
    return rows


def write_table_csv(path, rows) -> Path:
    """Write campaign rows with columns delta,seed,N,rel_error,rate,ssn_total,reason."""
    return write_rows(path, TABLE_COLUMNS, rows)


def read_table_csv(path) -> list[dict]:
    """Read campaign rows written by :func:`write_table_csv`.

    A damaged file raises ValueError naming the file, as `RunRecord.load` does.
    """
    return read_rows(path, TABLE_COLUMNS)


def consistency_residuals(n_h_list) -> dict[int, float]:
    """Discrete consistency of the exact pair: r(n_h) = ||F_h(I_h u*) - I_h y*||_M.

    The residual decays under refinement since (u*, y*) solve the continuum
    equation; the campaign tests assert the decay rate.
    """
    out = {}
    for n_h in n_h_list:
        problem = ForwardProblem.build(build_mesh(n_h))
        u_exact, y_exact, _ = exact_fields(problem.mesh)
        y_h = solve_forward(problem, u_exact).y
        out[n_h] = m_norm(problem.M, y_h.values - y_exact.values)
    return out
