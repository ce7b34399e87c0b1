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

`Setup(n_h, start)` names this test problem once: its `build` returns the
forward problem at mesh size n_h, the exact fields (u*, y*, u_bar) and the
start u0, zero or u_bar (one of STARTS).  Every campaign, the consistency
study and the CLI build through it, and the three campaigns run one cell
loop: one build, every cell's data, one solve of F(u0), then one run per
noise from that solution.

Noise is iid Gaussian per interior node, either with a raw amplitude sigma
or rescaled so the measured M-norm noise level matches a target exactly.
The generator is NumPy's default PCG64, seeded per cell, so all campaign
outputs are reproducible.  A noise level is finite and positive, and exact
data is no noise at all (None in the cell loop), not a level of 0.  A run
stops at tau * delta for the delta the noise measures, so `add_noise`
refuses data whose measured delta is 0, the noise lost in the rounding of
y*, or not finite, its M-norm overflowed: each level is checked once, where
its value becomes known.  A campaign draws every cell's data before its
first run, so it refuses such a level before any step.

A campaign returns records and table rows; the files they are stored in,
the table CSV included, are those of `formats`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .forward import ForwardProblem, solve_forward
from .landweber import LandweberConfig, RunRecord, empirical_rate, run
from .mesh_fem import GridFunction, Mesh, build_mesh, m_norm
from .sparse_linalg import FINITE_POSITIVE, ConvergenceError, require_scalar, require_seed

DEFAULT_BETA = 0.005


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


def source_guess(x1, x2, beta: float = DEFAULT_BETA, rho: float = LandweberConfig.rho):
    """Starting point u_bar = u* - 2 rho sin(pi x1) sin(2 pi x2)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return _guess_from(exact_source(x1, x2, beta), x1, x2, rho)


def exact_fields(
    mesh: Mesh, beta: float = DEFAULT_BETA, rho: float = LandweberConfig.rho
) -> tuple[GridFunction, GridFunction, GridFunction]:
    """Nodal interpolants (u*, y*, u_bar) on the given mesh.

    The closed forms are called on the m interior coordinates of x1 and, as
    a column, of x2: broadcasting gives the (m, m) node values in row-major
    order with O(m) sine calls and, per node, the operations of the pointwise
    call. u* is evaluated once; u_bar is built from it.
    """
    beta = require_scalar("beta", beta, Real, lambda v: 0.0 < v < 0.5, "lie in (0, 0.5)")
    rho = require_scalar("rho", rho, *FINITE_POSITIVE)  # the rule of LandweberConfig.rho
    x = (np.arange(mesh.m) + 1) * mesh.h  # either axis, as in Mesh.interior_coords
    x1, x2 = x, x[:, None]
    u_star = exact_source(x1, x2, beta)
    return (
        GridFunction(mesh, u_star.ravel(), "source"),
        GridFunction(mesh, exact_state(x1, x2, beta).ravel(), "state"),
        GridFunction(mesh, _guess_from(u_star, x1, x2, rho).ravel(), "source"),
    )


@dataclass(frozen=True, kw_only=True)
class NoiseSpec:
    """Seeded Gaussian noise, either raw amplitude or rescaled to a target level.

    The level `value` is finite and positive, else ValueError: exact data
    is no noise, not a level of 0.  Every field is given by keyword.
    """

    seed: int
    mode: str = "rescale"  # 'raw' (value = sigma) | 'rescale' (value = target delta)
    value: float

    def __post_init__(self):
        # a plain int and a plain float, as a table row records them
        object.__setattr__(self, "seed", require_seed(self.seed))
        if self.mode not in ("raw", "rescale"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        value = require_scalar("noise amplitude/target", self.value, *FINITE_POSITIVE)
        object.__setattr__(self, "value", value)


def add_noise(y: GridFunction, spec: NoiseSpec, M) -> tuple[GridFunction, float]:
    """Perturb y with componentwise Gaussian noise; returns (y_noisy, measured delta).

    In raw mode the draws are scaled by sigma; in rescale mode they are
    scaled so the measured M-norm perturbation equals the target.  The
    returned delta is always the measured M-norm of the perturbation, and
    finite and positive: a delta of 0 (a level lost in the rounding of y)
    or not finite (one whose data or M-norm overflows) fails the one
    scalar check, whose ValueError names the mode, the level, n_h and the
    measured delta.
    """
    rng = np.random.default_rng(spec.seed)
    g = rng.standard_normal(y.values.size)
    scale = spec.value if spec.mode == "raw" else spec.value / m_norm(M, g)
    with np.errstate(over="ignore"):  # an overflow is a delta that is not finite
        noisy = y.values + scale * g
    name = f"delta of {spec.mode} noise at level {spec.value!r} on the n_h={y.mesh.n_h} data"
    delta = require_scalar(name, m_norm(M, noisy - y.values), *FINITE_POSITIVE)
    return GridFunction(y.mesh, noisy, role="data"), delta


STARTS = ("zero", "source")


@dataclass(frozen=True)
class Setup:
    """The test problem at mesh size n_h, started from zero or from u_bar ('source').

    An unknown start raises ValueError when the setup is made, before
    anything is built.  beta is DEFAULT_BETA and rho, which places u_bar,
    is the run's `LandweberConfig.rho`: both stay out of the setup, as the
    noise does, so the cells of a campaign share one.
    """

    n_h: int
    start: str = "source"

    def __post_init__(self):
        if self.start not in STARTS:
            raise ValueError(f"unknown starting point {self.start!r}, expected 'zero' or 'source'")

    def build(self, rho: float = LandweberConfig.rho):
        """(problem, (u*, y*, u_bar), u0): the forward problem, its exact fields and the start.

        u_bar lies at `rho` from u*, as `exact_fields` places it.
        """
        problem = ForwardProblem.build(build_mesh(self.n_h))
        fields = exact_fields(problem.mesh, rho=rho)
        u0 = fields[2]  # u_bar
        if self.start == "zero":
            u0 = GridFunction(problem.mesh, np.zeros_like(u0.values), "source")
        return problem, fields, u0


def _runs(setup: Setup, cfg: LandweberConfig | None, noises):
    """(problem, u*, records): one `run` per noise, each against its own data, on one build.

    A noise of None is exact data with delta 0; otherwise the data is noisy
    and delta the measured level.  A cfg that sets delta raises ValueError
    before anything is built, and every cell's data is drawn before the
    first run, so a level `add_noise` refuses ends the campaign before any
    step.  Every cell starts from the setup's u0, so F(u0) is solved once,
    after the data: the first cell runs from that solution and records its
    Newton steps, every later cell from a copy that counts none.  Where
    that solve fails, every cell runs from u0, solves it itself and
    records what it gets.
    """
    cfg = cfg or LandweberConfig()
    if cfg.delta != LandweberConfig.delta:
        raise ValueError(f"cfg.delta is {cfg.delta!r}, but the campaign takes delta from its data")
    problem, (u_exact, y_exact, _), u0 = setup.build(cfg.rho)
    data = [(y_exact, 0.0) if n is None else add_noise(y_exact, n, problem.M) for n in noises]
    try:
        solution = solve_forward(problem, u0)
    except ConvergenceError:
        starts = [u0] * len(data)
    else:
        starts = [solution, *[replace(solution, ssn_iterations=0)] * (len(data) - 1)]
    records = [
        run(problem, y_data, replace(cfg, delta=delta), start, u_exact)
        for (y_data, delta), start in zip(data, starts)
    ]
    return problem, u_exact, records


def run_noise_free(
    n_h: int,
    start: str = "source",
    iters: int = 100,
    cfg: LandweberConfig | None = None,
) -> RunRecord:
    """Noise-free campaign: fixed iteration count, discrepancy disabled (delta = 0).

    The run makes `iters` steps: a cfg that sets max_iter, or delta, raises
    ValueError before anything is built.
    """
    setup, cfg = Setup(n_h, start), cfg or LandweberConfig()
    if cfg.max_iter != LandweberConfig.max_iter:
        raise ValueError(f"cfg.max_iter is {cfg.max_iter!r}, but the campaign makes `iters` steps")
    _, _, [record] = _runs(setup, replace(cfg, max_iter=iters), [None])
    return record


def run_noisy(
    n_h: int,
    noise: NoiseSpec,
    start: str = "source",
    cfg: LandweberConfig | None = None,
) -> RunRecord:
    """One noisy reconstruction, stopped by the discrepancy principle at the measured delta.

    A cfg that sets delta raises ValueError before anything is built.
    """
    _, _, [record] = _runs(Setup(n_h, start), cfg, [noise])
    return record


def run_table(
    n_h: int,
    deltas,
    start: str = "source",
    seeds=(0,),
    cfg: LandweberConfig | None = None,
) -> list[dict]:
    """Noisy campaign over (delta_target, seed) cells; rescale-mode noise.

    Returns one row dict per cell, keyed by the names of
    `formats.TABLE_COLUMNS`, whose `write_table_csv` stores them.  Failures
    of a single cell are recorded in its 'reason' and the campaign continues.
    Every cell starts from the same u0, so the campaign solves F(u0) once,
    before the first cell: the first row counts its Newton steps in
    `ssn_total` and every later row none.  Where that solve fails, each
    cell solves u0 itself.  Each cell's record is otherwise bit for bit the
    one of `run_noisy`.
    Every target and seed passes `NoiseSpec` before anything is built, and
    every cell's data is drawn before the first run: a bad target, seed or
    cfg, or a target whose data `add_noise` refuses, raises ValueError
    before any step.
    """
    deltas = list(deltas)  # iterated once per seed
    noises = [NoiseSpec(seed=seed, mode="rescale", value=d) for seed in seeds for d in deltas]
    problem, u_exact, records = _runs(Setup(n_h, start), cfg, noises)
    norm_exact = m_norm(problem.M, u_exact)

    rows = []
    for noise, record in zip(noises, records):
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


def consistency_residuals(n_h_list) -> dict[int, float]:
    """Discrete consistency of the exact pair: r(n_h) = ||F_h(I_h u*) - I_h y*||_M.

    The residual decays under refinement since (u*, y*) solve the continuum
    equation; the campaign tests assert the decay rate.
    """
    out = {}
    for n_h in n_h_list:
        problem, (u_exact, y_exact, _), _ = Setup(n_h).build()
        y_h = solve_forward(problem, u_exact).y
        out[n_h] = m_norm(problem.M, y_h.values - y_exact.values)
    return out
