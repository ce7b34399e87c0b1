"""Landweber outer iteration with Bouligand subderivative steps.

The iteration is

    u_{n+1} = u_n + w_n G_{u_n}(y_data - F(u_n)),

where F is the discrete forward map, G_{u_n} applies (A + K_{y_n})^{-1} M
(self-adjoint in the M inner product, so no separate adjoint solve), and
w_n is the step size.  One step is :func:`step`, which maps one
:class:`Iterate` to the next and keeps no state of its own; its docstring
states how each solve of a step is made.  :func:`run` records each
iterate and applies the stopping rule around it: with noisy data of level
delta the loop stops at the first index whose M-norm residual drops to
tau*delta (discrepancy principle), at the first index whose residual
exceeds the starting one or whose update overflows (divergence), or after
max_iter steps.  All residual and error norms use the M-weighted norm.

Two scalar parameter conditions from the convergence theory are evaluated
by :func:`check_parameters`, never enforced: with the default experiment
parameters both are violated, yet the iteration behaves well.

Each forward solution keeps the source it solves, so an iterate u_n is
its solution's `u`, and a run starts from either: a source u0, which it
solves, or a forward solution, whose `u` is its start.  Runs from the same
start, as the cells of a table are, share F(u0): the campaign solves it
once and starts each run from it, so every record has the bits of the run
from u0 itself; a cell after the first starts from a copy that counts 0
Newton steps.

A run's record holds what the run produced, its config and its history;
delta, tau, the stopping index and the parameter check at lbar follow from
them.  Its saved summary states these too, and loading it requires the
stored summary to be the one the config and the history give, key for key,
so a saved run re-checks its stopping rule from its own files.  The files'
columns, cells and reasons are those of `formats`; this module keeps the
method, and reads and writes its record through them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from . import formats
from .bouligand import apply_subderivative, build_linearized
from .formats import (
    REASON_DISCREPANCY,
    REASON_DIVERGENCE,
    REASON_FORWARD_FAILURE,
    REASON_MAX_ITERATIONS,
)
from .forward import ForwardProblem, ForwardSolution, error_certificate, solve_forward
from .mesh_fem import GridFunction, field_values, m_norm
from .sparse_linalg import (
    FINITE_NONNEGATIVE,
    FINITE_POSITIVE,
    NONNEGATIVE_INTEGER,
    ConvergenceError,
    dot,
    require_scalar,
)

logger = logging.getLogger(__name__)

SUBDERIVATIVE_RTOL = 1e-8  # the step's CG floor relative to ||M r_n||_2
# bound on each forward solve's M-norm state error relative to the smallest
# residual recorded before it; 0 keeps the relative Newton stop everywhere
FORWARD_ERROR_FRACTION = 1e-7


# (kind, bound, requirement) of each LandweberConfig field; each bound fails NaN
_CONFIG_BOUNDS = {
    "mu": (Real, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
    "tau": (Real, lambda v: 1.0 < v < math.inf, "be finite and exceed 1"),
    "rho": FINITE_POSITIVE,
    # constant_step's lbar**2 raises OverflowError where it overflows, and its
    # division ZeroDivisionError where it underflows to 0
    "lbar": (Real, lambda v: 0.0 < v and 0.0 < v * v < math.inf,
             "be positive with a finite nonzero square"),
    "max_iter": NONNEGATIVE_INTEGER,
    "delta": FINITE_NONNEGATIVE,
}


@dataclass(frozen=True)
class LandweberConfig:
    """Parameters of one Landweber run.

    The step size is the constant w = (2 - 2 mu) / lbar^2.  rho is the ball
    radius of the theory; the campaigns and the CLI build the starting point
    u_bar = u* - 2 rho sin(pi x1) sin(2 pi x2) from it.  max_iter = 0
    evaluates the starting point only.  Each field passes `require_scalar`
    with its row of _CONFIG_BOUNDS.  lbar must have a square that is finite
    and nonzero, from about 1.6e-162 to 1.3e154, so that the step can be
    evaluated, and the step must be finite and nonzero, else a ValueError
    names mu and lbar: below about 1e-154 the step is infinite, so the
    first update would overflow, and a step that underflows to 0 (mu within
    about 1e-16 of 1 with lbar near 1.3e154) would never move.
    """

    mu: float = 0.1
    tau: float = 1.4
    rho: float = 5.0
    lbar: float = 5e-2
    max_iter: int = 5000
    delta: float = 0.0

    def __post_init__(self):
        # stored as plain floats and a plain int, as JSON records need
        for name, (kind, bound, requirement) in _CONFIG_BOUNDS.items():
            value = require_scalar(name, getattr(self, name), kind, bound, requirement)
            object.__setattr__(self, name, value)
        if not 0.0 < self.constant_step < math.inf:
            raise ValueError(
                f"mu and lbar must give a finite nonzero step (2 - 2 mu) / lbar^2, "
                f"got mu={self.mu!r} and lbar={self.lbar!r}"
            )

    @property
    def constant_step(self) -> float:
        return (2.0 - 2.0 * self.mu) / self.lbar**2


# config keys of records written before the per-step schedule options were removed
_LEGACY_CONFIG_KEYS = ("steps", "lam", "Lam", "warm_start")


def _config(value) -> LandweberConfig:
    """A stored config: a JSON object whose keys, legacy keys aside, build a LandweberConfig."""
    if not isinstance(value, dict):
        raise ValueError(f"must be a JSON object, got {value!r}")
    try:  # an unknown key is a TypeError, a bad value a ValueError
        return LandweberConfig(**{k: v for k, v in value.items() if k not in _LEGACY_CONFIG_KEYS})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"is not a valid LandweberConfig: {exc}") from exc


@dataclass(frozen=True)
class ParameterCheck:
    """The two scalar left-hand sides that must be negative in the theory."""

    choice: float
    choice_aux: float

    @property
    def satisfied(self) -> tuple[bool, bool]:
        """Whether each side is negative, as the theory needs."""
        return (self.choice < 0.0, self.choice_aux < 0.0)


def check_parameters(cfg: LandweberConfig, L: float) -> ParameterCheck:
    """Evaluate both step-size conditions for a subderivative norm bound L.

    choice     = 2 (mu + 1) / tau - (2 - 2 mu - Lam L^2)
    choice_aux = -1 + mu + 5 Lam L^2

    with Lam the constant step size.  Both must be negative for the
    convergence theory; the result is reported, never enforced.  Lam L^2 is
    evaluated as (2 - 2 mu) (L / lbar)^2, which is exactly 2 - 2 mu at
    L = lbar, however large Lam is.
    """
    L = require_scalar("norm bound L", L, *FINITE_POSITIVE)
    lam_l2 = (2.0 - 2.0 * cfg.mu) * (L / cfg.lbar) ** 2
    choice = 2.0 * (cfg.mu + 1.0) / cfg.tau - (2.0 - 2.0 * cfg.mu - lam_l2)
    choice_aux = -1.0 + cfg.mu + 5.0 * lam_l2
    return ParameterCheck(choice, choice_aux)


def empirical_rate(err_abs: float, delta: float) -> float:
    """Empirical convergence rate ||u_exact - u||_M / sqrt(delta); undefined at delta = 0."""
    return err_abs / np.sqrt(require_scalar("delta", delta, *FINITE_POSITIVE))


@dataclass
class RunRecord:
    """What one Landweber run produced: its history, why it ended, and its config.

    Everything else the summary states follows from these: delta and tau
    from the config, the stopping index from the length of the history, and
    the parameter check from the config at its assumed bound lbar.
    `ssn_counts[n]` counts the Newton steps of F(u_n); at n = 0 they are
    those of the start's solve, the run's own or the `ssn_iterations` of
    the solution it started from.  The final iterate is not saved, and is
    None after `load`.
    """

    residual_norms: np.ndarray
    rel_errors: np.ndarray | None
    ssn_counts: np.ndarray
    reason: str
    config: LandweberConfig
    final: GridFunction | None = None

    @property
    def delta(self) -> float:
        return self.config.delta

    @property
    def tau(self) -> float:
        return self.config.tau

    @property
    def threshold(self) -> float:
        return self.tau * self.delta

    @property
    def stopping_index(self) -> int:
        return len(self.residual_norms) - 1

    @property
    def total_ssn(self) -> int:
        """The Newton steps the run made: the summary's `ssn_total`."""
        return int(np.sum(self.ssn_counts))

    @property
    def parameter_check(self) -> ParameterCheck:
        return check_parameters(self.config, self.config.lbar)

    def check_discrepancy(self) -> bool:
        """Re-verify the stopping rule from the recorded history alone."""
        n = self.stopping_index
        if n < 0:
            return False
        if np.any(self.residual_norms[:n] <= self.threshold):
            return False
        stopped = self.residual_norms[n] <= self.threshold
        return stopped if self.reason == REASON_DISCREPANCY else not stopped

    def summary(self) -> dict:
        """The JSON summary: the config, the reason, and what follows from them and the history."""
        check = self.parameter_check
        return {
            "config": asdict(self.config),
            "delta": self.delta,
            "tau": self.tau,
            "stopping_index": self.stopping_index,
            "reason": self.reason,
            "ssn_total": self.total_ssn,
            "parameter_check": {**asdict(check), "satisfied": list(check.satisfied)},
        }

    def save(self, base) -> tuple[Path, Path]:
        """Write `<base>.csv` (per-iteration history) and `<base>.json` (summary)."""
        base = Path(base)
        errors = [None] * len(self.residual_norms) if self.rel_errors is None else self.rel_errors
        history = zip(self.residual_norms, errors, self.ssn_counts, strict=True)
        rows = (
            {"n": n, "residual_M": res, "rel_error": err, "ssn_iters": ssn}
            for n, (res, err, ssn) in enumerate(history)
        )
        csv_path = base.with_name(base.name + ".csv")
        formats.write_rows(csv_path, formats.RECORD_COLUMNS, rows)
        return csv_path, formats.write_json(base.with_name(base.name + ".json"), self.summary())

    @classmethod
    def load(cls, base) -> "RunRecord":
        """Rebuild a record from its CSV/JSON pair; `final` is None.

        The record is built from the summary's config and reason and from the
        CSV, whose `n` column must count its rows; the stored summary must
        then be the record's own, with no key unknown or missing and every
        other value equal.  A damaged pair raises ValueError naming the file
        and the defect: for a summary value, the key; for a cell, the line,
        a negative residual, relative error or Newton count included, and
        the first line whose relative error is filled where the first line's
        is empty, or the other way round.
        """
        base = Path(base)
        json_path = base.with_name(base.name + ".json")
        csv_path = base.with_name(base.name + ".csv")
        summary = formats.read_json_object(json_path)
        values = {}
        for key, check in (("config", _config), ("reason", formats.parse_reason)):
            if key not in summary:
                raise ValueError(f"{json_path}: missing key {key!r}")
            try:
                values[key] = check(summary[key])
            except ValueError as exc:
                raise ValueError(f"{json_path}: {key!r} {exc}") from exc
        rows = formats.read_rows(csv_path, formats.RECORD_COLUMNS)
        errors = [row["rel_error"] for row in rows]  # None where the cell is empty
        for n, row in enumerate(rows):  # read_rows puts row n on line n + 2
            if row["n"] != n:
                raise ValueError(f"{csv_path}, line {n + 2}: n must be {n}, got {row['n']}")
            if (errors[n] is None) != (errors[0] is None):
                raise ValueError(f"{csv_path}, line {n + 2}: rel_error filled on some lines only")
        record = cls(
            residual_norms=np.array([row["residual_M"] for row in rows]),
            rel_errors=np.array(errors) if errors and errors[0] is not None else None,
            ssn_counts=np.array([row["ssn_iters"] for row in rows], dtype=int),
            **values,
        )
        # the config and the reason built the record; every other key must be
        # derived, and records written before the parameter check was stored lack it
        formats.check_summary(
            json_path, summary, record.summary(), values, f"the config and {csv_path.name}",
            optional=("parameter_check",),
        )
        return record


@dataclass(frozen=True)
class Iterate:
    """One iterate and what the step from it uses; :func:`step` never modifies one.

    `solution` is F(u_n), carrying its source u_n, A y_n and the
    prediction window of its solve (`forward.solve_forward` keeps it); `r`
    is y_data - y_n, `M_r` its product M r_n and `residual` ||r_n||_M.
    F(u_n) is the only forward solution an iterate keeps, and its `u` the
    only copy of u_n.
    """

    solution: ForwardSolution
    r: np.ndarray
    M_r: np.ndarray
    residual: float

    @classmethod
    def at(cls, problem: ForwardProblem, data, solution) -> "Iterate":
        """The iterate of a forward solution, against the data values."""
        r = data - solution.y.values
        # M r serves both ||r||_M, summed as m_norm sums it, and the step's right-hand side
        M_r = problem.M @ r
        return cls(solution, r, M_r, math.sqrt(max(dot(r, M_r), 0.0)))


def step(problem: ForwardProblem, it: Iterate, data, w: float, tol: float) -> Iterate:
    """The iterate after `it`: u_{n+1} = u_n + w G_{u_n}(r_n), with F(u_{n+1}) against `data`.

    The subderivative solve is inexact: its CG stops at SUBDERIVATIVE_RTOL *
    ||M r_n||_2.  A relative error eps in G_{u_n} r_n is a relative error eps
    in the step, far below the relative residual decrease of a step (at
    least 1.3e-3 over the 500 noise-free steps from zero at n_h=129):
    inexact Newton forcing (Dembo-Eisenstat-Steihaug 1982) applied to the
    outer step.  Every other caller of `apply_subderivative` keeps its exact
    default.

    Consecutive states move in a low-dimensional subspace, so the solve of
    F(u_{n+1}) is given F(u_n) as `previous`: `forward.solve_forward`
    starts its Newton iteration from y_n, moved to the Galerkin prediction
    within the span of the last `forward.PREDICTION_DIRECTIONS` state
    increments where that lowers the residual.  The window of increments
    and their A g is the forward solve's; the step holds none of it.  The
    Newton stop is unchanged, so only the number of Newton steps depends on
    the start.

    Each stiffness and mass product is formed once and kept until its last
    use: the forward solutions keep A y_n and the A g of each increment
    (see `forward.solve_forward`); M r_n serves both ||r_n||_M and the
    step's right-hand side.  Every record keeps the bits it has with each
    product formed afresh.

    The solve stops at the absolute residual floor `tol` where that exceeds
    its own relative stop.  F(u) enters the iteration only through the
    residual, and strong monotonicity of the forward operator bounds the
    state's M-norm error by C = `forward.error_certificate(mesh)` times its
    residual, so `run` passes tol = FORWARD_ERROR_FRACTION * min_{k<=n}
    ||r_k||_M / C: every recorded residual, and the step's right-hand side,
    is within kappa = FORWARD_ERROR_FRACTION times the smallest earlier
    residual of its exact value (or within C times the relative stop, where
    that is larger).  The discrepancy decision at tau * delta <
    min_{k<=n} ||r_k||_M can change only where the margin
    | ||r_{n+1}||_M - tau * delta | is below that, and the step's right-hand
    side carries a relative error of at most kappa, a forcing term like
    that of the subderivative solve.  The first solve, of u0, has no
    earlier residual and keeps the relative stop: a floor
    kappa * tau * delta / C there would save 2 of the 13 preconditioner
    applications of the n_h = 257 campaign's shared start at delta = 1e-2
    (benchmark seed 3), none at delta <= 1e-3 or delta = 0, and would
    keep the cells from sharing that solve.

    A failed solve raises its ConvergenceError, and an update that is not
    finite raises FloatingPointError.  The step works on plain arrays, keeps
    no state between calls and modifies no array of `it`, so the same `it`
    always gives the same bits.  Its linearized operator and update are
    freed before the forward solve allocates.
    """
    op = build_linearized(problem, it.solution.y)
    update = apply_subderivative(op, problem.M, it.r, rtol=SUBDERIVATIVE_RTOL, M_w=it.M_r)
    with np.errstate(over="ignore"):  # an overflow is the non-finite update below
        u = it.solution.u + w * update.values
    del op, update
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("the update is not finite")
    return Iterate.at(problem, data, solve_forward(problem, u, previous=it.solution, tol=tol))


def run(problem: ForwardProblem, y_data, cfg: LandweberConfig, u0, u_exact=None) -> RunRecord:
    """Run the Landweber iteration from u0 against data y_data: record, decide, :func:`step`.

    Residual and (when u_exact is given) relative error are recorded for every
    iterate including the final one; the discrepancy principle uses the
    threshold tau*delta from cfg.  A residual above the starting residual,
    or an update that overflows, ends the run with reason 'divergence'; a
    failed forward or subderivative solve ends it with reason
    'forward-failure'.  The final iterate is the last one whose residual
    was recorded, u0 where none was.

    u0 is a source field, which the run solves first, or a forward
    solution, whose `u` is the start and which takes the place of that
    solve: the record keeps its `ssn_iterations` at n = 0, so a run from
    `solve_forward(problem, u0)` has the record of the run from u0, bit
    for bit, counts included.  Either way the start passes `field_values`
    as u0, so a solution on another mesh raises ValueError naming u0
    before any solve.  The run keeps no copy of u0: each iterate is the
    `u` of its solution.
    """
    start = u0 if isinstance(u0, ForwardSolution) else None
    data = field_values(problem.mesh, "y_data", y_data)
    u0 = field_values(problem.mesh, "u0", u0 if start is None else start.u)
    exact = None if u_exact is None else field_values(problem.mesh, "u_exact", u_exact)
    if exact is not None:
        norm_exact = m_norm(problem.M, exact)
        if norm_exact == 0.0:
            raise ValueError("u_exact has zero norm; relative errors undefined")

    residuals, errors, ssn_counts = [], [], []
    certificate = error_certificate(problem.mesh)
    smallest = math.inf  # the smallest residual recorded so far
    it = None
    try:
        it = Iterate.at(problem, data, solve_forward(problem, u0) if start is None else start)
        while True:
            residuals.append(it.residual)
            ssn_counts.append(it.solution.ssn_iterations)
            if exact is not None:
                errors.append(m_norm(problem.M, exact - it.solution.u) / norm_exact)
            if it.residual <= cfg.tau * cfg.delta:
                reason = REASON_DISCREPANCY
                break
            if it.residual > residuals[0]:
                reason = REASON_DIVERGENCE
                break
            if len(residuals) > cfg.max_iter:
                reason = REASON_MAX_ITERATIONS
                break
            smallest = min(smallest, it.residual)
            # inf when every residual overflowed
            tol = 0.0 if smallest == math.inf else FORWARD_ERROR_FRACTION * smallest / certificate
            it = step(problem, it, data, cfg.constant_step, tol)
    except (ConvergenceError, FloatingPointError) as exc:  # a failed solve, an update not finite
        reason = REASON_FORWARD_FAILURE if isinstance(exc, ConvergenceError) else REASON_DIVERGENCE
        logger.error("%s after %d recorded residuals: %s", reason, len(residuals), exc)

    return RunRecord(
        residual_norms=np.array(residuals),
        rel_errors=np.array(errors) if exact is not None and errors else None,
        ssn_counts=np.array(ssn_counts, dtype=int),
        reason=reason,
        config=cfg,
        final=GridFunction(problem.mesh, u0.copy() if it is None else it.solution.u, "source"),
    )
