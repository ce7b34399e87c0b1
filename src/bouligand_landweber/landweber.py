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

Runs from the same start, as the cells of a table are, share F(u0): a
record keeps the forward solution of its u0, and `run(...,
start_solution=...)` starts from it instead of solving again, with the
same bits and 0 Newton steps recorded at n = 0.

A run's record holds what the run produced, its config and its history;
delta, tau, the stopping index and the parameter check at lbar follow from
them.  Its saved summary states these too, and loading it requires the
stored summary to be the one the config and the history give, key for key,
so a saved run re-checks its stopping rule from its own files.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from collections import deque
from dataclasses import asdict, dataclass, replace
from numbers import Real
from pathlib import Path

import numpy as np

from .bouligand import apply_subderivative, build_linearized
from .forward import (
    FORWARD_RTOL,
    ForwardProblem,
    ForwardSolution,
    error_certificate,
    forward_residual,
    solve_forward,
)
from .mesh_fem import GridFunction, field_values, m_norm
from .sparse_linalg import (
    FINITE_NONNEGATIVE,
    FINITE_POSITIVE,
    NONNEGATIVE_INTEGER,
    TINY_RHS,
    ConvergenceError,
    dot,
    norm,
    require_scalar,
)

logger = logging.getLogger(__name__)

REASON_DISCREPANCY = "discrepancy"
REASON_MAX_ITERATIONS = "max-iterations"
REASON_FORWARD_FAILURE = "forward-failure"
REASON_DIVERGENCE = "divergence"
REASONS = (REASON_DISCREPANCY, REASON_MAX_ITERATIONS, REASON_FORWARD_FAILURE, REASON_DIVERGENCE)

SUBDERIVATIVE_RTOL = 1e-8  # the step's CG floor relative to ||M r_n||_2
# bound on each forward solve's M-norm state error relative to the smallest
# residual recorded before it; 0 keeps the relative Newton stop everywhere
FORWARD_ERROR_FRACTION = 1e-7
# state increments spanning each Newton start's prediction; 0 starts from the
# previous state.  At n_h = 257 one increment saves no Newton solve and costs
# more CG work, and four save one solve more than three
PREDICTION_DIRECTIONS = 3


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
    evaluated; below about 1.3e-154 the step is infinite, and `run` ends
    with 'divergence' at its first update.  A step that underflows to 0
    (mu within about 1e-16 of 1 with lbar near 1.3e154), whose steps would
    never move, is a ValueError naming mu and lbar.
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
        if self.constant_step == 0.0:
            raise ValueError(
                f"mu and lbar must give a nonzero step (2 - 2 mu) / lbar^2, "
                f"got mu={self.mu!r} and lbar={self.lbar!r}"
            )

    @property
    def constant_step(self) -> float:
        return (2.0 - 2.0 * self.mu) / self.lbar**2


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
    evaluated as (2 - 2 mu) (L / lbar)^2, which stays finite at L = lbar even
    where Lam itself overflows.
    """
    L = require_scalar("norm bound L", L, *FINITE_POSITIVE)
    lam_l2 = (2.0 - 2.0 * cfg.mu) * (L / cfg.lbar) ** 2
    choice = 2.0 * (cfg.mu + 1.0) / cfg.tau - (2.0 - 2.0 * cfg.mu - lam_l2)
    choice_aux = -1.0 + cfg.mu + 5.0 * lam_l2
    return ParameterCheck(choice, choice_aux)


def empirical_rate(err_abs: float, delta: float) -> float:
    """Empirical convergence rate ||u_exact - u||_M / sqrt(delta); undefined at delta = 0."""
    return err_abs / np.sqrt(require_scalar("delta", delta, *FINITE_POSITIVE))


# A CSV record file declares each column once, as (name, format, parse):
# `format` turns a row value into its cell and `parse` turns the cell back.
FLOAT_CELL = "{:.17g}".format  # 17 significant digits round-trip a double bit for bit
INT_CELL = "{:d}".format


def write_rows(path, columns, rows) -> Path:
    """Write row dicts as CSV: the column names, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _, _ in columns])
        writer.writerows([fmt(row[name]) for name, fmt, _ in columns] for row in rows)
    return Path(path)


def write_json(path, obj) -> Path:
    """Write obj as strict JSON, indented, with a final newline; NaN or infinity is a ValueError."""
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")
    return path


def read_rows(path, columns) -> list[dict]:
    """Read the row dicts of a CSV written by :func:`write_rows` with the same columns.

    A damaged file raises ValueError naming the file and the defect: the
    missing columns, a blank line, or the line of a cell that is empty, cut
    off or does not parse.  Row i is therefore on line i + 2.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name, _, _ in columns if name not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for cells in reader:
            if not cells:
                raise ValueError(f"{path}, line {reader.line_num}: blank line")
            row = dict(zip(header, cells))
            values = {}
            for name, _, parse in columns:
                cell = row.get(name)  # None where the row is cut off
                try:
                    values[name] = parse(cell)
                except (TypeError, ValueError) as exc:
                    defect = f"{name}: {exc}" if cell else "empty cell"
                    raise ValueError(f"{path}, line {reader.line_num}: {defect}") from exc
            rows.append(values)
    return rows


def _cell_parser(cast, kind, bound, requirement: str):
    """A cell parser: `cast` of the cell, checked by `require_scalar`."""
    return lambda cell: require_scalar("value", cast(cell), kind, bound, requirement)


def parse_reason(cell) -> str:
    """A stored reason: one of REASONS, else ValueError."""
    if cell not in REASONS:
        raise ValueError(f"must be one of {', '.join(REASONS)}, got {cell!r}")
    return cell


# a stored residual norm; NaN passes, as `run` records one where dot(r, M r) is NaN
_residual_norm = _cell_parser(float, Real, lambda v: not v < 0.0, "not be negative")
# a stored Newton count, 0 where the caller solved the start
_newton_count = _cell_parser(int, *NONNEGATIVE_INTEGER)


RECORD_COLUMNS = (
    ("n", INT_CELL, int),
    ("residual_M", FLOAT_CELL, _residual_norm),
    # empty when the run had no exact source
    ("rel_error", lambda e: "" if e is None else FLOAT_CELL(e),
     lambda cell: math.nan if cell == "" else float(cell)),
    ("ssn_iters", INT_CELL, _newton_count),
)

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


def _same(stored, derived) -> bool:
    """Whether a stored summary value is the derived one, bit for bit and type for type.

    An integer stands for the float of its value, as configs built from
    integers were once stored.
    """
    if type(stored) is int and type(derived) is float:
        return stored == derived
    return json.dumps(stored, sort_keys=True) == json.dumps(derived, sort_keys=True)


@dataclass
class RunRecord:
    """What one Landweber run produced: its history, why it ended, and its config.

    Everything else the summary states follows from these: delta and tau
    from the config, the stopping index from the length of the history, and
    the parameter check from the config at its assumed bound lbar.
    `ssn_counts[n]` counts the Newton steps the run made for F(u_n); it is
    0 at n = 0 where the caller passed the start's solution.  Next to the
    final iterate, `start_solution` keeps the forward solution of u0, for
    another run from the same start (None where that solve failed).
    Neither is saved, and both are None after `load`.
    """

    residual_norms: np.ndarray
    rel_errors: np.ndarray | None
    ssn_counts: np.ndarray
    reason: str
    config: LandweberConfig
    final: GridFunction | None = None
    start_solution: ForwardSolution | None = None

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
        csv_path = write_rows(base.with_name(base.name + ".csv"), RECORD_COLUMNS, rows)
        return csv_path, write_json(base.with_name(base.name + ".json"), self.summary())

    @classmethod
    def load(cls, base) -> "RunRecord":
        """Rebuild a record from its CSV/JSON pair; `final` and `start_solution` are None.

        The record is built from the summary's config and reason and from the
        CSV, whose `n` column must count its rows; the stored summary must
        then be the record's own, with no key unknown or missing and every
        other value equal.  A damaged pair raises ValueError naming the file
        and the defect: for a summary value, the key; for a cell, the line,
        a negative residual or Newton count included.
        """
        base = Path(base)
        json_path = base.with_name(base.name + ".json")
        csv_path = base.with_name(base.name + ".csv")
        with open(json_path) as fh:
            try:
                summary = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{json_path}: not valid JSON ({exc})") from exc
        if not isinstance(summary, dict):
            raise ValueError(f"{json_path}: expected a JSON object, got {type(summary).__name__}")
        values = {}
        for key, check in (("config", _config), ("reason", parse_reason)):
            if key not in summary:
                raise ValueError(f"{json_path}: missing key {key!r}")
            try:
                values[key] = check(summary[key])
            except ValueError as exc:
                raise ValueError(f"{json_path}: {key!r} {exc}") from exc
        rows = read_rows(csv_path, RECORD_COLUMNS)
        for n, row in enumerate(rows):
            if row["n"] != n:  # read_rows puts row n on line n + 2
                raise ValueError(f"{csv_path}, line {n + 2}: n must be {n}, got {row['n']}")
        errors = np.array([row["rel_error"] for row in rows])
        record = cls(
            residual_norms=np.array([row["residual_M"] for row in rows]),
            rel_errors=None if np.all(np.isnan(errors)) else errors,
            ssn_counts=np.array([row["ssn_iters"] for row in rows], dtype=int),
            **values,
        )
        # the config and the reason built the record; every other key must be derived
        derived = record.summary()
        for key in {**derived, **summary}:
            if key not in derived:
                raise ValueError(f"{json_path}: unknown key {key!r}")
            if key not in summary:
                # records written before the parameter check was stored lack it
                if key != "parameter_check":
                    raise ValueError(f"{json_path}: missing key {key!r}")
            elif key not in values and not _same(summary[key], derived[key]):
                raise ValueError(
                    f"{json_path}: {key!r} must be {derived[key]!r}, as the config and "
                    f"{csv_path.name} give, got {summary[key]!r}"
                )
        return record


def _require_start_solution(problem: ForwardProblem, sol: ForwardSolution, u0) -> None:
    """ValueError naming `start_solution` unless sol solves u0 as a first forward solve would.

    Its state must lie on the problem's mesh, and its residual at u0,
    recomputed by `forward_residual`, must meet the stop FORWARD_RTOL *
    ||M u0||_2 of a solve without floor.

    `solve_forward` solves a nonzero u0 with ||M u0||_2 below TINY_RHS as
    2^-e u0 and scales the state back, so the check scales both by 2^-e
    too: unscaled, the residual and the stop underflow.  Scaling back
    rounds each state entry that falls below the normal range to a
    multiple of 2^-1074, so the check allows the stop plus what that
    rounding, at most 2^-1075 per entry, can add to the residual: F is
    Lipschitz with ||A||_2 + max D <= 8 + max D (Gershgorin).
    """
    if sol.y.mesh != problem.mesh:
        raise ValueError(
            f"start_solution lies on the mesh n_h={sol.y.mesh.n_h}, "
            f"not on the problem's n_h={problem.mesh.n_h}"
        )
    y, norm_b, rounding = sol.y.values, norm(problem.M @ u0), 0.0
    if norm_b < TINY_RHS and u0.any():
        e = math.frexp(np.abs(u0).max())[1]
        y, u0 = np.ldexp(y, -e), np.ldexp(u0, -e)
        norm_b = norm(problem.M @ u0)
        rounding = (8.0 + problem.D.max()) * math.sqrt(y.size) * math.ldexp(1.0, -1075 - e)
    residual = forward_residual(problem, y, u0)
    stop = FORWARD_RTOL * norm_b + rounding
    if not residual <= stop:
        raise ValueError(
            f"start_solution does not solve u0: its residual {residual:.3e} "
            f"exceeds the stop {stop:.3e} of a first solve"
        )


@dataclass(frozen=True)
class Iterate:
    """One iterate u_n and what the step from it uses; :func:`step` never modifies one.

    `solution` is F(u_n), carrying A y_n; `r` is y_data - y_n, `M_r` its
    product M r_n and `residual` ||r_n||_M.  `window` holds the (g, A g)
    pairs of the state increments the solve of F(u_n) started from, at most
    PREDICTION_DIRECTIONS of them, and `increment` is the newest one,
    y_n - y_{n-1} (None at the start), which the next step appends to it.
    F(u_n) is the only forward solution an iterate keeps.
    """

    u: np.ndarray
    solution: ForwardSolution
    r: np.ndarray
    M_r: np.ndarray
    residual: float
    increment: np.ndarray | None
    window: tuple

    @classmethod
    def at(cls, problem: ForwardProblem, data, u, solution, increment=None, window=()) -> "Iterate":
        """The iterate u with its forward solution, against the data values."""
        r = data - solution.y.values
        # M r serves both ||r||_M, summed as m_norm sums it, and the step's right-hand side
        M_r = problem.M @ r
        return cls(u, solution, r, M_r, math.sqrt(max(dot(r, M_r), 0.0)), increment, window)


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
    F(u_{n+1}) gets the last PREDICTION_DIRECTIONS state increments
    g = y_k - y_{k-1} and starts its Newton iteration from the Galerkin
    prediction within their span (`forward.solve_forward`), falling back to
    y_n where that does not lower the residual.  The Newton stop is
    unchanged, so only the number of Newton steps depends on the start.

    Each stiffness and mass product is formed once and kept until its last
    use: A g of each increment, formed when a solve first uses it, serves
    the PREDICTION_DIRECTIONS predictions that use g; A y_n starts the
    solve's residual; M r_n serves both ||r_n||_M and the step's right-hand
    side.  Every record keeps the bits it has with each product formed
    afresh.

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
    u = it.u + w * update.values
    del op, update
    if not np.all(np.isfinite(u)):
        raise FloatingPointError("the update is not finite")
    window = deque(it.window, maxlen=PREDICTION_DIRECTIONS)
    if it.increment is not None:
        window.append((it.increment, problem.A @ it.increment))
    sol = solve_forward(
        problem, u, y0=it.solution.y, directions=[g for g, _ in window], tol=tol,
        A_y0=it.solution.A_y, A_directions=[A_g for _, A_g in window],
    )
    return Iterate.at(problem, data, u, sol, sol.y.values - it.solution.y.values, tuple(window))


def run(
    problem: ForwardProblem,
    y_data,
    cfg: LandweberConfig,
    u0,
    u_exact=None,
    *,
    start_solution: ForwardSolution | None = None,
) -> RunRecord:
    """Run the Landweber iteration from u0 against data y_data: record, decide, :func:`step`.

    Residual and (when u_exact is given) relative error are recorded for every
    iterate including the final one; the discrepancy principle uses the
    threshold tau*delta from cfg.  A residual above the starting residual,
    or an update that overflows, ends the run with reason 'divergence'; a
    failed forward or subderivative solve ends it with reason
    'forward-failure'.  The final iterate is the last one whose residual
    was recorded, u0 where none was.

    `start_solution`, the forward solution of u0 that an earlier run from
    the same start kept as its record's `start_solution`, takes the place
    of the first solve: the record counts 0 Newton steps at n = 0 and
    keeps the bits it has without it.  It is checked first (see
    `_require_start_solution`): a solution of another source or on another
    mesh raises ValueError.
    """
    data = field_values(problem.mesh, "y_data", y_data)
    u = field_values(problem.mesh, "u0", u0).copy()
    if start_solution is not None:
        _require_start_solution(problem, start_solution, u)
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
        if start_solution is None:
            start_solution = sol = solve_forward(problem, u)
        else:
            sol = replace(start_solution, ssn_iterations=0)  # solved by the caller
        it = Iterate.at(problem, data, u, sol)
        while True:
            residuals.append(it.residual)
            ssn_counts.append(it.solution.ssn_iterations)
            if exact is not None:
                errors.append(m_norm(problem.M, exact - it.u) / norm_exact)
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
        final=GridFunction(problem.mesh, u if it is None else it.u, "source"),
        start_solution=start_solution,
    )
