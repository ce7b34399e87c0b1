"""Landweber outer iteration with Bouligand subderivative steps.

The iteration is

    u_{n+1} = u_n + w_n G_{u_n}(y_data - F(u_n)),

where F is the discrete forward map, G_{u_n} applies (A + K_{y_n})^{-1} M
(self-adjoint in the M inner product, so no separate adjoint solve), and
w_n is the step size.  With noisy data of level delta the loop stops at the
first index whose M-norm residual drops to tau*delta (discrepancy
principle), at the first index whose residual exceeds the starting one
or whose update overflows (divergence), or after max_iter steps.  All
residual and error norms use the M-weighted norm.

The step's subderivative solve is inexact: its CG stops at
SUBDERIVATIVE_RTOL * ||M r_n||_2.  A relative error eps in G_{u_n} r_n is a
relative error eps in the step, far below the relative residual decrease
of a step (at least 1.3e-3 over the 500 noise-free steps from zero at
n_h=129): inexact Newton forcing (Dembo-Eisenstat-Steihaug 1982) applied
to the outer step.  Every other caller of `apply_subderivative` keeps its
exact default.

Two scalar parameter conditions from the convergence theory are evaluated
by :func:`check_parameters` and stored in the run record, never enforced:
with the default experiment parameters both are violated, yet the iteration
behaves well.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import operator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .bouligand import apply_subderivative, build_linearized
from .forward import ForwardProblem, solve_forward
from .mesh_fem import GridFunction, m_norm, values_of
from .sparse_linalg import ConvergenceError

logger = logging.getLogger(__name__)

REASON_DISCREPANCY = "discrepancy"
REASON_MAX_ITERATIONS = "max-iterations"
REASON_FORWARD_FAILURE = "forward-failure"
REASON_DIVERGENCE = "divergence"
REASONS = (REASON_DISCREPANCY, REASON_MAX_ITERATIONS, REASON_FORWARD_FAILURE, REASON_DIVERGENCE)

SUBDERIVATIVE_RTOL = 1e-8  # the step's CG floor relative to ||M r_n||_2


@dataclass(frozen=True)
class LandweberConfig:
    """Parameters of one Landweber run.

    The step size is the constant w = (2 - 2 mu) / lbar^2.  rho is the ball
    radius of the theory; the campaigns and the CLI build the starting point
    u_bar = u* - 2 rho sin(pi x1) sin(2 pi x2) from it.  max_iter = 0
    evaluates the starting point only.
    """

    mu: float = 0.1
    tau: float = 1.4
    rho: float = 5.0
    lbar: float = 5e-2
    max_iter: int = 5000
    delta: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every bound
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must lie in [0, 1), got {self.mu}")
        if not 1.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and exceed 1, got {self.tau}")
        for name in ("rho", "lbar"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        try:
            max_iter = operator.index(self.max_iter)
        except TypeError:
            max_iter = -1  # not an integer
        if max_iter < 0:
            raise ValueError(f"max_iter must be an integer >= 0, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", max_iter)  # a plain int, as JSON records need
        if not 0.0 <= self.delta < math.inf:
            raise ValueError(f"noise level must be finite and >= 0, got {self.delta}")

    @property
    def constant_step(self) -> float:
        return (2.0 - 2.0 * self.mu) / self.lbar**2


@dataclass(frozen=True)
class ParameterCheck:
    """The two scalar left-hand sides that must be negative in the theory."""

    choice: float
    choice_aux: float
    satisfied: tuple[bool, bool]


def check_parameters(cfg: LandweberConfig, L: float) -> ParameterCheck:
    """Evaluate both step-size conditions for a subderivative norm bound L.

    choice     = 2 (mu + 1) / tau - (2 - 2 mu - Lam L^2)
    choice_aux = -1 + mu + 5 Lam L^2

    with Lam the constant step size.  Both must be negative for the
    convergence theory; the result is reported, never enforced.
    """
    if not 0.0 < L < math.inf:  # written so that NaN fails
        raise ValueError(f"norm bound L must be finite and positive, got {L}")
    Lam = cfg.constant_step
    choice = 2.0 * (cfg.mu + 1.0) / cfg.tau - (2.0 - 2.0 * cfg.mu - Lam * L * L)
    choice_aux = -1.0 + cfg.mu + 5.0 * Lam * L * L
    return ParameterCheck(choice, choice_aux, (choice < 0.0, choice_aux < 0.0))


def relative_error(u, u_exact, M: sp.spmatrix) -> float:
    """Relative M-norm error ||u_exact - u||_M / ||u_exact||_M."""
    norm_exact = m_norm(M, u_exact)
    if norm_exact == 0.0:
        raise ValueError("relative error undefined: exact field has zero norm")
    return m_norm(M, values_of(u_exact) - values_of(u)) / norm_exact


def empirical_rate(err_abs: float, delta: float) -> float:
    """Empirical convergence rate ||u_exact - u||_M / sqrt(delta)."""
    if delta <= 0.0:
        raise ValueError(f"rate undefined for noise level {delta}")
    return err_abs / np.sqrt(delta)


_CSV_COLUMNS = ("n", "residual_M", "rel_error", "ssn_iters")


def _finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


# each summary key a record needs, with the test its JSON value must pass
_SUMMARY_CHECKS = {
    "config": (lambda v: isinstance(v, dict), "a JSON object"),
    "delta": (_finite_number, "a finite number"),
    "tau": (_finite_number, "a finite number"),
    "stopping_index": (lambda v: type(v) is int and v >= -1, "an integer >= -1"),
    "reason": (lambda v: v in REASONS, f"one of {', '.join(REASONS)}"),
}


def _parameter_check_ok(value) -> bool:
    """A stored parameter check: null, or exactly the fields of ParameterCheck."""
    if value is None:
        return True
    return (
        isinstance(value, dict)
        and value.keys() == {"choice", "choice_aux", "satisfied"}
        and _finite_number(value["choice"])
        and _finite_number(value["choice_aux"])
        and isinstance(value["satisfied"], list)
        and len(value["satisfied"]) == 2
        and all(type(b) is bool for b in value["satisfied"])
    )


@dataclass
class RunRecord:
    """Complete history of one Landweber run."""

    residual_norms: np.ndarray
    rel_errors: np.ndarray | None
    ssn_counts: np.ndarray
    stopping_index: int
    reason: str
    delta: float
    tau: float
    config: dict
    final: GridFunction | None = None
    parameter_check: ParameterCheck | None = None

    @property
    def threshold(self) -> float:
        return self.tau * self.delta

    @property
    def total_ssn(self) -> int:
        return int(np.sum(self.ssn_counts))

    def check_discrepancy(self) -> bool:
        """Re-verify the stopping rule from the recorded history alone."""
        n = self.stopping_index
        if n < 0 or n >= len(self.residual_norms):
            return False
        if np.any(self.residual_norms[:n] <= self.threshold):
            return False
        stopped = self.residual_norms[n] <= self.threshold
        return stopped if self.reason == REASON_DISCREPANCY else not stopped

    def save(self, base) -> tuple[Path, Path]:
        """Write `<base>.csv` (per-iteration history) and `<base>.json` (summary)."""
        base = Path(base)
        csv_path = base.with_name(base.name + ".csv")
        json_path = base.with_name(base.name + ".json")
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for n, res in enumerate(self.residual_norms):
                err = "" if self.rel_errors is None else f"{self.rel_errors[n]:.17g}"
                writer.writerow([n, f"{res:.17g}", err, int(self.ssn_counts[n])])
        check = self.parameter_check
        summary = {
            "config": self.config,
            "delta": self.delta,
            "tau": self.tau,
            "stopping_index": int(self.stopping_index),
            "reason": self.reason,
            "ssn_total": self.total_ssn,
            "parameter_check": None if check is None else asdict(check),
        }
        with open(json_path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        return csv_path, json_path

    @classmethod
    def load(cls, base) -> "RunRecord":
        """Rebuild a record from its CSV/JSON pair (the final iterate is not serialized).

        A damaged pair raises ValueError naming the file and the defect: for a
        summary value of the wrong type or out of range, the key.
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
        missing = [k for k in _SUMMARY_CHECKS if k not in summary]
        if missing:
            raise ValueError(f"{json_path}: missing keys {missing}")
        for key, (ok, requirement) in _SUMMARY_CHECKS.items():
            if not ok(summary[key]):
                raise ValueError(
                    f"{json_path}: {key!r} must be {requirement}, got {summary[key]!r}"
                )
        check = summary.get("parameter_check")  # absent in older files
        if not _parameter_check_ok(check):
            raise ValueError(
                f"{json_path}: 'parameter_check' must be null or an object with finite "
                f"numbers 'choice' and 'choice_aux' and a two-bool 'satisfied', got {check!r}"
            )
        residuals, errors, ssn = [], [], []
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in _CSV_COLUMNS if c not in (reader.fieldnames or ())]
            if missing:
                raise ValueError(f"{csv_path}: missing columns {missing}")
            for row in reader:
                # rel_error stays empty when the run had no exact source
                required = (c for c in _CSV_COLUMNS if c != "rel_error")
                if row["rel_error"] is None or not all(row[c] for c in required):
                    raise ValueError(f"{csv_path}, line {reader.line_num}: empty cell")
                try:
                    residuals.append(float(row["residual_M"]))
                    errors.append(float(row["rel_error"]) if row["rel_error"] else np.nan)
                    ssn.append(int(row["ssn_iters"]))
                except ValueError as exc:
                    raise ValueError(f"{csv_path}, line {reader.line_num}: {exc}") from exc
        if len(residuals) != summary["stopping_index"] + 1:
            raise ValueError(
                f"{csv_path}: {len(residuals)} rows, but stopping_index "
                f"{summary['stopping_index']} needs {summary['stopping_index'] + 1}"
            )
        errors_arr = np.array(errors)
        return cls(
            residual_norms=np.array(residuals),
            rel_errors=None if np.all(np.isnan(errors_arr)) else errors_arr,
            ssn_counts=np.array(ssn, dtype=int),
            stopping_index=summary["stopping_index"],
            reason=summary["reason"],
            delta=summary["delta"],
            tau=summary["tau"],
            config=summary["config"],
            parameter_check=None
            if check is None
            else ParameterCheck(check["choice"], check["choice_aux"], tuple(check["satisfied"])),
        )


def _finite_values(name: str, v) -> np.ndarray:
    values = values_of(v)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite values")
    return values


def run(
    problem: ForwardProblem,
    y_data,
    cfg: LandweberConfig,
    u0,
    u_exact=None,
) -> RunRecord:
    """Run the Landweber iteration from u0 against data y_data.

    Residual and (when u_exact is given) relative error are recorded for every
    iterate including the final one; the discrepancy principle uses the
    threshold tau*delta from cfg.  A residual above the starting residual,
    or an update that overflows, ends the run with reason 'divergence'; the
    final iterate is then the last one whose residual was recorded.  Each
    semi-smooth Newton solve starts from the previous state.  A forward
    solve failure truncates the record with reason 'forward-failure'.
    """
    M = problem.M
    data = _finite_values("y_data", y_data)
    u = _finite_values("u0", u0).copy()
    exact = None if u_exact is None else _finite_values("u_exact", u_exact)
    norm_exact = None
    if exact is not None:
        norm_exact = m_norm(M, exact)
        if norm_exact == 0.0:
            raise ValueError("u_exact has zero norm; relative errors undefined")

    threshold = cfg.tau * cfg.delta
    residuals: list[float] = []
    errors: list[float] = []
    ssn_counts: list[int] = []

    reason = REASON_MAX_ITERATIONS
    y_prev = None
    n = 0
    while True:
        try:
            sol = solve_forward(problem, u, y0=y_prev)
        except ConvergenceError as exc:
            logger.error("forward solve failed at iteration %d: %s", n, exc)
            reason = REASON_FORWARD_FAILURE
            break
        y_prev = sol.y.values
        residual_vec = data - sol.y.values
        residuals.append(m_norm(M, residual_vec))
        ssn_counts.append(sol.ssn_iterations)
        if exact is not None:
            errors.append(m_norm(M, exact - u) / norm_exact)
        if residuals[-1] <= threshold:
            reason = REASON_DISCREPANCY
            break
        if residuals[-1] > residuals[0]:
            reason = REASON_DIVERGENCE
            break
        if n >= cfg.max_iter:
            reason = REASON_MAX_ITERATIONS
            break
        try:
            op = build_linearized(problem, sol.y)
            update = apply_subderivative(op, M, residual_vec, rtol=SUBDERIVATIVE_RTOL)
        except ConvergenceError as exc:
            logger.error("subderivative solve failed at iteration %d: %s", n, exc)
            reason = REASON_FORWARD_FAILURE
            break
        u_next = u + cfg.constant_step * update.values
        if not np.all(np.isfinite(u_next)):
            logger.error("update at iteration %d overflowed", n)
            reason = REASON_DIVERGENCE
            break
        u = u_next
        n += 1

    return RunRecord(
        residual_norms=np.array(residuals),
        rel_errors=np.array(errors) if exact is not None and errors else None,
        ssn_counts=np.array(ssn_counts, dtype=int),
        stopping_index=len(residuals) - 1,
        reason=reason,
        delta=cfg.delta,
        tau=cfg.tau,
        config=asdict(cfg),
        final=GridFunction(problem.mesh, u, "source"),
        parameter_check=check_parameters(cfg, cfg.lbar),
    )
