"""The benchmark workloads, run against the package source of this checkout.

Every workload has a `set_up` (build the problem(s), interpolate the exact
fields, draw the noise and make the first calls that fill caches: SciPy FFT
plans, the stiffness eigenvalue cache, lazy imports) and a `rep`, one timed
repeat.  Each repeat is split into operations (a table cell, a run, a mesh),
and each operation either succeeds and passes its output checks or is
recorded as failed with its exception class or the check it failed.

table257  The criterion-8 regularization campaign through `run_table`:
          n_h=257, start u_bar, rescale-mode noise, one cell per delta,
          noise seed from --seed.  The DST preconditioner and the CSR
          matvec do most of the work; cells stop by the discrepancy
          principle and are independent of each other.
zero129   One noise-free run from zero through `run_noise_free`: n_h=129,
          500 steps (criterion 7).  One long trajectory with a fixed step
          count; cheap transforms, so per-call overhead and BLAS thread
          wake-up weigh more.
refine    Criterion 5 continued upward: build, exact fields and one forward
          solve of the exact source for each n_h in LADDER.  Assembly does
          most of the work and nothing is amortized.  At the time this
          benchmark was written the sizes n_h >= 385 fail with "CG
          stagnated"; they stay in the ladder and count as failed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "bouligand_landweber" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source under {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bouligand_landweber  # noqa: E402
from bouligand_landweber import (  # noqa: E402
    bouligand,
    experiments,
    forward,
    landweber,
    mesh_fem,
    sparse_linalg,
)

import spans  # noqa: E402

if Path(bouligand_landweber.__file__).resolve().parent != SRC / "bouligand_landweber":
    sys.exit(f"perfbench: imported {bouligand_landweber.__file__}, not the checkout's source")

# Errors the package raises for a solve that does not converge.
SOLVER_ERRORS = (forward.ForwardSolveError, sparse_linalg.ConvergenceError)

DELTAS = (1e-2, 1e-3, 1e-4)
REFERENCE_ERRORS = (0.3038, 0.0276, 0.00268)  # criterion-8 median errors per delta
MAX_STEPS = 100
ZERO_STEPS = 500
LADDER = (129, 257, 385, 513, 769, 1025)
MAX_REFINEMENT_RATIO = 0.6


@dataclass
class Op:
    """One cell, run or mesh of a repeat; `error` is None when it succeeded."""

    label: str
    error: str | None = None
    check_failed: bool = False


@dataclass
class RepResult:
    ops: list[Op]
    work: int  # units behind steps_per_s: Landweber steps, or meshes on refine
    record_ssn: int | None  # sum of RunRecord.ssn_counts; None when not comparable
    rel_error: float | None  # median over the operations that succeeded


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _first_step(problem, u, y_data) -> None:
    """One forward solve and one subderivative apply: fills first-call caches."""
    sol = forward.solve_forward(problem, u)
    op = bouligand.build_linearized(problem, sol.y)
    bouligand.apply_subderivative(op, problem.M, y_data.values - sol.y.values)


def _median(values) -> float | None:
    return float(median(values)) if values else None


class Table257:
    name = "table257"
    n_h = 257
    required_hooks = spans.ALL_HOOKS - {spans.RUN_NOISE_FREE, spans.SOLVE_FORWARD}

    def __init__(self, seed: int):
        self.seed = seed

    def set_up(self) -> None:
        problem = forward.ForwardProblem.build(mesh_fem.build_mesh(self.n_h))
        _, y_exact, u_bar = experiments.exact_fields(problem.mesh)
        noisy = [
            experiments.add_noise(
                y_exact, experiments.NoiseSpec(seed=self.seed, mode="rescale", value=d), problem.M
            )[0]
            for d in DELTAS
        ]
        _first_step(problem, u_bar, noisy[0])

    def rep(self, tracer) -> RepResult:
        labels = [f"delta={d:g} seed={self.seed}" for d in DELTAS]
        try:
            rows = tracer.call(
                spans.RUN_TABLE, "experiments.run_table", experiments.run_table,
                self.n_h, DELTAS, start="source", seeds=(self.seed,),
            )
        except SOLVER_ERRORS as exc:
            return RepResult([Op(label, _describe(exc)) for label in labels], 0, None, None)
        ops, errors = [], []
        for label, row, ref in zip(labels, rows, REFERENCE_ERRORS):
            if row["reason"] == landweber.REASON_FORWARD_FAILURE:
                ops.append(Op(label, f"forward-failure at N={row['N']}"))
            elif row["reason"] != landweber.REASON_DISCREPANCY or row["N"] > MAX_STEPS:
                ops.append(Op(label, f"check: stopped by {row['reason']} at N={row['N']}", True))
            elif not ref / 3.0 <= row["rel_error"] <= 3.0 * ref:
                msg = f"check: rel_error {row['rel_error']:.4g} not within 3x of {ref}"
                ops.append(Op(label, msg, True))
            else:
                ops.append(Op(label))
                errors.append(row["rel_error"])
        return RepResult(
            ops,
            work=sum(row["N"] for row in rows),
            # a failed forward solve's Newton steps are not in its record
            record_ssn=None
            if any(r["reason"] == landweber.REASON_FORWARD_FAILURE for r in rows)
            else sum(row["ssn_total"] for row in rows),
            rel_error=_median(errors),
        )


class Zero129:
    name = "zero129"
    n_h = 129
    required_hooks = spans.ALL_HOOKS - {
        spans.RUN_TABLE, spans.SOLVE_FORWARD, "experiments.add_noise",
    }

    def __init__(self, seed: int):
        self.seed = seed  # the run is noise-free: nothing here is random

    def set_up(self) -> None:
        problem = forward.ForwardProblem.build(mesh_fem.build_mesh(self.n_h))
        u_exact, y_exact, _ = experiments.exact_fields(problem.mesh)
        _first_step(problem, np.zeros_like(u_exact.values), y_exact)

    def rep(self, tracer) -> RepResult:
        label = f"n_h={self.n_h} start=zero"
        try:
            record = tracer.call(
                spans.RUN_NOISE_FREE, "experiments.run_noise_free", experiments.run_noise_free,
                self.n_h, start="zero", iters=ZERO_STEPS,
            )
        except SOLVER_ERRORS as exc:
            return RepResult([Op(label, _describe(exc))], 0, None, None)
        res, err = record.residual_norms, record.rel_errors
        if record.reason == landweber.REASON_FORWARD_FAILURE:
            op = Op(label, f"forward-failure at n={record.stopping_index}")
        elif record.stopping_index != ZERO_STEPS:
            op = Op(label, f"check: stopped at n={record.stopping_index}", True)
        elif not np.all(np.diff(res) < 0.0):
            op = Op(label, "check: residuals not strictly decreasing", True)
        elif not err[-1] <= err[0] / 2.0:
            op = Op(label, f"check: E_500={err[-1]:.4g} > E_0/2={err[0] / 2.0:.4g}", True)
        else:
            op = Op(label)
        final = float(err[-1]) if op.error is None else None
        failed = record.reason == landweber.REASON_FORWARD_FAILURE
        return RepResult([op], record.stopping_index, None if failed else record.total_ssn, final)


class Refine:
    name = "refine"
    required_hooks = frozenset(
        {
            spans.BUILD, spans.PRECOND, spans.NONLINEARITY, spans.MATVEC, spans.SOLVE_FORWARD,
            "forward.assemble", "forward.solve_spd", "experiments.exact_fields",
        }
    )

    def __init__(self, seed: int):
        self.seed = seed  # exact data only: nothing here is random

    def set_up(self) -> None:
        for n_h in LADDER:
            problem = forward.ForwardProblem.build(mesh_fem.build_mesh(n_h))
            u_exact, _, _ = experiments.exact_fields(problem.mesh)
            problem.precond(problem.M @ u_exact.values)
            if n_h == LADDER[0]:
                forward.solve_forward(problem, u_exact)
            del problem, u_exact  # free before the next, larger build

    @staticmethod
    def _mesh(tracer, n_h: int) -> tuple[float, float]:
        """Consistency residual ||F_h(I_h u*) - I_h y*||_M and its relative size."""
        problem = forward.ForwardProblem.build(mesh_fem.build_mesh(n_h))
        u_exact, y_exact, _ = experiments.exact_fields(problem.mesh)
        sol = tracer.call(
            spans.SOLVE_FORWARD, "forward.solve_forward", forward.solve_forward, problem, u_exact
        )
        residual = mesh_fem.m_norm(problem.M, sol.y.values - y_exact.values)
        return residual, residual / mesh_fem.m_norm(problem.M, y_exact.values)

    def rep(self, tracer) -> RepResult:
        ops, errors, last = [], [], None
        for n_h in LADDER:
            label = f"n_h={n_h}"
            with tracer.span("refine.mesh"):
                try:
                    residual, rel = self._mesh(tracer, n_h)
                except SOLVER_ERRORS as exc:
                    ops.append(Op(label, _describe(exc)))
                    continue
            if last is not None and residual > MAX_REFINEMENT_RATIO * last[1]:
                msg = f"check: residual ratio {residual / last[1]:.3f} against n_h={last[0]}"
                ops.append(Op(label, msg, True))
            else:
                ops.append(Op(label))
                errors.append(rel)
            last = (n_h, residual)
        return RepResult(ops, len(LADDER), None, _median(errors))


WORKLOADS = {w.name: w for w in (Table257, Zero129, Refine)}
