"""Command-line front end.

Subcommands:
  forward     solve the forward problem for a stored or builtin source
  noise-free  run the iteration on exact data for a fixed number of steps
  invert      one noisy reconstruction with discrepancy stopping
  table       campaign over noise levels and seeds
  verify      empirical verification suites (oracle | tcc | adjoint | all)

Each option is one flag with its type and default; the Landweber defaults
(mu, tau, rho, lbar, max_iter) are those of LandweberConfig.  An argument
`@file` is replaced by the lines of that file, one argument per line and
blank lines skipped (argparse's `fromfile_prefix_chars`), so options read
from a file are ordinary flags and a later flag overrides an earlier one.
Every bad value is argparse's usage error naming the option, raised before
any problem is built, with one exception: a noise level (`--delta-target`,
`--sigma`, `--deltas`) whose data measure a delta of 0 or one that is not
finite is the one usage error raised after the mesh is built, since only
the data tell.  `experiments` draws every cell's data before the first
run, so it too comes before any Landweber step.  The commands only parse;
the runs themselves are built by `experiments`, and every file is written
in a format of `formats`.

The exit status is 2 for a usage error, 1 where `verify` writes a suite
verdict `"passed": false` or where no cell of a `table` ran (every N = -1),
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import logging
from dataclasses import fields
from numbers import Integral
from pathlib import Path

from . import formats
from .experiments import STARTS, NoiseSpec, Setup, run_noise_free, run_noisy, run_table
from .forward import ForwardProblem, solve_forward
from .landweber import LandweberConfig
from .mesh_fem import build_mesh, read_grid_function, write_grid_function
from .sparse_linalg import (
    FINITE_POSITIVE,
    NONNEGATIVE_INTEGER,
    POSITIVE_INTEGER,
    require_scalar,
)
from .verification import adjoint_check, oracle_sweep, tcc_survey

# The LandweberConfig fields a user may set; delta is measured from the data.
LANDWEBER_DEFAULTS = {f.name: f.default for f in fields(LandweberConfig) if f.name != "delta"}
RUN_COMMANDS = ("noise-free", "invert", "table")


def _checked(cast, kind, bound, requirement: str):
    """An argparse type: `cast` of the text, checked by `require_scalar`."""

    def convert(text):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}") from None
        try:
            return require_scalar("value", value, kind, bound, requirement)
        except ValueError as exc:  # argparse shows the message of its own error type only
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _list_of(convert):
    """An argparse type for a nonempty comma-separated list of `convert` values."""

    def convert_list(text):
        values = [convert(x) for x in text.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values

    return convert_list


MESH_SIZE = _checked(int, Integral, lambda v: v >= 3, "be an integer >= 3")
ORACLE_SIZE = _checked(int, Integral, lambda v: 3 <= v <= 6, "lie in [3, 6], at most 16 unknowns")
COUNT = _checked(int, *POSITIVE_INTEGER)
NONNEGATIVE_INT = _checked(int, *NONNEGATIVE_INTEGER)
POSITIVE = _checked(float, *FINITE_POSITIVE)
# at noise level 0 the discrepancy threshold tau * delta is 0 too, and only
# --max-iter could end the run; exact data is the noise-free command's.  The
# delta the data measure is checked by experiments.add_noise
NOISE_LEVEL = _checked(
    float, *FINITE_POSITIVE[:2], "be finite and positive (for exact data, run noise-free)"
)


def _file_line_args(line: str) -> list[str]:
    """The arguments of one `@file` line: the line itself, none if it is blank."""
    return [line] if line.strip() else []


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="bouligand-landweber",
        description="Iterative regularization of the nonsmooth inverse source problem",
        fromfile_prefix_chars="@",
    )
    parser.convert_arg_line_to_args = _file_line_args
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="solve the forward problem and store the state")
    p.add_argument("--n", type=MESH_SIZE, default=129)
    p.add_argument("--source", default="builtin-exact", help="grid function CSV or 'builtin-exact'")
    p.add_argument("--out", required=True)

    p = sub.add_parser("noise-free", help="noise-free iteration with fixed step count")
    p.add_argument("--n", type=MESH_SIZE, default=129)
    p.add_argument("--start", choices=STARTS, default="source")
    p.add_argument("--iters", type=NONNEGATIVE_INT, default=100)  # takes the place of --max-iter
    p.add_argument("--out", required=True)

    p = sub.add_parser("invert", help="one noisy reconstruction with discrepancy stopping")
    p.add_argument("--n", type=MESH_SIZE, default=129)
    p.add_argument("--start", choices=STARTS, default="source")
    noise = p.add_mutually_exclusive_group(required=True)
    noise.add_argument("--delta-target", type=NOISE_LEVEL)
    noise.add_argument("--sigma", type=NOISE_LEVEL)
    p.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("table", help="campaign over noise levels and seeds")
    p.add_argument("--n", type=MESH_SIZE, default=129)
    p.add_argument("--start", choices=STARTS, default="source")
    p.add_argument("--deltas", type=_list_of(NOISE_LEVEL), default="1e-2,1e-3,1e-4",
                   help="comma-separated noise targets")
    p.add_argument("--seeds", type=_list_of(NONNEGATIVE_INT), default="0",
                   help="comma-separated seeds")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="empirical verification suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--oracle-sizes", type=_list_of(ORACLE_SIZE), default="3,4,5",
                   help="comma-separated n_h")
    p.add_argument("--oracle-trials", type=COUNT, default=100)
    p.add_argument("--tcc-n", type=MESH_SIZE, default=33)
    p.add_argument("--tcc-pairs", type=COUNT, default=50)
    p.add_argument("--tcc-radius", type=POSITIVE, default=0.5)
    p.add_argument("--adjoint-n", type=MESH_SIZE, default=65)
    p.add_argument("--adjoint-trials", type=COUNT, default=50)
    p.add_argument("--seed", type=NONNEGATIVE_INT, default=0)
    p.add_argument("--out", required=True)

    # one flag per LandweberConfig field, typed like its default
    for command in RUN_COMMANDS:
        for name, default in LANDWEBER_DEFAULTS.items():
            if (command, name) != ("noise-free", "max_iter"):
                flag = f"--{name.replace('_', '-')}"
                sub.choices[command].add_argument(flag, type=type(default), default=default)
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """The parsed flags; the Landweber parameters are checked by building the
    config here and a `forward --source` file is read here (`args.u`), so every
    bad value is a usage error before any problem is built.  A run command
    keeps its parser's `error` as `args.error` for the one check that comes
    later: on parsed arguments, the one ValueError a campaign raises is
    `add_noise`'s refusal of the delta its data measure, before any step.
    """
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "forward" and args.source != "builtin-exact":
        try:
            args.u = read_grid_function(args.source)
        except (OSError, ValueError) as exc:
            commands["forward"].error(f"--source: {exc}")  # the message names the file
        if args.u.role != "source":
            commands["forward"].error(
                f"--source {args.source} has role={args.u.role}, expected role=source"
            )
        if args.u.mesh.n_h != args.n:
            commands["forward"].error(
                f"--source {args.source} has n_h={args.u.mesh.n_h}, but --n is {args.n}"
            )
    if args.command in RUN_COMMANDS:
        try:
            args.cfg = LandweberConfig(
                **{k: v for k, v in vars(args).items() if k in LANDWEBER_DEFAULTS}
            )
        except ValueError as exc:
            commands[args.command].error(str(exc))
        args.error = commands[args.command].error
    return args


def _cmd_forward(args) -> int:
    problem, (u_exact, _, _), _ = Setup(args.n).build()
    sol = solve_forward(problem, u_exact if args.source == "builtin-exact" else args.u)
    write_grid_function(args.out, sol.y)
    print(
        f"forward: n={args.n}, ssn_iterations={sol.ssn_iterations}, "
        f"residual={sol.final_residual:.3e}, state -> {args.out}"
    )
    return 0


def _cmd_noise_free(args) -> int:
    record = run_noise_free(args.n, args.start, args.iters, cfg=args.cfg)
    csv_path, json_path = record.save(Path(args.out).with_suffix(""))
    err = record.rel_errors[-1] if record.rel_errors is not None else float("nan")
    print(
        f"noise-free: n={args.n}, start={args.start}, iters={record.stopping_index}, "
        f"final rel_error={err:.6e} -> {csv_path}, {json_path}"
    )
    return 0


def _cmd_invert(args) -> int:
    if args.delta_target is not None:
        option, noise = "--delta-target", NoiseSpec(seed=args.seed, value=args.delta_target)
    else:
        option, noise = "--sigma", NoiseSpec(seed=args.seed, mode="raw", value=args.sigma)
    try:
        record = run_noisy(args.n, noise, args.start, cfg=args.cfg)
    except ValueError as exc:  # a level the data cannot carry
        args.error(f"argument {option}: {exc}")
    csv_path, json_path = record.save(Path(args.out).with_suffix(""))
    err = record.rel_errors[-1] if record.rel_errors is not None else float("nan")
    print(
        f"invert: n={args.n}, delta={record.delta:.6e}, N={record.stopping_index}, "
        f"rel_error={err:.6e}, reason={record.reason} -> {csv_path}, {json_path}"
    )
    return 0


def _cmd_table(args) -> int:
    try:
        rows = run_table(args.n, args.deltas, start=args.start, seeds=args.seeds, cfg=args.cfg)
    except ValueError as exc:  # a level the data cannot carry
        args.error(f"argument --deltas: {exc}")
    path = formats.write_table_csv(args.out, rows)
    print(f"table: {len(rows)} cells -> {path}")
    for row in rows:
        print(
            f"  delta={row['delta']:.3e} seed={row['seed']} N={row['N']} "
            f"rel_error={row['rel_error']:.3e} rate={row['rate']:.3f} "
            f"ssn={row['ssn_total']} reason={row['reason']}"
        )
    return 1 if all(row["N"] == -1 for row in rows) else 0  # 1: no cell ran


def _verify_oracle(args, out: Path) -> dict:
    rows, reports = [], []
    for n_h in args.oracle_sizes:
        report = oracle_sweep(n_h, trials=args.oracle_trials, seed=args.seed)
        reports.append(report)
        rows.extend({"n_h": n_h, "trial": t, "max_diff": d} for t, d in enumerate(report.diffs))
    formats.write_rows(out, formats.ORACLE_COLUMNS, rows)
    return {
        "suite": "oracle",
        "sizes": args.oracle_sizes,
        "trials": args.oracle_trials,
        "seed": args.seed,
        "max_diff": max(r.max_diff for r in reports),
        "passed": all(r.passed for r in reports),
    }


def _verify_tcc(args, out: Path) -> dict:
    problem, (u_exact, _, _), _ = Setup(args.tcc_n).build()
    surveys = [
        tcc_survey(
            problem,
            u_exact,
            n_pairs=args.tcc_pairs,
            ball_radius=args.tcc_radius,
            seed=args.seed,
            mode=mode,
        )
        for mode in formats.TCC_MODES
    ]
    formats.write_rows(out, formats.TCC_COLUMNS, (
        {"mode": survey.mode, "radius": e.radius, "mu_hat": e.ratio, "mismatch": e.mismatch}
        for survey in surveys
        for e in survey.estimates
    ))
    return {
        "suite": "tcc",
        "n_h": args.tcc_n,
        "pairs": args.tcc_pairs,
        "max_ratio": {s.mode: s.max_ratio for s in surveys},
        "fitted_constants": {s.mode: s.fitted_constants() for s in surveys},
        "sampling": "uniform nodal perturbations and smooth low-frequency bumps, "
        "scaled to uniform random M-radius within the ball",
        "ball_radius": args.tcc_radius,
        "seed": args.seed,
    }


def _verify_adjoint(args, out: Path) -> dict:
    problem = ForwardProblem.build(build_mesh(args.adjoint_n))
    report = adjoint_check(problem, trials=args.adjoint_trials, seed=args.seed)
    formats.write_rows(out, formats.ADJOINT_COLUMNS, (
        {"trial": t, "asymmetry": a, "rayleigh": r}
        for t, (a, r) in enumerate(zip(report.asymmetries, report.rayleigh))
    ))
    return {
        "suite": "adjoint",
        "n_h": args.adjoint_n,
        "trials": args.adjoint_trials,
        "seed": args.seed,
        "max_asymmetry": report.max_asymmetry,
        "max_rayleigh": report.max_rayleigh,
    }


SUITES = {"oracle": _verify_oracle, "tcc": _verify_tcc, "adjoint": _verify_adjoint}


def _cmd_verify(args) -> int:
    out = Path(args.out)
    suites = list(SUITES) if args.suite == "all" else [args.suite]
    summaries = []
    for suite in suites:
        target = out if len(suites) == 1 else out.with_suffix(f".{suite}.csv")
        summaries.append(SUITES[suite](args, target))
        print(f"verify[{suite}] -> {target}")
    summary = summaries if len(summaries) > 1 else summaries[0]
    json_path = formats.write_json(out.with_suffix(".json"), summary)
    print(f"verify summary -> {json_path}")
    return 1 if any(s.get("passed") is False for s in summaries) else 0


COMMANDS = {
    "forward": _cmd_forward,
    "noise-free": _cmd_noise_free,
    "invert": _cmd_invert,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _parse_args(argv)
    return COMMANDS[args.command](args)
