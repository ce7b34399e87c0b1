"""Command-line front end.

Subcommands:
  forward     solve the forward problem for a stored or builtin source
  noise-free  run the iteration on exact data for a fixed number of steps
  invert      one noisy reconstruction with discrepancy stopping
  table       campaign over noise levels and seeds
  verify      empirical verification suites (oracle | tcc | adjoint | all)

Each option is one flag with its type and default; the Landweber defaults
(mu, tau, rho, lbar, max_iter) are those of LandweberConfig.  A JSON file
given with --config becomes the subcommand's defaults: its numbers and
strings are converted like the flags they name, JSON lists are accepted for
--deltas, --seeds and --oracle-sizes, and explicit flags override the file.
A config key that the subcommand does not know is an error.  The commands
only parse; the runs themselves are built by `experiments`.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .experiments import (
    NoiseSpec,
    exact_fields,
    run_noise_free,
    run_noisy,
    run_table,
    write_table_csv,
)
from .forward import ForwardProblem, solve_forward
from .landweber import LandweberConfig
from .mesh_fem import build_mesh, read_grid_function, write_grid_function
from .verification import adjoint_check, oracle_sweep, tcc_survey

# The LandweberConfig fields a user may set; delta is measured from the data.
LANDWEBER_DEFAULTS = {f.name: f.default for f in fields(LandweberConfig) if f.name != "delta"}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="bouligand-landweber",
        description="Iterative regularization of the nonsmooth inverse source problem",
    )
    parser.add_argument("--config", help="JSON file with option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="solve the forward problem and store the state")
    p.add_argument("--n", type=int, default=129)
    p.add_argument("--source", default="builtin-exact", help="grid function CSV or 'builtin-exact'")
    p.add_argument("--out", required=True)

    p = sub.add_parser("noise-free", help="noise-free iteration with fixed step count")
    p.add_argument("--n", type=int, default=129)
    p.add_argument("--start", choices=["zero", "source"], default="source")
    p.add_argument("--iters", type=int, default=100)  # takes the place of --max-iter
    p.add_argument("--out", required=True)

    p = sub.add_parser("invert", help="one noisy reconstruction with discrepancy stopping")
    p.add_argument("--n", type=int, default=129)
    p.add_argument("--start", choices=["zero", "source"], default="source")
    p.add_argument("--delta-target", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("table", help="campaign over noise levels and seeds")
    p.add_argument("--n", type=int, default=129)
    p.add_argument("--start", choices=["zero", "source"], default="source")
    p.add_argument("--deltas", default="1e-2,1e-3,1e-4", help="comma-separated noise targets")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="empirical verification suites")
    p.add_argument("--suite", choices=["oracle", "tcc", "adjoint", "all"], default="all")
    p.add_argument("--oracle-sizes", default="3,4,5", help="comma-separated n_h")
    p.add_argument("--oracle-trials", type=int, default=100)
    p.add_argument("--tcc-n", type=int, default=33)
    p.add_argument("--tcc-pairs", type=int, default=50)
    p.add_argument("--tcc-radius", type=float, default=0.5)
    p.add_argument("--adjoint-n", type=int, default=65)
    p.add_argument("--adjoint-trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    # one flag per LandweberConfig field, typed like its default
    for command in ("noise-free", "invert", "table"):
        for name, default in LANDWEBER_DEFAULTS.items():
            if (command, name) != ("noise-free", "max_iter"):
                flag = f"--{name.replace('_', '-')}"
                sub.choices[command].add_argument(flag, type=type(default), default=default)
    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """Flags over --config entries over the built-in defaults."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config) as fh:
        # numbers stay text, so argparse converts them as it converts flags
        values = json.load(fh, parse_int=str, parse_float=str)
    values = {key.replace("-", "_"): value for key, value in values.items()}
    known = vars(args).keys() - {"command", "config"}
    for key in values:
        if key not in known:
            raise SystemExit(f"unknown option {key!r} in {args.config} for {args.command}")
    commands[args.command].set_defaults(**values)
    return parser.parse_args(argv)


def _landweber_config(args: argparse.Namespace) -> LandweberConfig:
    return LandweberConfig(**{k: v for k, v in vars(args).items() if k in LANDWEBER_DEFAULTS})


def _parse_list(text, cast):
    if isinstance(text, (list, tuple)):
        return [cast(x) for x in text]
    return [cast(x) for x in str(text).split(",") if x.strip()]


def _cmd_forward(args) -> int:
    problem = ForwardProblem.build(build_mesh(args.n))
    if args.source == "builtin-exact":
        u, _, _ = exact_fields(problem.mesh)
    else:
        u = read_grid_function(args.source)
        if u.mesh.n_h != args.n:
            raise SystemExit(f"source file has n_h={u.mesh.n_h}, requested n={args.n}")
    sol = solve_forward(problem, u)
    write_grid_function(args.out, sol.y)
    print(
        f"forward: n={args.n}, ssn_iterations={sol.ssn_iterations}, "
        f"residual={sol.final_residual:.3e}, state -> {args.out}"
    )
    return 0


def _cmd_noise_free(args) -> int:
    record = run_noise_free(args.n, args.start, args.iters, cfg=_landweber_config(args))
    csv_path, json_path = record.save(Path(args.out).with_suffix(""))
    err = record.rel_errors[-1] if record.rel_errors is not None else float("nan")
    print(
        f"noise-free: n={args.n}, start={args.start}, iters={record.stopping_index}, "
        f"final rel_error={err:.6e} -> {csv_path}, {json_path}"
    )
    return 0


def _cmd_invert(args) -> int:
    if (args.delta_target is None) == (args.sigma is None):
        raise SystemExit("invert needs exactly one of --delta-target or --sigma")
    if args.delta_target is not None:
        noise = NoiseSpec(seed=args.seed, mode="rescale", value=args.delta_target)
    else:
        noise = NoiseSpec(seed=args.seed, mode="raw", value=args.sigma)
    record = run_noisy(args.n, noise, args.start, cfg=_landweber_config(args))
    csv_path, json_path = record.save(Path(args.out).with_suffix(""))
    err = record.rel_errors[-1] if record.rel_errors is not None else float("nan")
    print(
        f"invert: n={args.n}, delta={record.delta:.6e}, N={record.stopping_index}, "
        f"rel_error={err:.6e}, reason={record.reason} -> {csv_path}, {json_path}"
    )
    return 0


def _cmd_table(args) -> int:
    rows = run_table(
        args.n,
        _parse_list(args.deltas, float),
        start=args.start,
        seeds=_parse_list(args.seeds, int),
        cfg=_landweber_config(args),
    )
    path = write_table_csv(args.out, rows)
    print(f"table: {len(rows)} cells -> {path}")
    for row in rows:
        print(
            f"  delta={row['delta']:.3e} seed={row['seed']} N={row['N']} "
            f"rel_error={row['rel_error']:.3e} rate={row['rate']:.3f} "
            f"ssn={row['ssn_total']} reason={row['reason']}"
        )
    return 0


def _verify_oracle(args, out: Path) -> dict:
    rows, reports = [], []
    for n_h in _parse_list(args.oracle_sizes, int):
        report = oracle_sweep(n_h, trials=args.oracle_trials, seed=args.seed)
        reports.append(report)
        rows.extend((n_h, t, d) for t, d in enumerate(report.diffs))
    with open(out, "w") as fh:
        fh.write("n_h,trial,max_diff\n")
        for n_h, t, d in rows:
            fh.write(f"{n_h},{t},{d:.17g}\n")
    return {
        "suite": "oracle",
        "max_diff": max(r.max_diff for r in reports),
        "passed": all(r.passed for r in reports),
    }


def _verify_tcc(args, out: Path) -> dict:
    problem = ForwardProblem.build(build_mesh(args.tcc_n))
    u_exact, _, _ = exact_fields(problem.mesh)
    surveys = [
        tcc_survey(
            problem,
            u_exact,
            n_pairs=args.tcc_pairs,
            ball_radius=args.tcc_radius,
            seed=args.seed,
            mode=mode,
        )
        for mode in ("nodal", "bump")
    ]
    with open(out, "w") as fh:
        fh.write("radius,mu_hat,mismatch\n")
        for survey in surveys:
            for radius, ratio, mismatch in survey.rows():
                fh.write(f"{radius:.17g},{ratio:.17g},{mismatch:.17g}\n")
    return {
        "suite": "tcc",
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
    with open(out, "w") as fh:
        fh.write("trial,asymmetry,rayleigh\n")
        for t in range(report.trials):
            fh.write(f"{t},{report.asymmetries[t]:.17g},{report.rayleigh[t]:.17g}\n")
    return {
        "suite": "adjoint",
        "max_asymmetry": report.max_asymmetry,
        "max_rayleigh": report.max_rayleigh,
    }


def _cmd_verify(args) -> int:
    out = Path(args.out)
    runners = {"oracle": _verify_oracle, "tcc": _verify_tcc, "adjoint": _verify_adjoint}
    suites = list(runners) if args.suite == "all" else [args.suite]
    summaries = []
    for suite in suites:
        target = out if len(suites) == 1 else out.with_suffix(f".{suite}.csv")
        summaries.append(runners[suite](args, target))
        print(f"verify[{suite}] -> {target}")
    json_path = out.with_suffix(".json")
    with open(json_path, "w") as fh:
        json.dump(summaries if len(summaries) > 1 else summaries[0], fh, indent=2)
        fh.write("\n")
    print(f"verify summary -> {json_path}")
    return 0


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


if __name__ == "__main__":
    sys.exit(main())
