"""Command-line front end.

Subcommands:
  forward     solve the forward problem for a stored or builtin source
  noise-free  run the iteration on exact data for a fixed number of steps
  invert      one noisy reconstruction with discrepancy stopping
  table       campaign over noise levels and seeds
  verify      empirical verification suites (oracle | tcc | adjoint | all)

Options may also be supplied through a JSON file via --config; explicit
flags override file entries, which override the built-in defaults.  The
Landweber defaults (mu, tau, rho, lbar, max_iter) are those of
LandweberConfig.  A config key that the subcommand does not know is an
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from .experiments import (
    NoiseSpec,
    _start_iterate,
    add_noise,
    exact_fields,
    run_noise_free,
    run_table,
    write_table_csv,
)
from .forward import ForwardProblem, solve_forward
from .landweber import LandweberConfig, run
from .mesh_fem import build_mesh, read_grid_function, write_grid_function
from .verification import adjoint_check, oracle_sweep, tcc_survey

logger = logging.getLogger("bouligand_landweber")

# The LandweberConfig fields a user may set; delta is measured from the data.
LANDWEBER_DEFAULTS = {f.name: f.default for f in fields(LandweberConfig) if f.name != "delta"}

DEFAULTS = {
    "forward": {"n": 129, "source": "builtin-exact"},
    # --iters takes the place of max_iter
    "noise-free": {
        "n": 129,
        "start": "source",
        "iters": 100,
        **{k: v for k, v in LANDWEBER_DEFAULTS.items() if k != "max_iter"},
    },
    "invert": {
        "n": 129,
        "start": "source",
        "delta_target": None,
        "sigma": None,
        "seed": 0,
        **LANDWEBER_DEFAULTS,
    },
    "table": {
        "n": 129,
        "start": "source",
        "deltas": "1e-2,1e-3,1e-4",
        "seeds": "0",
        **LANDWEBER_DEFAULTS,
    },
    "verify": {
        "suite": "all",
        "oracle_sizes": "3,4,5",
        "oracle_trials": 100,
        "tcc_n": 33,
        "tcc_pairs": 50,
        "tcc_radius": 0.5,
        "adjoint_n": 65,
        "adjoint_trials": 50,
        "seed": 0,
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bouligand-landweber",
        description="Iterative regularization of the nonsmooth inverse source problem",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON file with option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="solve the forward problem and store the state")
    p.add_argument("--n", type=int)
    p.add_argument("--source", type=str, help="grid function CSV or 'builtin-exact'")
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("noise-free", help="noise-free iteration with fixed step count")
    p.add_argument("--n", type=int)
    p.add_argument("--start", choices=["zero", "source"])
    p.add_argument("--iters", type=int)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("invert", help="one noisy reconstruction with discrepancy stopping")
    p.add_argument("--n", type=int)
    p.add_argument("--start", choices=["zero", "source"])
    p.add_argument("--delta-target", type=float, dest="delta_target")
    p.add_argument("--sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("table", help="campaign over noise levels and seeds")
    p.add_argument("--n", type=int)
    p.add_argument("--start", choices=["zero", "source"])
    p.add_argument("--deltas", type=str, help="comma-separated noise targets")
    p.add_argument("--seeds", type=str, help="comma-separated seeds")
    p.add_argument("--out", type=str, required=True)

    p = sub.add_parser("verify", help="empirical verification suites")
    p.add_argument("--suite", choices=["oracle", "tcc", "adjoint", "all"])
    p.add_argument("--out", type=str, required=True)

    # one flag per Landweber option a subcommand reads, typed like its default
    for command, command_parser in sub.choices.items():
        for name, default in LANDWEBER_DEFAULTS.items():
            if name in DEFAULTS[command]:
                command_parser.add_argument(f"--{name.replace('_', '-')}", type=type(default))
    return parser


def _merge_options(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags; unknown config keys are rejected."""
    merged = dict(DEFAULTS.get(args.command, {}))
    known = (merged.keys() | vars(args).keys()) - {"command", "config"}
    if args.config:
        with open(args.config) as fh:
            for key, value in json.load(fh).items():
                key = key.replace("-", "_")
                if key not in known:
                    raise SystemExit(
                        f"unknown option {key!r} in {args.config} for {args.command}"
                    )
                merged[key] = value
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _landweber_config(opt: dict) -> LandweberConfig:
    """Config from the merged options, each cast to the type of its default."""
    return LandweberConfig(
        **{k: type(v)(opt[k]) for k, v in LANDWEBER_DEFAULTS.items() if k in opt}
    )


def _parse_list(text, cast):
    if isinstance(text, (list, tuple)):
        return [cast(x) for x in text]
    return [cast(x) for x in str(text).split(",") if x.strip()]


def _cmd_forward(opt: dict) -> int:
    n_h = int(opt["n"])
    problem = ForwardProblem.build(build_mesh(n_h))
    if opt["source"] == "builtin-exact":
        u, _, _ = exact_fields(problem.mesh)
    else:
        u = read_grid_function(opt["source"])
        if u.mesh.n_h != n_h:
            raise SystemExit(f"source file has n_h={u.mesh.n_h}, requested n={n_h}")
    sol = solve_forward(problem, u)
    write_grid_function(opt["out"], sol.y)
    print(
        f"forward: n={n_h}, ssn_iterations={sol.ssn_iterations}, "
        f"residual={sol.final_residual:.3e}, state -> {opt['out']}"
    )
    return 0


def _cmd_noise_free(opt: dict) -> int:
    record = run_noise_free(
        int(opt["n"]), start=opt["start"], iters=int(opt["iters"]), cfg=_landweber_config(opt)
    )
    csv_path, json_path = record.save(Path(opt["out"]).with_suffix(""))
    err = record.rel_errors[-1] if record.rel_errors is not None else float("nan")
    print(
        f"noise-free: n={opt['n']}, start={opt['start']}, iters={record.stopping_index}, "
        f"final rel_error={err:.6e} -> {csv_path}, {json_path}"
    )
    return 0


def _cmd_invert(opt: dict) -> int:
    if (opt.get("delta_target") is None) == (opt.get("sigma") is None):
        raise SystemExit("invert needs exactly one of --delta-target or --sigma")
    n_h = int(opt["n"])
    problem = ForwardProblem.build(build_mesh(n_h))
    cfg = _landweber_config(opt)
    u_exact, y_exact, u_bar = exact_fields(problem.mesh, rho=cfg.rho)
    if opt.get("delta_target") is not None:
        spec = NoiseSpec(seed=int(opt["seed"]), mode="rescale", value=float(opt["delta_target"]))
    else:
        spec = NoiseSpec(seed=int(opt["seed"]), mode="raw", value=float(opt["sigma"]))
    y_noisy, delta = add_noise(y_exact, spec, problem.M)
    u0 = _start_iterate(opt["start"], u_exact, u_bar)
    record = run(problem, y_noisy, replace(cfg, delta=delta), u0, u_exact)
    csv_path, json_path = record.save(Path(opt["out"]).with_suffix(""))
    err = record.rel_errors[-1] if record.rel_errors is not None else float("nan")
    print(
        f"invert: n={n_h}, delta={delta:.6e}, N={record.stopping_index}, "
        f"rel_error={err:.6e}, reason={record.reason} -> {csv_path}, {json_path}"
    )
    return 0


def _cmd_table(opt: dict) -> int:
    rows = run_table(
        int(opt["n"]),
        _parse_list(opt["deltas"], float),
        start=opt["start"],
        seeds=_parse_list(opt["seeds"], int),
        cfg=_landweber_config(opt),
    )
    path = write_table_csv(opt["out"], rows)
    print(f"table: {len(rows)} cells -> {path}")
    for row in rows:
        print(
            f"  delta={row['delta']:.3e} seed={row['seed']} N={row['N']} "
            f"rel_error={row['rel_error']:.3e} rate={row['rate']:.3f} "
            f"ssn={row['ssn_total']} reason={row['reason']}"
        )
    return 0


def _verify_oracle(opt: dict, out: Path) -> dict:
    rows, reports = [], []
    for n_h in _parse_list(opt["oracle_sizes"], int):
        report = oracle_sweep(n_h, trials=int(opt["oracle_trials"]), seed=int(opt["seed"]))
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


def _verify_tcc(opt: dict, out: Path) -> dict:
    problem = ForwardProblem.build(build_mesh(int(opt["tcc_n"])))
    u_exact, _, _ = exact_fields(problem.mesh)
    surveys = [
        tcc_survey(
            problem,
            u_exact,
            n_pairs=int(opt["tcc_pairs"]),
            ball_radius=float(opt["tcc_radius"]),
            seed=int(opt["seed"]),
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
        "ball_radius": float(opt["tcc_radius"]),
        "seed": int(opt["seed"]),
    }


def _verify_adjoint(opt: dict, out: Path) -> dict:
    problem = ForwardProblem.build(build_mesh(int(opt["adjoint_n"])))
    report = adjoint_check(problem, trials=int(opt["adjoint_trials"]), seed=int(opt["seed"]))
    with open(out, "w") as fh:
        fh.write("trial,asymmetry,rayleigh\n")
        for t in range(report.trials):
            fh.write(f"{t},{report.asymmetries[t]:.17g},{report.rayleigh[t]:.17g}\n")
    return {
        "suite": "adjoint",
        "max_asymmetry": report.max_asymmetry,
        "max_rayleigh": report.max_rayleigh,
    }


def _cmd_verify(opt: dict) -> int:
    out = Path(opt["out"])
    runners = {"oracle": _verify_oracle, "tcc": _verify_tcc, "adjoint": _verify_adjoint}
    suites = list(runners) if opt["suite"] == "all" else [opt["suite"]]
    summaries = []
    for suite in suites:
        target = out if len(suites) == 1 else out.with_suffix(f".{suite}.csv")
        summaries.append(runners[suite](opt, target))
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
    args = _build_parser().parse_args(argv)
    opt = _merge_options(args)
    return COMMANDS[args.command](opt)


if __name__ == "__main__":
    sys.exit(main())
