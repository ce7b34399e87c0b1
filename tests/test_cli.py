import json

import numpy as np
import pytest

from bouligand_landweber import (
    ForwardProblem,
    GridFunction,
    LandweberConfig,
    RunRecord,
    adjoint_check,
    build_mesh,
    exact_fields,
    oracle_sweep,
    read_grid_function,
    read_table_csv,
    run_table,
    tcc_survey,
    write_grid_function,
)
from bouligand_landweber.cli import main
from bouligand_landweber.formats import ADJOINT_COLUMNS, ORACLE_COLUMNS, TCC_COLUMNS, read_rows


def test_forward_builtin_exact(tmp_path, capsys):
    out = tmp_path / "state.csv"
    assert main(["forward", "--n", "17", "--source", "builtin-exact", "--out", str(out)]) == 0
    state = read_grid_function(out)
    assert state.mesh.n_h == 17
    assert state.role == "state"
    assert np.max(np.abs(state.values)) > 0.01
    assert "ssn_iterations" in capsys.readouterr().out


def test_forward_from_file(tmp_path):
    mesh = build_mesh(9)
    src = tmp_path / "zero.csv"
    write_grid_function(src, GridFunction(mesh, np.zeros(mesh.n_interior), "source"))
    out = tmp_path / "state.csv"
    assert main(["forward", "--n", "9", "--source", str(src), "--out", str(out)]) == 0
    assert np.array_equal(read_grid_function(out).values, np.zeros(mesh.n_interior))


def test_forward_mesh_mismatch(tmp_path):
    mesh = build_mesh(9)
    src = tmp_path / "zero.csv"
    write_grid_function(src, GridFunction(mesh, np.zeros(mesh.n_interior), "source"))
    with pytest.raises(SystemExit):
        main(["forward", "--n", "17", "--source", str(src), "--out", str(tmp_path / "o.csv")])


@pytest.mark.parametrize(
    "content",
    [
        None,
        "n_h 9\n",
        "n_h=9,role=source\nabc\n",
        "n_h=9,role=source\n0.0\n",
        "n_h=9,role=source\n" + "nan\n" * 49,
    ],
    ids=["missing", "header-without-equals", "not-a-number", "too-few-values", "non-finite"],
)
def test_forward_bad_source_is_usage_error(tmp_path, capsys, monkeypatch, content):
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built for a bad source file")

    monkeypatch.setattr(ForwardProblem, "build", no_build)
    src = tmp_path / "src.csv"
    if content is not None:
        src.write_text(content)
    with pytest.raises(SystemExit) as exit_info:
        main(["forward", "--n", "9", "--source", str(src), "--out", str(tmp_path / "o.csv")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--source" in err and str(src) in err


def test_noise_free_command(tmp_path):
    out = tmp_path / "free.csv"
    rc = main(["noise-free", "--n", "17", "--start", "zero", "--iters", "3", "--out", str(out)])
    assert rc == 0
    record = RunRecord.load(tmp_path / "free")
    assert record.rel_errors[0] == 1.0
    assert len(record.residual_norms) == 4
    assert record.reason == "max-iterations"


def test_invert_command(tmp_path):
    out = tmp_path / "rec.csv"
    rc = main(
        [
            "invert",
            "--n", "17",
            "--start", "source",
            "--delta-target", "1e-2",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    record = RunRecord.load(tmp_path / "rec")
    assert record.reason == "discrepancy"
    assert record.check_discrepancy()
    assert record.delta == pytest.approx(1e-2, rel=1e-14)
    assert record.config.mu == 0.1
    assert record.config.tau == 1.4
    assert record.config.max_iter == 5000


def test_invert_sigma_mode(tmp_path):
    rc = main(
        [
            "invert",
            "--n", "9",
            "--start", "zero",
            "--sigma", "1e-3",
            "--seed", "2",
            "--out", str(tmp_path / "rec.csv"),
        ]
    )
    assert rc == 0
    record = RunRecord.load(tmp_path / "rec")
    assert record.delta > 0


def test_invert_requires_one_noise_flag(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["invert", "--n", "9", "--out", str(tmp_path / "r.csv")])
    assert exit_info.value.code == 2
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "invert",
                "--n", "9",
                "--delta-target", "1e-2",
                "--sigma", "1e-2",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
    assert exit_info.value.code == 2


def test_table_command(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(
        [
            "table",
            "--n", "17",
            "--start", "source",
            "--deltas", "1e-2,1e-3",
            "--seeds", "0,1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = read_table_csv(out)
    assert len(rows) == 4
    assert {row["seed"] for row in rows} == {0, 1}


def test_table_exits_1_when_no_cell_ran(tmp_path, monkeypatch):
    # the campaign's solve of u0 fails, and so does every cell's own:
    # N = -1 in every row, exit 1; one cell that ran is enough for 0, and a
    # usage error stays at 2
    from bouligand_landweber import ConvergenceError, experiments, landweber

    solve_forward, calls = landweber.solve_forward, []

    def fail_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise ConvergenceError("forced failure", residual=1.0)
        return solve_forward(*args, **kwargs)

    def fail(*args, **kwargs):
        raise ConvergenceError("forced failure", residual=1.0)

    out = tmp_path / "table.csv"
    argv = ["table", "--n", "9", "--deltas", "1e-2,1e-3", "--out", str(out)]
    monkeypatch.setattr(experiments, "solve_forward", fail)
    monkeypatch.setattr(landweber, "solve_forward", fail)
    assert main(argv) == 1
    assert [row["N"] for row in read_table_csv(out)] == [-1, -1]
    monkeypatch.setattr(landweber, "solve_forward", fail_first)
    assert main(argv) == 0
    assert [row["N"] for row in read_table_csv(out)][0] == -1
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--deltas", "0"])
    assert exit_info.value.code == 2


def test_table_landweber_flags_reach_config(tmp_path, monkeypatch):
    from bouligand_landweber import cli

    configs = []

    def spy(*args, cfg, **kwargs):
        configs.append(cfg)
        return run_table(*args, cfg=cfg, **kwargs)

    monkeypatch.setattr(cli, "run_table", spy)
    out = tmp_path / "table.csv"
    rc = main(
        ["table", "--n", "9", "--deltas", "1e-2", "--lbar", "0.04", "--max-iter", "7",
         "--out", str(out)]
    )
    assert rc == 0
    assert configs == [LandweberConfig(lbar=0.04, max_iter=7)]


def test_verify_oracle_suite(tmp_path):
    out = tmp_path / "oracle.csv"
    assert main(["verify", "--suite", "oracle", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_h,trial,max_diff"
    assert len(lines) == 1 + 3 * 100
    summary = json.loads((tmp_path / "oracle.json").read_text())
    assert summary["passed"] is True
    assert summary["max_diff"] <= 1e-10


def test_verify_exits_1_when_a_verdict_fails(tmp_path, monkeypatch):
    # a negative tolerance fails every oracle trial: "passed": false, exit 1;
    # the suites without a verdict still exit 0, and a usage error stays at 2
    from bouligand_landweber import verification

    monkeypatch.setattr(verification, "ORACLE_TOL", -1.0)
    out = tmp_path / "oracle.csv"
    argv = ["verify", "--oracle-sizes", "3", "--oracle-trials", "2", "--out", str(out)]
    assert main([*argv, "--suite", "oracle"]) == 1
    assert json.loads((tmp_path / "oracle.json").read_text())["passed"] is False
    assert main([*argv, "--suite", "adjoint", "--adjoint-n", "9", "--adjoint-trials", "2"]) == 0
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--oracle-trials", "0"])
    assert exit_info.value.code == 2


def _options_file(tmp_path, lines):
    """An @file argument for `lines`, one argument per line."""
    path = tmp_path / "opts.txt"
    path.write_text("".join(f"{line}\n" for line in lines))
    return f"@{path}"


def test_verify_tcc_suite_with_config(tmp_path):
    opts = _options_file(tmp_path, ["--tcc-n=17", "--tcc-pairs", "3"])
    out = tmp_path / "tcc.csv"
    rc = main(["verify", opts, "--suite", "tcc", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "radius,mu_hat,mismatch"
    assert len(lines) == 1 + 2 * 3  # nodal and bump modes
    summary = json.loads((tmp_path / "tcc.json").read_text())
    assert summary["max_ratio"]["nodal"] < 1.0


def test_verify_all_suites_with_config(tmp_path):
    opts = _options_file(
        tmp_path,
        [
            "--oracle-sizes=3,4",
            "--oracle-trials=5",
            "--tcc-n=17",
            "--tcc-pairs=2",
            "--adjoint-n=17",
            "--adjoint-trials=2",
        ],
    )
    out = tmp_path / "verify.csv"
    rc = main(["verify", opts, "--suite", "all", "--out", str(out)])
    assert rc == 0
    for suite in ("oracle", "tcc", "adjoint"):
        assert (tmp_path / f"verify.{suite}.csv").exists()
    assert len((tmp_path / "verify.oracle.csv").read_text().splitlines()) == 1 + 2 * 5
    summaries = json.loads((tmp_path / "verify.json").read_text())
    assert [s["suite"] for s in summaries] == ["oracle", "tcc", "adjoint"]
    assert summaries[2]["max_asymmetry"] <= 1e-10


def _strict_json(path):
    """The JSON of `path`, which must not hold NaN or infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_verify_csvs_read_back_as_the_reports(tmp_path):
    out = tmp_path / "verify.csv"
    argv = ["verify", "--oracle-sizes=3,4", "--oracle-trials=3", "--tcc-n=9", "--tcc-pairs=2",
            "--adjoint-n=9", "--adjoint-trials=2", "--seed=5", "--out", str(out)]
    assert main(argv) == 0
    summaries = _strict_json(tmp_path / "verify.json")
    assert [s["suite"] for s in summaries] == ["oracle", "tcc", "adjoint"]

    oracle = read_rows(tmp_path / "verify.oracle.csv", ORACLE_COLUMNS)
    diffs = [oracle_sweep(n_h, trials=3, seed=5).diffs for n_h in (3, 4)]
    assert [(r["n_h"], r["trial"]) for r in oracle] == [(n, t) for n in (3, 4) for t in range(3)]
    assert [r["max_diff"] for r in oracle] == np.concatenate(diffs).tolist()

    problem = ForwardProblem.build(build_mesh(9))
    u_exact, _, _ = exact_fields(problem.mesh)
    estimates = [
        e
        for mode in ("nodal", "bump")
        for e in tcc_survey(problem, u_exact, 2, seed=5, mode=mode).estimates
    ]
    assert read_rows(tmp_path / "verify.tcc.csv", TCC_COLUMNS) == [
        {"radius": e.radius, "mu_hat": e.ratio, "mismatch": e.mismatch} for e in estimates
    ]

    report = adjoint_check(problem, trials=2, seed=5)
    adjoint = read_rows(tmp_path / "verify.adjoint.csv", ADJOINT_COLUMNS)
    assert [r["trial"] for r in adjoint] == [0, 1]
    assert [r["asymmetry"] for r in adjoint] == report.asymmetries.tolist()
    assert [r["rayleigh"] for r in adjoint] == report.rayleigh.tolist()
    assert (tmp_path / "verify.adjoint.csv").read_bytes().endswith(b"\r\n")


def test_config_file_defaults_and_flag_override(tmp_path):
    opts = _options_file(tmp_path, ["--iters=2", "--start=zero"])
    out = tmp_path / "a.csv"
    main(["noise-free", opts, "--n", "9", "--out", str(out)])
    assert len(RunRecord.load(tmp_path / "a").residual_norms) == 3  # iters from the file
    out2 = tmp_path / "b.csv"
    main(["noise-free", opts, "--n", "9", "--iters", "1", "--out", str(out2)])
    assert len(RunRecord.load(tmp_path / "b").residual_norms) == 2  # the later flag wins


def test_unknown_config_key_rejected(tmp_path, capsys):
    opts = _options_file(tmp_path, ["--taau=9"])
    out = tmp_path / "rec.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["invert", opts, "--n", "9", "--delta-target", "1e-2", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--taau" in capsys.readouterr().err
    assert not out.exists()


def _run_both(tmp_path, command, flags):
    """Run `command` once with flags and once with the same flags from an @file."""
    by_flag, by_file = tmp_path / "flag.csv", tmp_path / "file.csv"
    assert main([command, *flags, "--out", str(by_flag)]) == 0
    assert main([command, _options_file(tmp_path, flags), "--out", str(by_file)]) == 0
    return by_flag, by_file


def test_config_strings_convert_like_flags(tmp_path):
    flag, config = _run_both(tmp_path, "noise-free", ["--n", "9", "--iters", "2", "--tau", "1.5"])
    record = RunRecord.load(config.with_suffix(""))
    assert record.config.tau == 1.5 and isinstance(record.config.tau, float)
    assert len(record.residual_norms) == 3
    for suffix in (".csv", ".json"):
        assert flag.with_suffix(suffix).read_bytes() == config.with_suffix(suffix).read_bytes()


def test_config_lists_for_deltas_and_seeds(tmp_path):
    flag, config = _run_both(
        tmp_path, "table", ["--n", "9", "--deltas", "1e-2,1e-3", "--seeds", "0,2"]
    )
    assert len(read_table_csv(config)) == 4
    assert flag.read_bytes() == config.read_bytes()


def test_verify_keys_as_flags_and_config(tmp_path):
    flag, config = _run_both(
        tmp_path,
        "verify",
        ["--suite", "adjoint", "--adjoint-n", "9", "--adjoint-trials", "2", "--seed", "4"],
    )
    assert len(config.read_text().splitlines()) == 1 + 2
    assert flag.read_bytes() == config.read_bytes()
    assert flag.with_suffix(".json").read_bytes() == config.with_suffix(".json").read_bytes()


@pytest.mark.parametrize("option", ["--delta-target", "--sigma"])
def test_invert_rejects_noise_level_zero(tmp_path, capsys, monkeypatch, option):
    # at delta = 0 the threshold tau * delta is 0, so a discrepancy-stopped
    # run could end only at max-iterations: a usage error pointing at the
    # exact-data command, before any problem is built
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built for a bad value")

    monkeypatch.setattr(ForwardProblem, "build", no_build)
    with pytest.raises(SystemExit) as exit_info:
        main(["invert", "--n", "9", option, "0", "--out", str(tmp_path / "out.csv")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: value must be finite and positive" in err
    assert "noise-free" in err


@pytest.mark.parametrize(
    "argv,option,noise",
    [
        (["invert", "--delta-target", "1e-170"], "--delta-target", "rescale noise at level 1e-170"),
        (["invert", "--delta-target", "1e-100"], "--delta-target", "rescale noise at level 1e-100"),
        (["invert", "--sigma", "1e300"], "--sigma", "raw noise at level 1e+300"),
        (["table", "--deltas", "1e-170"], "--deltas", "rescale noise at level 1e-170"),
        (["table", "--deltas", "1e-2,1e-170"], "--deltas", "rescale noise at level 1e-170"),
        (["table", "--deltas", "1e-2,1e300"], "--deltas", "rescale noise at level 1e+300"),
    ],
    ids=["delta-target-lost", "delta-target-1e-100", "sigma-overflows", "deltas-lost",
         "second-delta-lost", "second-delta-overflows"],
)
def test_a_level_the_data_cannot_carry_is_a_usage_error(tmp_path, capsys, monkeypatch, argv,
                                                       option, noise):
    # a level whose data measure delta = 0 (the noise is lost in the rounding
    # of y*) or one that is not finite: a usage error naming the option, after
    # the mesh is built but before any run, not a run to max-iterations or a
    # traceback
    from bouligand_landweber import experiments

    monkeypatch.setattr(experiments, "run", lambda *a, **k: pytest.fail("ran"))
    command, *flags = argv
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--n", "9", *flags, "--out", str(tmp_path / "out.csv")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: delta of {noise} on the n_h=9 data must be finite" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,message",
    [
        (["invert", "--n", "nine", "--delta-target", "1e-2"], "--n: invalid int value: 'nine'"),
        (["table", "--n", "9", "--deltas", " , "], "--deltas: needs at least one value"),
    ],
    ids=["not-an-int", "empty-list"],
)
def test_unreadable_value_is_usage_error(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(tmp_path / "out.csv")])
    assert exit_info.value.code == 2
    assert f"error: argument {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines,argv,named",
    [
        (["--start=warm"], ["table", "--n", "9"], "--start"),
        ([], ["table", "--n", "9", "--start", "warm"], "--start"),
        ([], ["invert", "--n", "9", "--delta-target", "1e-2", "--tau", "nan"], "tau"),
        (["--tau=nan"], ["invert", "--n", "9", "--delta-target", "1e-2"], "tau"),
        ([], ["invert", "--n", "9", "--delta-target", "nan"], "--delta-target"),
        (["--delta-target", "nan"], ["invert", "--n", "9"], "--delta-target"),
        ([], ["table", "--n", "9", "--deltas", "1e-2,nan"], "--deltas"),
        ([], ["verify", "--oracle-trials", "0"], "--oracle-trials"),
        (["--adjoint-trials=0"], ["verify"], "--adjoint-trials"),
        ([], ["verify", "--tcc-pairs", "0"], "--tcc-pairs"),
        ([], ["verify", "--suite", "tcc", "--tcc-radius", "0"], "--tcc-radius"),
        ([], ["verify", "--oracle-sizes", "3,8"], "--oracle-sizes"),
        ([], ["noise-free", "--n", "2"], "--n"),
        ([], ["invert", "--n", "9", "--delta-target", "1e-2", "--lbar", "1e200"], "lbar"),
        ([], ["invert", "--n", "9", "--delta-target", "1e-2", "--lbar", "1e-200"], "lbar"),
        (
            [],
            ["invert", "--n", "9", "--delta-target", "1e-2", "--mu", "0.9999999999999999",
             "--lbar", "1.34e154"],
            "mu and lbar",
        ),
        ([], ["invert", "--n", "9", "--delta-target", "1e-2", "--lbar", "1e-160"], "mu and lbar"),
        (["--suite=stability"], ["verify"], "--suite"),
    ],
    ids=[
        "config-start",
        "flag-start",
        "flag-tau",
        "config-tau",
        "flag-delta-target",
        "config-delta-target",
        "flag-deltas",
        "flag-oracle-trials",
        "config-adjoint-trials",
        "flag-tcc-pairs",
        "flag-tcc-radius",
        "flag-oracle-sizes",
        "flag-n",
        "flag-lbar-square-overflows",
        "flag-lbar-square-underflows",
        "flag-step-underflows",
        "flag-step-overflows",
        "config-suite",
    ],
)
def test_bad_value_is_usage_error(tmp_path, capsys, monkeypatch, lines, argv, named):
    # "config-*" cases read the bad value from an @file
    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built for a bad value")

    monkeypatch.setattr(ForwardProblem, "build", no_build)
    command, *flags = argv
    opts = [_options_file(tmp_path, lines)] if lines else []
    with pytest.raises(SystemExit) as exit_info:
        main([command, *opts, *flags, "--out", str(tmp_path / "out.csv")])
    assert exit_info.value.code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "directory,reason", [(False, "No such file"), (True, "Is a directory")],
    ids=["missing", "directory"],
)
def test_bad_config_file_is_usage_error(tmp_path, capsys, directory, reason):
    opts = tmp_path / "opts"
    if directory:
        opts.mkdir()
    with pytest.raises(SystemExit) as exit_info:
        main(["table", f"@{opts}", "--n", "9", "--out", str(tmp_path / "t.csv")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert str(opts) in err and reason in err


@pytest.mark.parametrize(
    "text",
    ["--n=9\n\n--iters=1\n--start=zero\n", "--n=9\n--iters=1\n--start=zero\n\n"],
    ids=["blank-line-inside", "two-trailing-newlines"],
)
def test_blank_lines_in_options_file_are_skipped(tmp_path, text):
    opts = tmp_path / "opts.txt"
    opts.write_text(text)
    assert main(["noise-free", f"@{opts}", "--out", str(tmp_path / "r.csv")]) == 0
    assert len(RunRecord.load(tmp_path / "r").residual_norms) == 2


@pytest.mark.parametrize("role", ["state", "data"])
def test_forward_source_of_another_role_is_usage_error(tmp_path, capsys, role):
    mesh = build_mesh(9)
    src = tmp_path / f"{role}.csv"
    write_grid_function(src, GridFunction(mesh, np.ones(mesh.n_interior), role))
    with pytest.raises(SystemExit) as exit_info:
        main(["forward", "--n", "9", "--source", str(src), "--out", str(tmp_path / "o.csv")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--source" in err and str(src) in err and f"role={role}" in err
    assert not (tmp_path / "o.csv").exists()
