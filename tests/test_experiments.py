import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bouligand_landweber import (
    ConvergenceError,
    NoiseSpec,
    add_noise,
    build_mesh,
    consistency_residuals,
    exact_fields,
    exact_source,
    exact_state,
    interpolate,
    m_norm,
    read_table_csv,
    run_noise_free,
    run_noisy,
    run_table,
    write_table_csv,
)

# L2 norm of the exact source over the unit square, computed once with
# scipy.integrate.dblquad at tolerance 1e-13 on the closed form
EXACT_SOURCE_L2_NORM = 1.4997031610560658


def test_exact_state_point_values():
    # sin(2 pi /4) = 1, so y*(0.5, 0.25) = 0.495^2 * (-0.495)^2 = 0.495^4
    assert exact_state(0.5, 0.25) == pytest.approx(0.495**4, rel=1e-14)
    assert exact_state(0.5, 0.75) == pytest.approx(-(0.495**4), rel=1e-14)


def test_exact_state_vanishes_off_strip():
    for x1 in (0.0, 0.003, 0.005, 0.9951, 1.0):
        assert exact_state(x1, 0.25) == 0.0


def test_source_guess_offset():
    # node (0.5, 0.25) of n_h = 5 has both sine factors equal to one, so u_bar = u* - 2 rho
    mesh = build_mesh(5)
    node = 1  # row-major: x2 = 0.25 is row 0, x1 = 0.5 is column 1
    x1, x2 = mesh.interior_coords()
    assert (x1[node], x2[node]) == (0.5, 0.25)
    u_exact, _, u_bar = exact_fields(mesh, rho=5.0)
    assert u_exact.values[node] == exact_source(0.5, 0.25)
    assert u_bar.values[node] == pytest.approx(exact_source(0.5, 0.25) - 10.0, rel=1e-14)


def test_exact_fields_roles(problem17):
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    assert u_exact.role == "source"
    assert y_exact.role == "state"
    assert u_bar.role == "source"


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"rho": True}, "^rho must be finite and positive, got True"),
        ({"rho": math.nan}, "^rho must be finite and positive, got nan"),
    ],
    ids=["rho-bool", "rho-nan"],
)
def test_exact_fields_rejects_bad_scalars(problem9, kwargs, message):
    # True would run as 1; a NaN rho would fail only later, in a field check that does not name it
    with pytest.raises(ValueError, match=message):
        exact_fields(problem9.mesh, **kwargs)


def _source_guess(x1, x2, rho):
    """u_bar = u* - 2 rho sin(pi x1) sin(2 pi x2), written out pointwise."""
    return exact_source(x1, x2) - 2.0 * rho * np.sin(np.pi * x1) * np.sin(2.0 * np.pi * x2)


@pytest.mark.parametrize(
    "n_h, rho",
    [(n_h, 5.0) for n_h in (3, 4, 17, 129, 257, 1025)] + [(64, 0.3)],
)
def test_exact_fields_match_interpolation(n_h, rho):
    # broadcasting the axis coordinates gives the same bits as
    # interpolating each pointwise closed form on its own
    mesh = build_mesh(n_h)
    expected = (
        interpolate(mesh, exact_source),
        interpolate(mesh, exact_state),
        interpolate(mesh, lambda a, b: _source_guess(a, b, rho)),
    )
    for got, want in zip(exact_fields(mesh, rho), expected):
        assert got.values.tobytes() == want.values.tobytes()


def test_discrete_source_norm_approaches_quadrature_oracle():
    mesh = build_mesh(129)
    from bouligand_landweber import assemble

    _, M, _ = assemble(mesh)
    u_exact, _, _ = exact_fields(mesh)
    assert m_norm(M, u_exact) == pytest.approx(EXACT_SOURCE_L2_NORM, abs=2e-2)


def test_starting_relative_error_matches_quadrature_oracle():
    # continuum value 5 / ||u*|| = 3.3340; the discrete value converges to it
    mesh = build_mesh(129)
    from bouligand_landweber import assemble

    _, M, _ = assemble(mesh)
    u_exact, _, u_bar = exact_fields(mesh)
    e0 = m_norm(M, u_exact.values - u_bar.values) / m_norm(M, u_exact)
    assert e0 == pytest.approx(5.0 / EXACT_SOURCE_L2_NORM, abs=2e-2)
    assert 3.30 <= e0 <= 3.40


def test_add_noise_zero_amplitude():
    # exact data is no noise (None in a campaign), not a level of 0: the
    # level is refused when the spec is made, so add_noise never sees it
    zero = r"^noise amplitude/target must be finite and positive, got -?0\.0$"
    for spec in ({"value": 0.0}, {"mode": "raw", "value": 0.0}, {"value": -0.0}):
        with pytest.raises(ValueError, match=zero):
            NoiseSpec(seed=1, **spec)


def test_noise_spec_takes_its_fields_by_keyword():
    with pytest.raises(TypeError):
        NoiseSpec(seed=0)  # a level has no default
    with pytest.raises(TypeError):
        NoiseSpec(0, "raw", 1e-3)


NOT_CARRIED = r"^delta of {mode} noise at level {level} on the n_h=9 data must be {rule}$"


@pytest.mark.parametrize(
    "mode,level,delta",
    [
        ("rescale", 1e-170, "0.0"),  # the noise is lost in the rounding of y*
        ("rescale", 1e-100, "0.0"),
        ("raw", 1e-100, "0.0"),
        ("raw", 1e300, "nan"),  # its M-norm overflows
        ("rescale", 1e300, "nan"),
        ("raw", 1.7e308, "nan"),  # the data themselves overflow
    ],
)
def test_add_noise_refuses_a_delta_of_zero_or_not_finite(problem9, mode, level, delta):
    _, y_exact, _ = exact_fields(problem9.mesh)
    rule = f"finite and positive, got {delta}"
    message = NOT_CARRIED.format(mode=mode, level=re.escape(repr(level)), rule=rule)
    with pytest.raises(ValueError, match=message):
        add_noise(y_exact, NoiseSpec(seed=0, mode=mode, value=level), problem9.M)


def test_add_noise_rescale_hits_target(problem17):
    _, y_exact, _ = exact_fields(problem17.mesh)
    for target in (1e-3, 2.5e-5):
        y_noisy, delta = add_noise(
            y_exact, NoiseSpec(seed=7, mode="rescale", value=target), problem17.M
        )
        assert delta == pytest.approx(target, rel=1e-15)
        assert m_norm(problem17.M, y_noisy.values - y_exact.values) == delta


def test_add_noise_deterministic(problem17):
    _, y_exact, _ = exact_fields(problem17.mesh)
    spec = NoiseSpec(seed=42, mode="raw", value=1e-3)
    y1, d1 = add_noise(y_exact, spec, problem17.M)
    y2, d2 = add_noise(y_exact, spec, problem17.M)
    assert d1 == d2
    assert np.array_equal(y1.values, y2.values)
    assert y1.role == "data"


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(seed=0, mode="additive", value=1.0)
    with pytest.raises(ValueError):
        NoiseSpec(seed=0, mode="raw", value=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_noise_spec_rejects_non_finite(value):
    with pytest.raises(ValueError, match="noise amplitude/target must be finite"):
        NoiseSpec(seed=0, mode="rescale", value=value)


@pytest.mark.parametrize("value", [True, np.bool_(True), "1e-2", None])
def test_noise_spec_rejects_a_value_that_is_not_a_real_number(value):
    # a bool is an int to Python; stored, True would be a target of 1.0
    with pytest.raises(ValueError, match="noise amplitude/target must be finite and positive, got"):
        NoiseSpec(seed=0, mode="rescale", value=value)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(False), "3", None])
def test_noise_spec_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        NoiseSpec(seed=seed, mode="rescale", value=1e-2)


def test_noise_spec_stores_seed_as_int():
    spec = NoiseSpec(seed=np.int64(3), mode="rescale", value=1e-2)
    assert type(spec.seed) is int and spec.seed == 3


def test_consistency_residual_decays():
    # scaled-down refinement study; the campaign asserts the full ladder
    r = consistency_residuals([17, 33, 65])
    assert r[33] / r[17] <= 0.6
    assert r[65] / r[33] <= 0.6


def test_run_noise_free_zero_start_initial_error():
    record = run_noise_free(17, start="zero", iters=2)
    assert record.rel_errors[0] == 1.0
    assert record.reason == "max-iterations"


def test_run_noise_free_zero_iters():
    # only the start is evaluated: one forward solve, no step taken
    record = run_noise_free(17, start="source", iters=0)
    assert len(record.rel_errors) == 1
    assert len(record.residual_norms) == 1
    assert len(record.ssn_counts) == 1
    assert record.stopping_index == 0
    assert record.reason == "max-iterations"
    _, _, u_bar = exact_fields(build_mesh(17))
    assert np.array_equal(record.final.values, u_bar.values)


def test_run_noise_free_source_start_converges_fast():
    # the coarse mesh bottoms out near its discretization floor around n=23,
    # after which the error rises again; stay in the decreasing phase here
    # (the campaign asserts the 1e-3 bar at n_h=129)
    record = run_noise_free(65, start="source", iters=18)
    assert record.rel_errors[0] == pytest.approx(3.34, abs=0.05)
    assert record.rel_errors[-1] < 2e-2
    assert np.all(np.diff(record.rel_errors) <= 1e-12)


def _fail_on_build(monkeypatch):
    """Make every ForwardProblem.build fail the test."""
    from bouligand_landweber import ForwardProblem

    monkeypatch.setattr(ForwardProblem, "build", staticmethod(lambda *a: pytest.fail("built")))


UNKNOWN_START = r"^unknown starting point 'warm', expected 'zero' or 'source'$"


def test_run_noise_free_rejects_unknown_start(monkeypatch):
    # checked when the setup is made, before anything is built
    _fail_on_build(monkeypatch)
    with pytest.raises(ValueError, match=UNKNOWN_START):
        run_noise_free(17, start="warm", iters=1)


def test_run_noisy_rejects_unknown_start(monkeypatch):
    _fail_on_build(monkeypatch)
    with pytest.raises(ValueError, match=UNKNOWN_START):
        run_noisy(17, NoiseSpec(seed=0, value=1e-2), start="warm")


def test_run_table_rejects_unknown_start(monkeypatch):
    _fail_on_build(monkeypatch)
    with pytest.raises(ValueError, match=UNKNOWN_START):
        run_table(17, [1e-2], start="warm")


@pytest.mark.parametrize("start", ["source", "zero"])
@pytest.mark.parametrize("rho", [None, 0.3], ids=["default-rho", "rho-0.3"])
def test_setup_builds_the_problem_fields_and_start_of_the_parts(start, rho):
    # the problem, the exact fields and u0 of building each part alone, bit for bit
    from bouligand_landweber import ForwardProblem
    from bouligand_landweber.experiments import Setup

    rho_kwarg = {} if rho is None else {"rho": rho}  # without one, exact_fields' default
    problem, fields, u0 = Setup(17, start).build(**rho_kwarg)
    want = ForwardProblem.build(build_mesh(17))
    assert problem.mesh == want.mesh
    for name in ("A", "M"):
        got, expected = getattr(problem, name).tocsr(), getattr(want, name).tocsr()
        assert got.toarray().tobytes() == expected.toarray().tobytes()
    assert type(problem.D) is float and problem.D == want.D
    v = np.linspace(-1.0, 1.0, problem.mesh.m**2)
    assert problem.precond(v).tobytes() == want.precond(v).tobytes()
    want_fields = exact_fields(want.mesh, **rho_kwarg)
    for got, expected in zip(fields, want_fields, strict=True):
        assert (got.role, got.values.tobytes()) == (expected.role, expected.values.tobytes())
    expected_u0 = want_fields[2].values if start == "source" else np.zeros(problem.mesh.m**2)
    assert (u0.role, u0.values.tobytes()) == ("source", expected_u0.tobytes())


def test_run_table_builds_once(monkeypatch):
    # the cells of a campaign differ only in their noise: one build, one set of exact fields
    from bouligand_landweber import ForwardProblem, experiments

    calls = {"build": 0, "exact_fields": 0}
    build, fields = ForwardProblem.build, experiments.exact_fields

    def counting_build(mesh):
        calls["build"] += 1
        return build(mesh)

    def counting_fields(*args, **kwargs):
        calls["exact_fields"] += 1
        return fields(*args, **kwargs)

    monkeypatch.setattr(ForwardProblem, "build", staticmethod(counting_build))
    monkeypatch.setattr(experiments, "exact_fields", counting_fields)
    rows = run_table(17, [1e-2, 1e-3], seeds=(0, 1))
    assert len(rows) == 4
    assert calls == {"build": 1, "exact_fields": 1}


def test_run_table_rows():
    rows = run_table(33, deltas=[1e-2, 1e-3], seeds=[0, 1])
    assert len(rows) == 4
    for row in rows:
        assert row["reason"] == "discrepancy"
        assert row["N"] >= 0
        assert row["rel_error"] > 0
        assert row["rate"] == pytest.approx(
            row["rel_error"] * EXACT_SOURCE_L2_NORM / np.sqrt(row["delta"]), rel=0.05
        )
    # monotone stopping indices within one seed: larger delta stops no later
    for seed in (0, 1):
        ns = [row["N"] for row in rows if row["seed"] == seed]
        assert ns[0] <= ns[1]


def test_run_noisy_is_one_table_cell():
    [row] = run_table(33, deltas=[1e-2], seeds=[3])
    noise = NoiseSpec(seed=3, mode="rescale", value=1e-2)
    record = run_noisy(33, noise)
    assert record.delta == row["delta"]
    assert record.stopping_index == row["N"]
    assert record.rel_errors[-1] == row["rel_error"]
    assert record.total_ssn == row["ssn_total"]


def _recording_cells(monkeypatch):
    """The records of the cells run_table runs, in order, and counts of its Newton
    solves and of its forward solves from zero, the campaign's and the runs'."""
    from bouligand_landweber import experiments, forward, landweber

    records, counts = [], {"newton": 0, "cold": 0}
    run, solve_spd, solve_forward = experiments.run, forward.solve_spd, forward.solve_forward

    def recording_run(*args, **kwargs):
        records.append(run(*args, **kwargs))
        return records[-1]

    def counting_spd(*args, **kwargs):
        counts["newton"] += 1
        return solve_spd(*args, **kwargs)

    def counting_solve(problem, u, previous=None, tol=0.0):
        counts["cold"] += previous is None
        return solve_forward(problem, u, previous, tol)

    monkeypatch.setattr(experiments, "run", recording_run)
    monkeypatch.setattr(forward, "solve_spd", counting_spd)
    for module in (experiments, landweber):
        monkeypatch.setattr(module, "solve_forward", counting_solve)
    return records, counts


def test_run_table_solves_its_start_once(monkeypatch):
    # the four cells share F(u_bar): one cold solve, whose Newton steps the
    # first row counts, and every Newton step the campaign makes is counted
    # in one row's ssn_total
    records, counts = _recording_cells(monkeypatch)
    rows = run_table(33, [1e-2, 1e-3], seeds=(0, 1))
    assert counts["cold"] == 1
    assert sum(row["ssn_total"] for row in rows) == counts["newton"]
    assert [r.ssn_counts[0] for r in records[1:]] == [0, 0, 0]
    assert records[0].ssn_counts[0] >= 1


def test_table_cells_are_run_noisy_bit_for_bit(monkeypatch):
    # every cell keeps the record of its own run_noisy; a cell after the
    # first counts no Newton step at n = 0
    records, _ = _recording_cells(monkeypatch)
    rows = run_table(33, [1e-2, 1e-3], seeds=(0, 1))
    cells = records.copy()  # run_noisy records its run too
    for i, (row, record) in enumerate(zip(rows, cells, strict=True)):
        alone = run_noisy(33, NoiseSpec(seed=row["seed"], value=[1e-2, 1e-3][i % 2]))
        assert record.residual_norms.tobytes() == alone.residual_norms.tobytes()
        assert record.rel_errors.tobytes() == alone.rel_errors.tobytes()
        assert record.final.values.tobytes() == alone.final.values.tobytes()
        counts = alone.ssn_counts.tolist()
        assert record.ssn_counts.tolist() == (counts if i == 0 else [0, *counts[1:]])
        assert row["ssn_total"] == record.total_ssn


def test_run_table_solves_afresh_after_a_failed_start(monkeypatch):
    # the campaign's solve of u_bar fails: every cell solves it afresh and
    # keeps the record of its own run_noisy, counts included
    from bouligand_landweber import experiments, landweber

    solve_forward, cold = landweber.solve_forward, []

    def fail(*args, **kwargs):
        raise ConvergenceError("forced failure", residual=1.0)

    def counting_solve(problem, u, previous=None, tol=0.0):
        cold.append(previous is None)
        return solve_forward(problem, u, previous, tol)

    monkeypatch.setattr(experiments, "solve_forward", fail)
    monkeypatch.setattr(landweber, "solve_forward", counting_solve)
    rows = run_table(17, [1e-2, 1e-3, 1e-4], seeds=(0,))
    assert [row["reason"] for row in rows] == ["discrepancy"] * 3
    assert sum(cold) == 3  # each cell's own solve of u_bar
    monkeypatch.undo()
    for row, target in zip(rows, [1e-2, 1e-3, 1e-4]):
        assert row["ssn_total"] == run_noisy(17, NoiseSpec(seed=0, value=target)).total_ssn


def test_run_table_rejects_nonpositive_delta():
    with pytest.raises(ValueError, match="positive"):
        run_table(17, deltas=[1e-2, 0.0])


@pytest.mark.parametrize("deltas", [[True], [1e-2, np.bool_(True)]], ids=["bool", "numpy-bool"])
def test_run_table_rejects_a_bool_delta_before_any_cell(deltas, monkeypatch):
    # float(True) is 1.0: NoiseSpec's check comes before the conversion, and
    # before the campaign builds anything
    _fail_on_build(monkeypatch)
    with pytest.raises(ValueError, match="noise amplitude/target must be finite and positive, got"):
        run_table(9, deltas, seeds=(0,))


def _fail_on_run(monkeypatch):
    """Make every run of a campaign fail the test."""
    from bouligand_landweber import experiments

    monkeypatch.setattr(experiments, "run", lambda *a, **k: pytest.fail("ran"))


@pytest.mark.parametrize("deltas", [[1e-2, 1e-170], [1e-2, 1e300]], ids=["zero", "overflow"])
def test_run_table_refuses_a_level_its_data_cannot_carry_before_any_run(deltas, monkeypatch):
    # every cell's data is drawn before the first run: the second target's
    # refusal comes before the first cell's work
    _fail_on_run(monkeypatch)
    with pytest.raises(ValueError, match=r"^delta of rescale noise at level 1e[-+]\d+ on the "):
        run_table(9, deltas, seeds=(0,))


def test_run_noisy_refuses_a_level_its_data_cannot_carry_before_the_run(monkeypatch):
    _fail_on_run(monkeypatch)
    with pytest.raises(ValueError, match=r"^delta of raw noise at level 1e\+300 .* got nan$"):
        run_noisy(9, NoiseSpec(seed=1, mode="raw", value=1e300))


def test_run_table_takes_its_targets_from_any_iterable():
    rows = run_table(9, iter([1e-2, 1e-3]), seeds=(0, 1))
    assert [(row["seed"], row["delta"] > 5e-3) for row in rows] == [
        (0, True), (0, False), (1, True), (1, False)
    ]


@pytest.mark.parametrize(
    "campaign",
    [
        lambda cfg: run_noisy(9, NoiseSpec(seed=1, value=1e-2), cfg=cfg),
        lambda cfg: run_table(9, [1e-2], cfg=cfg),
        lambda cfg: run_noise_free(9, iters=3, cfg=cfg),
    ],
    ids=["run_noisy", "run_table", "run_noise_free"],
)
def test_campaigns_refuse_a_cfg_delta(campaign, monkeypatch):
    # every campaign takes delta from its data, so a cfg that sets it is
    # refused before anything is built instead of being replaced
    from bouligand_landweber import LandweberConfig

    _fail_on_build(monkeypatch)
    with pytest.raises(
        ValueError, match=r"^cfg\.delta is 0\.5, but the campaign takes delta from its data$"
    ):
        campaign(LandweberConfig(delta=0.5))


def test_run_noise_free_refuses_a_cfg_max_iter(monkeypatch):
    # the run makes `iters` steps, so a cfg that sets max_iter is refused
    from bouligand_landweber import LandweberConfig

    _fail_on_build(monkeypatch)
    with pytest.raises(
        ValueError, match=r"^cfg\.max_iter is 1, but the campaign makes `iters` steps$"
    ):
        run_noise_free(9, iters=3, cfg=LandweberConfig(max_iter=1))


@pytest.mark.parametrize("seeds", [(1.7,), (0, -1), (True,)])
def test_run_table_rejects_bad_seed_before_any_cell(seeds, monkeypatch):
    # a seed is not rounded or cast, and the campaign fails before it builds anything
    _fail_on_build(monkeypatch)
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        run_table(17, deltas=[1e-2], seeds=seeds)


def test_table_csv_roundtrip(tmp_path):
    rows = run_table(33, deltas=[1e-2], seeds=[3])
    path = write_table_csv(tmp_path / "table.csv", rows)
    back = read_table_csv(path)
    assert len(back) == 1
    for key in ("delta", "rel_error", "rate"):
        assert back[0][key] == rows[0][key]  # 17 significant digits round-trip
    for key in ("seed", "N", "ssn_total", "reason"):
        assert back[0][key] == rows[0][key]
    header = path.read_text().splitlines()[0]
    assert header == "delta,seed,N,rel_error,rate,ssn_total,reason"


def test_table_csv_keeps_forward_failure_row(tmp_path, monkeypatch):
    # the campaign's solve of u0 fails, and so does the cell's own
    from bouligand_landweber import experiments, landweber

    def fail(*args, **kwargs):
        raise ConvergenceError("forced failure", residual=1.0)

    for module in (experiments, landweber):
        monkeypatch.setattr(module, "solve_forward", fail)
    rows = run_table(9, deltas=[1e-2], seeds=[4])
    row = rows[0]
    assert (row["N"], row["ssn_total"], row["reason"]) == (-1, 0, "forward-failure")
    assert np.isnan(row["rel_error"]) and np.isnan(row["rate"])
    back = read_table_csv(write_table_csv(tmp_path / "table.csv", rows))
    assert len(back) == 1
    assert np.isnan(back[0]["rel_error"]) and np.isnan(back[0]["rate"])
    for key in ("delta", "seed", "N", "ssn_total", "reason"):
        assert back[0][key] == row[key]


_TABLE_ROWS = [
    {"delta": 1e-2, "seed": 0, "N": 7, "rel_error": 0.3, "rate": 4.8, "ssn_total": 19,
     "reason": "discrepancy"},
    {"delta": 1e-3, "seed": 0, "N": -1, "rel_error": np.nan, "rate": np.nan, "ssn_total": 0,
     "reason": "forward-failure"},
]


def _drop_rate_column(text):
    rows = [line.split(",") for line in text.splitlines()]
    return "".join(",".join(row[:4] + row[5:]) + "\n" for row in rows)


def _append_column(name, cell):
    """A damage that appends the column `name`, with `cell` in every row."""

    def damage(text):
        header, *rows = text.splitlines()
        return f"{header},{name}\n" + "".join(f"{row},{cell}\n" for row in rows)

    return damage


@pytest.mark.parametrize(
    "damage, message",
    [
        (_drop_rate_column, r"table\.csv: missing columns \['rate'\]"),
        (lambda text: text[: text.rindex(",0,")] + "\n", r"table\.csv, line 3: empty cell"),
        (lambda text: text.replace("0.01,", "abc,"), r"table\.csv, line 2: delta: could not"),
        (lambda text: text.replace(",7,", ",7.5,"), r"table\.csv, line 2: N: invalid literal"),
        (lambda text: text.replace("discrepancy", "bogus"), r"table\.csv, line 2: reason: must"),
        (lambda text: text.replace("\n", "\n\n", 1), r"table\.csv, line 2: blank line"),
        # rows that no campaign writes
        (lambda text: text.replace(",7,", ",-7,"),
         r"table\.csv, line 2: N: value must be an integer >= -1, got -7"),
        (lambda text: text.replace("forward-failure", "discrepancy"),
         r"table\.csv, line 3: N = -1 needs reason 'forward-failure'"),
        (lambda text: text.replace(",19,", ",-5,"),
         r"table\.csv, line 2: ssn_total: value must be an integer >= 0, got -5"),
        (lambda text: text.replace("0.01,", "0,"),
         r"table\.csv, line 2: delta: value must be finite and positive, got 0\.0"),
        (lambda text: text.replace("0.01,", "-0.01,"),
         r"table\.csv, line 2: delta: value must be finite and positive, got -0\.01"),
        (lambda text: text.replace("0.001,", "inf,"),
         r"table\.csv, line 3: delta: value must be finite and positive, got inf"),
        (lambda text: text.replace("0.001,", "nan,"),
         r"table\.csv, line 3: delta: value must be finite and positive, got nan"),
        (lambda text: text.replace("0.29999999999999999", "-0.3"),
         r"table\.csv, line 2: rel_error: value must not be negative, got -0\.3"),
        (lambda text: text.replace("4.7999999999999998", "-1.0"),
         r"table\.csv, line 2: rate: value must not be negative, got -1\.0"),
        (lambda text: text.replace("0.29999999999999999", "nan"),
         r"table\.csv, line 2: rel_error must be nan exactly where N = -1"),
        (lambda text: text.replace("4.7999999999999998", "nan"),
         r"table\.csv, line 2: rate must be nan exactly where N = -1"),
        (lambda text: text.replace("-1,nan,nan", "-1,0.5,nan"),
         r"table\.csv, line 3: rel_error must be nan exactly where N = -1"),
        (lambda text: text.replace("0.001,0,", "0.001,-1,"),
         r"table\.csv, line 3: seed: seed must be an integer >= 0, got -1"),
        (lambda text: text.replace("discrepancy", "discrepancy,999"),
         r"table\.csv, line 2: 8 cells for 7 columns"),
        (_append_column("bogus", "0"),
         r"table\.csv: unknown or repeated columns in the header \[.*'bogus'\]"),
        (_append_column("N", "7"),
         r"table\.csv: unknown or repeated columns in the header \[.*'N', .*'N'\]"),
    ],
    ids=[
        "missing-column", "cut-row", "delta-text", "N-float", "reason-unknown", "blank-line",
        "N-below-minus-one", "failed-cell-other-reason", "ssn-total-negative", "delta-zero",
        "delta-negative", "delta-inf", "delta-nan", "rel-error-negative", "rate-negative",
        "rel-error-nan-where-ran", "rate-nan-where-ran", "rel-error-where-failed",
        "seed-negative", "extra-cell", "unknown-column", "repeated-column",
    ],
)
def test_read_table_csv_rejects_damaged_files(tmp_path, damage, message):
    path = write_table_csv(tmp_path / "table.csv", _TABLE_ROWS)
    path.write_text(damage(path.read_text()))
    with pytest.raises(ValueError, match=message):
        read_table_csv(path)


def test_read_table_csv_reads_a_cell_that_ran_and_a_failed_cell(tmp_path):
    # the undamaged rows of the parametrization above: N = -1 with NaN error
    # and rate is a failed cell, and loads
    back = read_table_csv(write_table_csv(tmp_path / "table.csv", _TABLE_ROWS))
    assert back[0] == _TABLE_ROWS[0]
    assert (back[1]["N"], back[1]["reason"]) == (-1, "forward-failure")
    assert np.isnan(back[1]["rel_error"]) and np.isnan(back[1]["rate"])


_RECORD_SCRIPT = """
import sys
import numpy as np
from bouligand_landweber import run_noise_free
record = run_noise_free(129, "zero", 10)
np.savez(sys.argv[1], residuals=record.residual_norms, errors=record.rel_errors,
         final=record.final.values)
"""


def test_records_independent_of_blas_threads(tmp_path):
    # the solver's reductions must not depend on how BLAS splits its work
    src = str(Path(__file__).resolve().parents[1] / "src")
    records = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.npz"
        subprocess.run(
            [sys.executable, "-c", _RECORD_SCRIPT, str(out)], env=env, check=True, timeout=300
        )
        records.append(np.load(out))
    one, two = records
    for key in ("residuals", "errors", "final"):
        assert one[key].tobytes() == two[key].tobytes(), key
