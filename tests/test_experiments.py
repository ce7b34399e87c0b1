import os
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
    source_guess,
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
    # at (0.5, 0.25) both sine factors equal one, so u_bar = u* - 2 rho
    assert source_guess(0.5, 0.25, rho=5.0) == pytest.approx(
        exact_source(0.5, 0.25) - 10.0, rel=1e-14
    )


def test_exact_fields_roles(problem17):
    u_exact, y_exact, u_bar = exact_fields(problem17.mesh)
    assert u_exact.role == "source"
    assert y_exact.role == "state"
    assert u_bar.role == "source"
    with pytest.raises(ValueError, match="beta"):
        exact_fields(problem17.mesh, beta=0.7)


@pytest.mark.parametrize(
    "n_h, beta, rho",
    [(n_h, 0.005, 5.0) for n_h in (3, 4, 17, 129, 257, 1025)] + [(64, 0.1, 0.3)],
)
def test_exact_fields_match_interpolation(n_h, beta, rho):
    # broadcasting the axis coordinates gives the same bits as
    # interpolating each pointwise closed form on its own
    mesh = build_mesh(n_h)
    expected = (
        interpolate(mesh, lambda a, b: exact_source(a, b, beta)),
        interpolate(mesh, lambda a, b: exact_state(a, b, beta)),
        interpolate(mesh, lambda a, b: source_guess(a, b, beta, rho)),
    )
    for got, want in zip(exact_fields(mesh, beta, rho), expected):
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


def test_add_noise_zero_amplitude(problem17):
    _, y_exact, _ = exact_fields(problem17.mesh)
    y_noisy, delta = add_noise(y_exact, NoiseSpec(seed=1, mode="raw", value=0.0), problem17.M)
    assert delta == 0.0
    assert np.array_equal(y_noisy.values, y_exact.values)


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


def test_run_noise_free_rejects_unknown_start():
    with pytest.raises(ValueError, match="starting point"):
        run_noise_free(17, start="warm", iters=1)


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


def test_run_table_rejects_nonpositive_delta():
    with pytest.raises(ValueError, match="positive"):
        run_table(17, deltas=[1e-2, 0.0])


@pytest.mark.parametrize("seeds", [(1.7,), (0, -1), (True,)])
def test_run_table_rejects_bad_seed_before_any_cell(seeds, monkeypatch):
    # a seed is not rounded or cast, and the campaign fails before it builds anything
    from bouligand_landweber import experiments

    monkeypatch.setattr(experiments, "_campaign", lambda *a: pytest.fail("campaign built"))
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
    from bouligand_landweber import landweber

    def fail(*args, **kwargs):
        raise ConvergenceError("forced failure", residual=1.0)

    monkeypatch.setattr(landweber, "solve_forward", fail)
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


@pytest.mark.parametrize(
    "damage, message",
    [
        (_drop_rate_column, r"table\.csv: missing columns \['rate'\]"),
        (lambda text: text[: text.rindex(",0,")] + "\n", r"table\.csv, line 3: empty cell"),
        (lambda text: text.replace("0.01,", "abc,"), r"table\.csv, line 2: delta: could not"),
        (lambda text: text.replace(",7,", ",7.5,"), r"table\.csv, line 2: N: invalid literal"),
        (lambda text: text.replace("discrepancy", "bogus"), r"table\.csv, line 2: reason: must"),
        (lambda text: text.replace("\n", "\n\n", 1), r"table\.csv, line 2: blank line"),
    ],
    ids=["missing-column", "cut-row", "delta-text", "N-float", "reason-unknown", "blank-line"],
)
def test_read_table_csv_rejects_damaged_files(tmp_path, damage, message):
    path = write_table_csv(tmp_path / "table.csv", _TABLE_ROWS)
    path.write_text(damage(path.read_text()))
    with pytest.raises(ValueError, match=message):
        read_table_csv(path)


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
