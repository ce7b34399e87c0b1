"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the heavier campaigns (criteria 5-10) take a few minutes in total.
"""

from fractions import Fraction

import numpy as np
import pytest

from bouligand_landweber import (
    ForwardProblem,
    LandweberConfig,
    NoiseSpec,
    RunRecord,
    add_noise,
    brute_force_forward,
    build_mesh,
    check_parameters,
    consistency_residuals,
    exact_fields,
    m_inner,
    m_norm,
    run,
    run_noise_free,
    solve_forward,
    tcc_ratio,
)
from bouligand_landweber.bouligand import apply_subderivative, build_linearized
from conftest import matched_pattern_pair

# nearest-delta reference values, starting point u_bar (source):
# delta -> final relative error
REFERENCE_ERRORS = {1e-2: 0.3038, 1e-3: 0.0276, 1e-4: 0.00268, 1e-5: 0.00068}

DELTAS = (1e-2, 1e-3, 1e-4, 1e-5)
SEEDS = (0, 1, 2)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def campaign_records():
    """Criterion 8 runs: n_h=257, start u_bar, rescale noise, 3 seeds x 4 deltas."""
    problem = ForwardProblem.build(build_mesh(257))
    u_exact, y_exact, u_bar = exact_fields(problem.mesh)
    records = {}
    for seed in SEEDS:
        for target in DELTAS:
            y_noisy, delta = add_noise(
                y_exact, NoiseSpec(seed=seed, mode="rescale", value=target), problem.M
            )
            cfg = LandweberConfig(delta=delta)
            records[(seed, target)] = run(problem, y_noisy, cfg, u_bar, u_exact)
    return records


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for n_h in (3, 4, 5):
        problem = ForwardProblem.build(build_mesh(n_h))
        rng = np.random.default_rng(n_h)
        for _ in range(100):
            u = rng.uniform(-1.0, 1.0, problem.mesh.n_interior)
            diff = np.max(
                np.abs(solve_forward(problem, u).y.values - brute_force_forward(problem, u).values)
            )
            worst = max(worst, diff)
    _report(1, worst <= 1e-10, f"SSN vs enumeration on n_h in (3,4,5), max diff {worst:.3e} <= 1e-10")


def test_criterion_2_hand_computed_scalar_cases():
    problem = ForwardProblem.build(build_mesh(3))
    y_pos = solve_forward(problem, np.array([1.0])).y.values[0]
    y_neg = solve_forward(problem, np.array([-1.0])).y.values[0]
    err = max(abs(y_pos - 0.125 / 4.25), abs(y_neg - (-0.125 / 4.0)))
    _report(2, err <= 1e-12, f"n_h=3 scalar solves, max error {err:.3e} <= 1e-12")


def test_criterion_3_m_self_adjointness():
    problem = ForwardProblem.build(build_mesh(65))
    M = problem.M
    rng = np.random.default_rng(65)
    n = problem.mesh.n_interior
    worst = 0.0
    for _ in range(50):
        u = rng.standard_normal(n) * rng.uniform(0.2, 3.0)
        op = build_linearized(problem, solve_forward(problem, u).y)
        h = rng.standard_normal(n)
        w = rng.standard_normal(n)
        gap = abs(
            m_inner(M, h, apply_subderivative(op, M, w).values)
            - m_inner(M, w, apply_subderivative(op, M, h).values)
        )
        worst = max(worst, gap / (m_norm(M, h) * m_norm(M, w)))
    _report(3, worst <= 1e-10, f"50 random triples at n_h=65, max relative asymmetry {worst:.3e} <= 1e-10")


def test_criterion_4_matched_pattern_linearization(problem33):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        u, u_hat = matched_pattern_pair(problem33, rng)
        worst = max(worst, tcc_ratio(problem33, u, u_hat).ratio)
    _report(4, worst <= 1e-9, f"50 matched-pattern pairs at n_h=33, max tcc ratio {worst:.3e} <= 1e-9")


def test_criterion_5_exact_pair_consistency():
    r = consistency_residuals([33, 65, 129, 257])
    ratios = [r[65] / r[33], r[129] / r[65], r[257] / r[129]]
    ok = max(ratios) <= 0.6 and r[257] <= 1e-3
    _report(
        5,
        ok,
        f"consistency residuals {[f'{r[n]:.3e}' for n in (33, 65, 129, 257)]}, "
        f"refinement ratios {[f'{q:.3f}' for q in ratios]} <= 0.6, r(257) <= 1e-3",
    )


def test_criterion_6_noise_free_source_start():
    record = run_noise_free(129, start="source", iters=50)
    errors = record.rel_errors
    hit = np.flatnonzero(errors < 1e-3)
    monotone = np.all(np.diff(errors) <= 1e-12)
    ok = hit.size > 0 and hit[0] <= 50 and monotone
    first = int(hit[0]) if hit.size else -1
    _report(
        6,
        ok,
        f"noise-free from u_bar at n_h=129: E_n < 1e-3 at n={first} (<= 50), "
        f"errors non-increasing to 1e-12 slack: {monotone}",
    )


def test_criterion_7_noise_free_zero_start():
    record = run_noise_free(129, start="zero", iters=500)
    res = record.residual_norms
    errors = record.rel_errors
    strictly_decreasing = np.all(np.diff(res) < 0.0)
    halved = errors[-1] <= errors[0] / 2.0
    err_monotone = np.all(np.diff(errors) <= 1e-12)
    _report(
        7,
        strictly_decreasing and halved and err_monotone,
        f"noise-free from zero at n_h=129, 500 steps: residuals strictly decreasing "
        f"{strictly_decreasing}, E_500={errors[-1]:.3e} <= E_0/2={errors[0] / 2:.3e}, "
        f"errors non-increasing {err_monotone}",
    )


def test_criterion_8_regularization_table(campaign_records):
    msgs = []
    ok = True

    # (a) every run stops by discrepancy within 100 steps
    stop_ok = all(
        rec.reason == "discrepancy" and rec.stopping_index <= 100
        for rec in campaign_records.values()
    )
    ok &= stop_ok
    max_n = max(rec.stopping_index for rec in campaign_records.values())
    msgs.append(f"(a) all stopped by discrepancy, max N={max_n} <= 100: {stop_ok}")

    # (b) stopping index non-increasing in delta per seed
    mono_ok = True
    for seed in SEEDS:
        ns = [campaign_records[(seed, d)].stopping_index for d in DELTAS]  # deltas decreasing
        mono_ok &= all(a <= b for a, b in zip(ns, ns[1:]))
    ok &= mono_ok
    msgs.append(f"(b) N non-increasing in delta per seed: {mono_ok}")

    # (c) median relative error within a factor 3 of the reference at each delta
    med_ok = True
    for d in DELTAS:
        med = float(np.median([campaign_records[(s, d)].rel_errors[-1] for s in SEEDS]))
        ref = REFERENCE_ERRORS[d]
        med_ok &= ref / 3.0 <= med <= ref * 3.0
        msgs.append(f"(c) delta={d:.0e}: median E={med:.3e}, reference {ref:.3e}")
    ok &= med_ok

    # (d) empirical rate in [0.1, 1.0] for delta <= 1e-4
    rate_ok = True
    for (seed, d), rec in campaign_records.items():
        if d > 1e-4:
            continue
        err_abs = rec.rel_errors[-1] * _exact_norm_257()
        rate = err_abs / np.sqrt(rec.delta)
        rate_ok &= 0.1 <= rate <= 1.0
    ok &= rate_ok
    msgs.append(f"(d) rates in [0.1, 1.0] for delta <= 1e-4: {rate_ok}")

    _report(8, ok, "; ".join(msgs))


_EXACT_NORM_CACHE = {}


def _exact_norm_257():
    if 257 not in _EXACT_NORM_CACHE:
        mesh = build_mesh(257)
        from bouligand_landweber import assemble

        _, M, _ = assemble(mesh)
        u_exact, _, _ = exact_fields(mesh)
        _EXACT_NORM_CACHE[257] = m_norm(M, u_exact)
    return _EXACT_NORM_CACHE[257]


def test_criterion_9_discrepancy_bit_exactness(campaign_records, tmp_path):
    ok = True
    for key, rec in campaign_records.items():
        base = tmp_path / f"run_{key[0]}_{key[1]:.0e}"
        rec.save(base)
        back = RunRecord.load(base)
        thr = back.tau * back.delta
        n = back.stopping_index
        ok &= back.residual_norms[n] <= thr
        ok &= bool(np.all(back.residual_norms[:n] > thr))
        ok &= back.check_discrepancy()
    _report(9, ok, f"stopping rule re-verified from {len(campaign_records)} serialized records")


def test_criterion_10_ssn_economy(campaign_records):
    means = [float(np.mean(rec.ssn_counts)) for rec in campaign_records.values()]
    ok = all(1.0 <= m <= 10.0 for m in means)
    _report(
        10,
        ok,
        f"mean SSN per Landweber step across runs in [{min(means):.2f}, {max(means):.2f}], "
        "required within [1, 10]",
    )


def test_criterion_11_parameter_check_arithmetic():
    cfg = LandweberConfig(mu=0.1, tau=1.4, lbar=0.05)
    res = check_parameters(cfg, L=0.05)
    choice_exact = float(
        2 * (Fraction(1, 10) + 1) / Fraction(7, 5) - (2 - Fraction(2, 10) - 720 * Fraction(1, 400))
    )
    aux_exact = float(-1 + Fraction(1, 10) + 5 * 720 * Fraction(1, 400))
    err = max(abs(res.choice - choice_exact), abs(res.choice_aux - aux_exact))
    ok = err <= 1e-12 and res.satisfied == (False, False)
    _report(
        11,
        ok,
        f"default experiment parameters give choice={res.choice:.13g} (=1.5714...), "
        f"choice_aux={res.choice_aux:.13g} (=8.1), both violated, max error {err:.2e} <= 1e-12",
    )
