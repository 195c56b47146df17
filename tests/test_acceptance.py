"""Acceptance suite: the headline numerical claims, one test per criterion.

Each test prints a single PASS line with the measured figure so the
whole battery reads as a checklist in the pytest summary.
"""

import math
import time

import numpy as np
import pytest

from calx.calibration_fields import (
    CalibParams1D,
    HypothesisViolation,
    build_field_1d,
    build_field_ball_harmonic,
    build_field_indicator_const,
    build_field_indicator_two_piece,
    choose_lambda,
)
from calx.energy import (
    Competitor1D,
    RadialProfile,
    critical_radii,
    dE_dR,
    energy_1d,
    energy_radial_general,
    energy_radial_optimal,
)
from calx.oracle import oracle_1d_best, oracle_robin_shooting
from calx.potentials import delta_robin, lemma_gamma_bounds
from calx.verifier import VerifyConfig, perturb_phi_t, verify_all


def test_criterion_01_robin_trace_against_shooting():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.5, 5.0))
        R = 1.0 + float(rng.uniform(1e-3, 4.0))
        got = oracle_robin_shooting(n, beta, R)
        worst = max(worst, abs(got - delta_robin(n, beta, R)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 10.0
    print("criterion 1: PASS (max |closed form - shooting| = {:.3e} "
          "over 100 draws, {:.2f} s)".format(worst, elapsed))


def test_criterion_02_energy_consistency():
    rng = np.random.default_rng(7)
    deltas = np.linspace(1e-4, 1.0, 10_000)
    worst_grid = 0.0
    worst_fd = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.5, 5.0))
        gamma_ = float(rng.uniform(0.0, 1.0))
        R = float(rng.uniform(1.01, 5.0))
        opt = energy_radial_optimal(n, beta, gamma_, R)
        grid_min = min(
            energy_radial_general(RadialProfile(n, beta, gamma_, R,
                                                float(d))).total
            for d in deltas)
        rel = abs(grid_min - opt) / opt
        assert rel <= 1e-6
        # the scan can only sit above the exact optimum
        assert grid_min >= opt - 1e-12 * opt
        worst_grid = max(worst_grid, rel)

        exact = dE_dR(n, beta, gamma_, R)
        h = 1e-5 * R
        fd = (energy_radial_optimal(n, beta, gamma_, R + h)
              - energy_radial_optimal(n, beta, gamma_, R - h)) / (2.0 * h)
        rel_fd = abs(fd - exact) / abs(exact)
        assert rel_fd <= 1e-6
        worst_fd = max(worst_fd, rel_fd)
    print("criterion 2: PASS (grid-min rel err {:.3e}, dE/dR FD rel err "
          "{:.3e} over 50 triples)".format(worst_grid, worst_fd))


def test_criterion_03_energy_curve_features():
    Rs = np.linspace(1.0 + 1e-6, 10.0, 200_001)
    signs = np.sign(dE_dR(2, 1.0, 0.34, Rs))
    changes = int(np.count_nonzero(np.diff(signs) != 0))
    assert changes == 2
    roots = critical_radii(2, 1.0, 0.34)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(1.21447196960909539611985, abs=1e-8)
    assert roots[1] == pytest.approx(1.67947004206913789542485, abs=1e-8)

    roots1 = critical_radii(1, 2.0, 0.5)
    assert len(roots1) == 1
    assert roots1[0] == pytest.approx(2.5, abs=1e-9)
    print("criterion 3: PASS (two sign changes at R = {:.6f}, {:.6f}; "
          "unique root 2.5 within {:.1e})".format(
              roots[0], roots[1], abs(roots1[0] - 2.5)))


def test_criterion_04_one_dimensional_sharpness():
    start = time.perf_counter()

    best, energy = oracle_1d_best(0.0, 1.0, 1.0, resolution=1000)
    assert energy == pytest.approx(0.5, abs=1e-12)
    assert best.breakpoints == ()
    assert best.left_data == 0.0
    assert best.pieces == ((0.5, 0.5),)
    affine = Competitor1D.affine(0.0, 1.0, 0.0, 1.0,
                                 left_data=0.0, right_data=1.0)
    affine_energy = energy_1d(affine, 1.0).total
    assert affine_energy == pytest.approx(1.0, abs=1e-12)
    assert energy < affine_energy
    assert choose_lambda(0.0, 1.0, 1.0) is None
    with pytest.raises(HypothesisViolation):
        CalibParams1D.from_traces(0.0, 1.0, 1.0)

    best2, energy2 = oracle_1d_best(0.8, 1.0, 3.0, resolution=1000)
    assert best2.breakpoints == ()
    assert best2.trace_at_a() == pytest.approx(0.8)
    assert best2.trace_at_b() == pytest.approx(1.0)
    assert energy2 == pytest.approx(0.04, abs=1e-12)
    field = build_field_1d(CalibParams1D.from_traces(0.8, 1.0, 3.0))
    report = verify_all(field, config=VerifyConfig(pos_res=1000, t_res=1000,
                                                   pair_res=1000))
    assert report.passed
    assert report.violation_count() == 0

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print("criterion 4: PASS (jump competitor 0.5 < affine 1.0, multiplier "
          "infeasible; affine case calibrated with 0 violations, "
          "{:.1f} s)".format(elapsed))


def test_criterion_05_small_beta_certificate():
    worst_div = 0.0
    for n in (2, 3):
        field = build_field_indicator_const(n, 0.3, 0.4)
        cfg = VerifyConfig(pos_res=128, t_res=128, pair_res=128,
                           divergence_mode="fd", fd_step=1e-3, tol_div=1e-5)
        report = verify_all(field, config=cfg)
        assert report.passed, report.summary_table()
        div_worst = report.results["divflux"].meta["div_worst"]
        assert div_worst <= 1e-5
        worst_div = max(worst_div, div_worst)
    print("criterion 5: PASS (n = 2, 3 fields pass all axioms; worst FD "
          "divergence residual {:.3e} at h = 1e-3)".format(worst_div))


def test_criterion_06_monotonicity_certificate():
    field = build_field_indicator_two_piece(2, 1.0, 0.4)
    report = verify_all(field, config=VerifyConfig(pos_res=128, t_res=128,
                                                   pair_res=128))
    assert report.passed, report.summary_table()

    with pytest.raises(HypothesisViolation) as exc:
        build_field_indicator_two_piece(2, 1.0, 0.34)
    assert exc.value.location is not None
    assert 1.3 < exc.value.location < 1.6
    print("criterion 6: PASS (gamma = 0.4 certified; gamma = 0.34 fails "
          "with violating radius {:.5f} in (1.3, 1.6))".format(
              exc.value.location))


def test_criterion_07_layer_certificates():
    start = time.perf_counter()
    cfg = VerifyConfig(pos_res=128, t_res=128, pair_res=128)
    worst_flux = 0.0
    for n, beta, R in ((1, 2.0, 2.5), (2, 2.0, 2.0)):
        dR = delta_robin(n, beta, R)
        gamma_ = math.sqrt((beta ** 2 - (n - 1) * beta / R) * dR ** 2)
        field = build_field_ball_harmonic(n, beta, gamma_, R)
        report = verify_all(field, config=cfg)
        statuses = {k: r.status for k, r in report.results.items()}
        assert statuses == {"a": "pass", "b": "pass", "a_prime": "pass",
                            "b_prime": "pass", "divflux": "pass"}, statuses
        flux_worst = report.results["divflux"].meta["flux_worst"]
        assert flux_worst <= 1e-5
        worst_flux = max(worst_flux, flux_worst)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("criterion 7: PASS (n = 1 and n = 2 layer fields pass all five "
          "axiom groups; worst interface flux {:.3e}, {:.1f} s)".format(
              worst_flux, elapsed))


def test_criterion_08_jump_bound_needs_large_beta():
    n, beta, R = 2, 1.3, 1.08
    dR = delta_robin(n, beta, R)
    gamma_ = math.sqrt((beta ** 2 - (n - 1) * beta / R) * dR ** 2)
    field = build_field_ball_harmonic(n, beta, gamma_, R, enforce_beta=False)
    cfg = VerifyConfig(pos_res=128, t_res=128, pair_res=128, axioms=("b",))
    report = verify_all(field, config=cfg)
    result = report.results["b"]
    assert result.status == "fail"
    assert result.n_violations >= 1
    print("criterion 8: PASS (beta = 1.3 < 3/2 breaks the pair bound: "
          "{} violations, worst margin {:.3e})".format(
              result.n_violations, result.worst_margin))


def test_criterion_09_gamma_function_bounds():
    rng = np.random.default_rng(123)
    checked = 0
    for n in (2, 3, 4):
        ts = 1.0 + rng.uniform(1e-12, 99.0, size=10_000)
        for t in ts:
            flags = lemma_gamma_bounds(n, float(t))
            # the library slack (1e-12 relative) is tighter than the
            # 1e-10 the claim asks for, so all four parts must hold
            assert all(flags), (n, t, flags)
            checked += 1
    print("criterion 9: PASS (bounds (i)-(iv) hold at {} sampled points, "
          "n = 2, 3, 4)".format(checked))


def test_criterion_10_negative_control():
    n, beta, R = 2, 2.0, 2.0
    dR = delta_robin(n, beta, R)
    gamma_ = math.sqrt((beta ** 2 - (n - 1) * beta / R) * dR ** 2)
    field = build_field_ball_harmonic(n, beta, gamma_, R)
    cfg = VerifyConfig(pos_res=128, t_res=128, axioms=("a",))
    assert verify_all(field, config=cfg).passed

    pos_nodes = np.linspace(field.pos_range[0], field.pos_range[1], 128)
    t_nodes = np.linspace(0.0, field.t_max, 128)
    pos0, t0 = float(pos_nodes[8]), float(t_nodes[89])
    corrupted = perturb_phi_t(field, pos0, t0, -2e-9,
                              pos_halfwidth=0.005, t_halfwidth=0.002)
    report = verify_all(corrupted, config=cfg)
    assert not report.passed
    violations = report.results["a"].violations
    assert len(violations) == 1
    assert violations[0].location == (pos0, t0)
    print("criterion 10: PASS (planted defect at ({:.4f}, {:.4f}) is the "
          "single reported violation, residual {:.3e})".format(
              pos0, t0, violations[0].residual))
