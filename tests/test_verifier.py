"""Unit tests for the grid verifier."""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import integrate

from calx.calibration_fields import (
    CalibParams1D,
    PiecewiseField,
    build_field_1d,
    build_field_ball_harmonic,
    build_field_indicator_const,
)
from calx.potentials import delta_robin
from calx.verifier import (
    CalibratedFunction,
    VerificationReport,
    VerifyConfig,
    calibrated_function_for,
    check_condition_a,
    check_condition_b,
    check_divergence_and_flux,
    perturb_phi_t,
    verify_all,
)

GAMMA_EL_SQ_2_2_2 = 0.21078627566065199313129689492651333031406165486519


def ball_field():
    return build_field_ball_harmonic(2, 2.0, math.sqrt(GAMMA_EL_SQ_2_2_2), 2.0)


def limit_field():
    return build_field_1d(CalibParams1D.from_traces(0.25, 1.0, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(pos_res=4)
    with pytest.raises(ValueError):
        VerifyConfig(tol_a=0.0)
    with pytest.raises(ValueError):
        VerifyConfig(divergence_mode="magic")
    with pytest.raises(ValueError):
        VerifyConfig(axioms=("a", "c"))
    with pytest.raises(ValueError):
        VerifyConfig(threads=0)
    cfg = VerifyConfig(pos_res=32.0)
    assert cfg.pos_res == 32 and isinstance(cfg.pos_res, int)


def test_calibrated_function_for_each_kind():
    field = limit_field()
    cal = calibrated_function_for(field)
    assert cal.jumps == ()
    assert cal.gamma_sq == 0.0
    assert cal.value(0.4) == pytest.approx(0.55)
    assert cal.grad(0.4) == pytest.approx(0.75)

    field = build_field_indicator_const(2, 0.3, 0.4)
    cal = calibrated_function_for(field)
    assert cal.jumps == ((1.0, 0.0, 1.0, -1.0),)
    assert cal.gamma_sq == pytest.approx(0.16)
    assert cal.value(2.0) == 0.0

    field = ball_field()
    cal = calibrated_function_for(field)
    dR = delta_robin(2, 2.0, 2.0)
    assert len(cal.jumps) == 1
    jpos, lo, hi, nu = cal.jumps[0]
    assert jpos == 2.0 and lo == 0.0 and nu == -1.0
    assert hi == pytest.approx(dR, abs=1e-15)
    assert cal.value(1.0) == pytest.approx(1.0)
    assert cal.value(3.0) == 0.0
    assert cal.grad(3.0) == 0.0


def test_verify_all_runs_only_requested_axioms():
    field = limit_field()
    cfg = VerifyConfig(pos_res=32, t_res=32, pair_res=32, axioms=("a",))
    report = verify_all(field, config=cfg)
    assert set(report.results) == {"a"}
    assert report.passed


def test_condition_a_margin_is_tight_on_the_saturating_band():
    # the graph band realizes equality in the pointwise inequality, so
    # the worst margin sits at zero up to rounding
    field = limit_field()
    cfg = VerifyConfig(pos_res=64, t_res=64)
    result = check_condition_a(field, field.gamma_sq_term, cfg)
    assert result.status == "pass"
    assert -1e-12 <= result.worst_margin <= 1e-12


def test_condition_b_threads_agree():
    field = ball_field()
    cfg1 = VerifyConfig(pos_res=48, t_res=48, pair_res=48, threads=1)
    cfg2 = VerifyConfig(pos_res=48, t_res=48, pair_res=48, threads=2)
    r1 = check_condition_b(field, 2.0, cfg1)
    r2 = check_condition_b(field, 2.0, cfg2)
    assert r1.status == r2.status == "pass"
    assert r1.worst_margin == r2.worst_margin
    assert r1.n_violations == r2.n_violations


def test_psi_antiderivative_matches_quadrature():
    rng = np.random.default_rng(11)
    for field in (limit_field(), ball_field()):
        lo, hi = field.pos_range
        for _ in range(12):
            pos = float(rng.uniform(lo + 1e-3, hi - 1e-3))
            t1, t2 = np.sort(rng.uniform(0.0, field.t_max, size=2))

            def integrand(t):
                psi, _ = field.evaluate(pos, t)
                return psi

            expected, err = integrate.quad(integrand, t1, t2, limit=200)
            got = field.Psi(pos, t2) - field.Psi(pos, t1)
            assert abs(got - expected) < 1e-9 + 10.0 * err


def test_grid_doubling_keeps_the_verdict():
    field = ball_field()
    for res in (64, 128):
        cfg = VerifyConfig(pos_res=res, t_res=res, pair_res=res)
        report = verify_all(field, config=cfg)
        assert report.passed, report.summary_table()


def test_divergence_modes_agree_on_a_smooth_field():
    field = build_field_indicator_const(2, 0.3, 0.4)
    for mode in ("auto", "fd"):
        cfg = VerifyConfig(pos_res=64, t_res=64, pair_res=64,
                           divergence_mode=mode)
        report = verify_all(field, config=cfg)
        assert report.passed, (mode, report.summary_table())
        assert report.results["divflux"].meta["divergence_mode"] == mode


def test_auto_divergence_differences_regions_without_dpsi():
    # no builder leaves dpsi_dpos out, so drop it from one region by hand
    field = limit_field()
    cfg = VerifyConfig(pos_res=64, t_res=64, pair_res=64)

    def without_dpsi(name):
        return dataclasses.replace(field, regions=tuple(
            dataclasses.replace(r, dpsi_dpos=None) if r.name == name else r
            for r in field.regions))

    intact = check_divergence_and_flux(field, cfg)
    assert intact.status == "pass"
    # psi is constant in pos on the graph band, so the differences are
    # exact there; stencils that leave the band are skipped
    flat = check_divergence_and_flux(without_dpsi("graph-band"), cfg)
    assert flat.status == "pass"
    assert flat.meta["n_div_skipped"] > intact.meta["n_div_skipped"]
    # above the graph the differences carry the same error as in fd mode
    curved = check_divergence_and_flux(without_dpsi("above-graph"), cfg)
    fd = check_divergence_and_flux(field, dataclasses.replace(cfg, divergence_mode="fd"))
    assert curved.n_violations == fd.n_violations > 0
    assert curved.meta["div_worst"] == fd.meta["div_worst"]


def test_axioms_classify_each_grid_once(monkeypatch):
    field = ball_field()
    cfg = VerifyConfig(pos_res=32, t_res=32, pair_res=32)
    grid = cfg.pos_res * cfg.t_res
    passes = []
    sample = PiecewiseField._sample

    def counting(self, pos, t, *quantities):
        out = sample(self, pos, t, *quantities)
        passes.append(out[0].size)
        return out

    monkeypatch.setattr(PiecewiseField, "_sample", counting)
    # centre and both t-stencil sides; fd mode adds both pos-stencil sides
    check_divergence_and_flux(field, cfg)
    assert passes.count(grid) == 3
    passes.clear()
    check_divergence_and_flux(field, dataclasses.replace(cfg, divergence_mode="fd"))
    assert passes.count(grid) == 5

    # axiom (b) samples Psi once on the pos x pair grid: each region
    # predicate runs once, on the whole grid
    seen = []

    def counted(region):
        def contains(pos, t):
            seen.append((region.name, np.size(pos)))
            return region.contains(pos, t)
        return dataclasses.replace(region, contains=contains)

    field = dataclasses.replace(field, regions=tuple(counted(r) for r in field.regions))
    passes.clear()
    check_condition_b(field, 2.0, cfg)
    assert passes == [grid]
    assert seen == [(r.name, grid) for r in field.regions]


def test_perturbation_is_localized_to_one_node():
    field = ball_field()
    cfg = VerifyConfig(pos_res=128, t_res=128, axioms=("a",))
    assert verify_all(field, config=cfg).passed

    pos_nodes = np.linspace(1.0, 4.0, 128)
    t_nodes = np.linspace(0.0, 1.0, 128)
    pos0, t0 = float(pos_nodes[8]), float(t_nodes[89])
    bad = perturb_phi_t(field, pos0, t0, -2e-9,
                        pos_halfwidth=0.005, t_halfwidth=0.002)
    report = verify_all(bad, config=cfg)
    assert not report.passed
    violations = report.results["a"].violations
    assert len(violations) == 1
    assert violations[0].location == (pos0, t0)
    assert violations[0].residual == pytest.approx(-2e-9, rel=1e-3)


def test_perturbation_below_tolerance_stays_quiet():
    field = ball_field()
    cfg = VerifyConfig(pos_res=64, t_res=64, axioms=("a",), tol_a=1e-6)
    bad = perturb_phi_t(field, 1.2, 0.7, -2e-9, 0.05, 0.05)
    assert verify_all(bad, config=cfg).passed


def test_report_serialization_and_summary():
    field = limit_field()
    report = verify_all(field, config=VerifyConfig(pos_res=32, t_res=32,
                                                   pair_res=32))
    doc = json.loads(report.to_json())
    assert doc["field_kind"] == "1d"
    assert doc["passed"] is True
    assert set(doc["results"]) == {"a", "b", "a_prime", "b_prime", "divflux"}
    for entry in doc["results"].values():
        assert entry["status"] == "pass"
    table = report.summary_table()
    assert "overall: pass" in table
    for name in ("a", "b", "a_prime", "b_prime", "divflux"):
        assert name in table


def test_infeasible_report():
    report = VerificationReport.infeasible("certificate needs beta >= n - 1/2",
                                           kind="ball-harmonic")
    assert not report.passed
    assert report.violation_count() == 0
    assert "construction failed" in report.summary_table()
    doc = json.loads(report.to_json())
    assert doc["construction_error"].startswith("certificate needs")


def test_explicit_calibrated_function_overrides_default():
    field = limit_field()
    wrong = CalibratedFunction(
        value=lambda x: np.full_like(np.asarray(x, dtype=float), 0.9),
        grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        jumps=(), gamma_sq=0.0)
    cfg = VerifyConfig(pos_res=32, t_res=32, pair_res=32, axioms=("graph",))
    report = verify_all(field, calibrated=wrong, config=cfg)
    assert report.results["a_prime"].status == "fail"
    assert report.results["b_prime"].status == "pass"


def test_violation_listing_is_capped_in_json():
    field = build_field_ball_harmonic(2, 1.3, 0.62934651086470002, 1.08,
                                      enforce_beta=False)
    cfg = VerifyConfig(pos_res=128, t_res=128, pair_res=128, axioms=("b",))
    report = verify_all(field, config=cfg)
    assert not report.passed
    n = report.violation_count("b")
    assert n > 0
    doc = json.loads(report.to_json())
    assert doc["results"]["b"]["n_violations"] == n
    assert len(doc["results"]["b"]["violations"]) <= 50
