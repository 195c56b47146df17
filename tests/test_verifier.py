"""Unit tests for the grid verifier."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from calx.calibration_fields import (
    CalibParams1D,
    PiecewiseField,
    build_field_1d,
    build_field_ball_harmonic,
    build_field_indicator_const,
)
from calx.potentials import delta_robin, robin_bracket
from calx.verifier import (
    CalibratedFunction,
    VerificationReport,
    Violation,
    VerifyConfig,
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
    cal = field.calibrated
    assert cal.jumps == ()
    assert cal.gamma_sq == 0.0
    assert cal.value(0.4) == pytest.approx(0.55)
    assert cal.grad(0.4) == pytest.approx(0.75)

    field = build_field_indicator_const(2, 0.3, 0.4)
    cal = field.calibrated
    assert cal.jumps == ((1.0, 0.0, 1.0, -1.0),)
    assert cal.gamma_sq == pytest.approx(0.16)
    assert cal.value(2.0) == 0.0

    field = ball_field()
    cal = field.calibrated
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


def reference_condition_b(pos, Psi, tg, beta, tol, max_recorded):
    """Axiom (b) by the full O(N^2) pair matrix of every fibre.

    Returns ``(n_violations, worst_margin, reduced_margin, violations)``;
    a fibre with a non-finite sample counts once and makes the worst
    margin NaN.
    """

    worst = np.inf
    reduced_worst = np.inf
    count = 0
    kept = []
    bound = beta * (tg[None, :] ** 2 + tg[:, None] ** 2)
    iu = np.triu_indices(tg.size, k=1)
    for p, vals in zip(pos, Psi):
        room = max(max_recorded - len(kept), 0)
        if not np.isfinite(vals).all():
            count += 1
            worst = np.nan
            kept += [Violation("b", (float(p), float("nan"), float("nan")),
                               float("nan"), tol)][:room]
            continue
        margin = bound - np.abs(vals[None, :] - vals[:, None])
        tri = margin[iu]
        worst = min(worst, float(tri.min()))
        reduced = bound[0] - np.abs(vals - vals[0])
        reduced_worst = min(reduced_worst, float(reduced[1:].min()))
        bad = tri < -tol
        count += int(bad.sum())
        ii, jj = iu[0][bad], iu[1][bad]
        for k in np.argsort(tri[bad])[:room]:
            kept.append(Violation("b", (float(p), float(tg[ii[k]]), float(tg[jj[k]])),
                                  float(-tri[bad][k]), tol))
    margins = [None if np.isinf(x) else x for x in (worst, reduced_worst)]
    return count, margins[0], margins[1], kept


class RowsField:
    """Stand-in field whose ``Psi`` on the pos x pair grid is a given array."""

    def __init__(self, rows, t_max):
        self.rows = rows
        self.pos_range = (1.0, 2.0)
        self.t_max = t_max

    def Psi(self, P, T):
        assert P.shape == self.rows.shape
        return self.rows


@st.composite
def pair_scans(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P, N = draw(st.integers(16, 20)), draw(st.integers(16, 40))
    t_max = draw(st.sampled_from([0.5, 1.0, 3.0]))
    beta = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    tol = draw(st.sampled_from([1e-300, 1e-9, 1e-3, 0.2]))
    tg = np.linspace(0.0, t_max, N)
    rows = rng.normal(scale=draw(st.sampled_from([0.01, 1.0, 30.0])), size=(P, N))
    if draw(st.booleans()):
        # coarse values: many tied values and tied margins
        rows = np.round(rows * 2.0) / 2.0
    if draw(st.booleans()):
        rows += beta * tg ** 2 * rng.choice([-1.0, 0.0, 1.0], size=(P, 1))
    # pairs planted a few ulps from margin -tol
    for _ in range(draw(st.integers(0, 12))):
        f = rng.integers(P)
        r, c = sorted(rng.choice(N, size=2, replace=False))
        value = rows[f, r] + (beta * (tg[c] ** 2 + tg[r] ** 2) + tol)
        for _ in range(abs(int(rng.integers(-4, 5)))):
            value = np.nextafter(value, np.inf if rng.integers(2) else -np.inf)
        rows[f, c] = value
    if draw(st.booleans()):
        rows[rng.integers(P), rng.integers(N)] = rng.choice([np.nan, np.inf, -np.inf])
    max_recorded = draw(st.sampled_from([1, 3, 17, 60, 10000]))
    return rows, t_max, beta, tol, max_recorded


@settings(max_examples=150, deadline=None)
@given(pair_scans())
def test_condition_b_matches_the_full_pair_scan(scan):
    rows, t_max, beta, tol, max_recorded = scan
    cfg = VerifyConfig(pos_res=rows.shape[0], pair_res=rows.shape[1], tol_b=tol,
                       max_recorded=max_recorded)
    got = check_condition_b(RowsField(rows, t_max), beta, cfg)
    pos = np.linspace(1.0, 2.0, rows.shape[0])
    tg = np.linspace(0.0, t_max, rows.shape[1])
    count, worst, reduced, kept = reference_condition_b(pos, rows, tg, beta, tol, max_recorded)
    assert got.n_violations == count
    assert got.status == ("pass" if count == 0 else "fail")
    assert repr(got.worst_margin) == repr(worst)
    assert repr(got.meta["reduced_margin"]) == repr(reduced)
    assert [repr(v) for v in got.violations] == [repr(v) for v in kept]


def test_condition_b_matches_the_full_pair_scan_on_a_failing_ball():
    # criterion 8: beta below n - 1/2 breaks axiom (b) on many fibres
    field = build_field_ball_harmonic(2, 1.3, 0.62934651086470002, 1.08,
                                      enforce_beta=False)
    cfg = VerifyConfig(pos_res=128, t_res=128, pair_res=128, max_recorded=20)
    got = check_condition_b(field, 1.3, cfg)
    pos = np.linspace(*field.pos_range, 128)
    tg = np.linspace(0.0, field.t_max, 128)
    Psi = field.Psi(*np.meshgrid(pos, tg, indexing="ij"))
    count, worst, reduced, kept = reference_condition_b(pos, Psi, tg, 1.3, cfg.tol_b, 20)
    assert got.n_violations == count == 52
    assert got.worst_margin == worst < 0.0
    assert got.meta["reduced_margin"] == reduced
    assert [repr(v) for v in got.violations] == [repr(v) for v in kept]


def test_nonfinite_samples_fail_with_a_nan_margin():
    # R = 1e300 overflows the shell potentials on one fibre (`calx check`
    # rejects that radius as a usage error; the builder takes it)
    with np.errstate(all="ignore"):
        field = build_field_ball_harmonic(2, 2.0, math.sqrt(robin_bracket(2, 2.0, 1e300)), 1e300)
        report = verify_all(field, config=VerifyConfig(pos_res=64, t_res=64, pair_res=64))
    doc = json.loads(report.to_json())
    assert not report.passed
    b = doc["results"]["b"]
    assert b["status"] == "fail" and b["n_violations"] == 1
    assert math.isnan(b["worst_margin"])
    assert b["violations"][0]["location"][0] == 1.0
    for entry in doc["results"].values():
        if entry["status"] == "fail":
            assert not entry["worst_margin"] >= 0.0

    field = limit_field()
    bad = dataclasses.replace(field, phi_t_bump=(0.5, 0.5, np.nan, 0.01, 0.01))
    result = check_condition_a(bad, 0.0, VerifyConfig(pos_res=64, t_res=64))
    assert result.status == "fail" and result.n_violations > 0
    assert math.isnan(result.worst_margin)


@pytest.mark.parametrize("case, axiom, part", [
    ("NaN at a grid node", "divflux", "bounded"),
    ("NaN at a stencil point only", "divflux", "div"),
    ("NaN jump end", "b_prime", "b_prime"),
    ("+inf at a grid node", "a", "a"),
])
def test_nonfinite_divergence_and_jump_samples_fail_with_a_nan_margin(case, axiom, part):
    field = build_field_indicator_const(2, 0.3, 0.4)
    cfg = VerifyConfig(pos_res=32, t_res=32, pair_res=32)
    pos = np.linspace(*field.pos_range, 32)
    t = np.linspace(0.0, field.t_max, 32)
    calibrated = None
    if case == "NaN jump end":
        calibrated = dataclasses.replace(field.calibrated, jumps=((1.0, 0.0, np.nan, -1.0),))
    else:
        # phi_t is bumped at one grid node, or only where the t stencil of that node reads
        t0 = t[7] + (cfg.fd_step if case == "NaN at a stencil point only" else 0.0)
        amount = np.inf if case.startswith("+inf") else np.nan
        field = perturb_phi_t(field, pos[5], t0, amount, 1e-6, 1e-6)
    report = verify_all(field, calibrated, cfg)
    result = report.results[axiom]
    assert result.status == "fail" and result.n_violations == 1
    assert math.isnan(result.worst_margin)
    assert result.violations[0].axiom == part
    assert math.isnan(result.violations[0].residual)
    assert report.passed is False


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


@pytest.mark.xfail(strict=True, reason="known defect: the fixed offset 1e-9 in t misreads "
                   "the graph flux by (1e-9 K(r))^2 near r = 1, where K(r) ~ 1/(r - 1)")
def test_ball_flux_checks_out_near_the_unit_sphere():
    # R - 1 = 2e-4: the first graph point lies 2e-8 from r = 1, where K(r) ~ 5e7;
    # the flux residual there reads 2.6e-3 against tol_flux = 1e-5
    field = build_field_ball_harmonic(3, 2.921875, 1.640625, 1.0001973974490945)
    cfg = VerifyConfig(pos_res=64, t_res=64, pair_res=64)
    assert check_divergence_and_flux(field, cfg).status == "pass"
