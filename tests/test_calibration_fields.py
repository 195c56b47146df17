"""Unit tests for the piecewise calibration field constructions."""

import json
import math

import numpy as np
import pytest

from calx.calibration_fields import (
    CalibParams1D,
    HypothesisViolation,
    affine_profile,
    build_field_1d,
    build_field_ball_harmonic,
    build_field_harmonic,
    build_field_indicator_const,
    build_field_indicator_two_piece,
    choose_lambda,
    radial_shell_profile,
)
from calx.potentials import delta_robin, u_radial
from calx.verifier import (
    CalibratedFunction,
    VerifyConfig,
    check_graph_conditions,
    verify_all,
)

GAMMA_EL_SQ_2_2_2 = 0.21078627566065199313129689492651333031406165486519


def limit_params():
    # every derived quantity is a dyadic rational, so the equalities
    # below hold exactly in floating point
    return CalibParams1D.from_traces(0.25, 1.0, 1.0)


def test_affine_profile_endpoints_and_gradient():
    u = affine_profile(0.2, 0.8)
    assert u.value(0.0) == pytest.approx(0.2)
    assert u.value(1.0) == pytest.approx(0.8)
    assert u.grad_component(0.3) == pytest.approx(0.6)
    assert u.sup_grad == pytest.approx(0.6)
    assert u.grad_prime(0.5) == 0.0
    assert u.geometry == "interval"


def test_radial_shell_profile_matches_u_radial():
    n, beta, R = 2, 0.5, 2.0
    u = radial_shell_profile(n, beta, R)
    rs = np.linspace(1.0, R, 50)
    vals, grads = u_radial(n, beta, R, rs)
    assert np.max(np.abs(u.value(rs) - vals)) < 1e-14
    # grad_component is signed (u decreases outward)
    assert np.max(np.abs(np.abs(u.grad_component(rs)) - grads)) < 1e-14
    assert (u.grad_component(rs) < 0.0).all()
    assert u.m == pytest.approx(delta_robin(n, beta, R))
    assert u.M == 1.0
    h = 1e-6
    for r in (1.2, 1.7):
        fd = (u.grad_component(r + h) - u.grad_component(r - h)) / (2 * h)
        assert abs(u.grad_prime(r) - fd) < 1e-6


def test_choose_lambda_reference_cases():
    # m = 0 with a too-expensive jump: no multiplier can absorb it
    assert choose_lambda(0.0, 1.0, 1.0) is None
    # trace above the Robin value: no multiplier is needed
    assert choose_lambda(0.8, 1.0, 3.0) == 0.0
    # a constant profile needs nothing
    assert choose_lambda(0.0, 0.0, 2.0) == 0.0


def test_choose_lambda_budget_property():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m = float(rng.uniform(0.0, 1.0))
        M = float(rng.uniform(m, 1.0))
        beta0 = float(rng.uniform(0.1, 5.0))
        lam = choose_lambda(m, M, beta0)
        if lam is None:
            continue
        delta = M / (1.0 + beta0) if M > 0 else 0.0
        assert 0.0 <= lam <= beta0 + 1e-12
        assert lam * m <= M - m + 1e-9
        # the multiplier must absorb the worst-case jump integral
        integral = (M - m) ** 2 - (M - delta) ** 2
        assert integral <= beta0 * delta ** 2 + lam * m ** 2 + 1e-9


def test_params_limit_case_is_exactly_dyadic():
    p = limit_params()
    assert p.beta0 == 1.0
    assert p.lam == 1.0
    assert p.delta == 0.5
    assert p.tau == 0.75
    assert p.sigma == 0.25


def test_from_traces_reports_infeasible_jump_energy():
    with pytest.raises(HypothesisViolation) as exc:
        CalibParams1D.from_traces(0.0, 1.0, 1.0)
    assert "jump-energy test violated" in str(exc.value)
    assert "0.75 > 0.25" in str(exc.value)


def test_params_validation():
    with pytest.raises(ValueError):
        CalibParams1D(m=0.5, M=0.4, beta=1.0, beta0=1.0, lam=0.0)
    with pytest.raises(ValueError):
        CalibParams1D(m=0.1, M=0.9, beta=-1.0, beta0=1.0, lam=0.0)
    with pytest.raises(ValueError):
        CalibParams1D(m=0.1, M=0.9, beta=1.0, beta0=1.0, lam=5.0)


def test_field_1d_band_membership_and_values():
    field = build_field_1d(limit_params())
    names = field.region_names()
    # at pos = 0.4 the bands are cut at t = 0.25, 0.35 and the graph 0.55
    assert names[field.region_index(0.4, 0.10)] == "below-data"
    assert names[field.region_index(0.4, 0.30)] == "lower-band"
    assert names[field.region_index(0.4, 0.45)] == "graph-band"
    assert names[field.region_index(0.4, 0.70)] == "above-graph"

    psi, phi_t = field.evaluate(0.4, 0.10)
    assert (psi, phi_t) == (pytest.approx(-0.2), pytest.approx(0.0625))
    psi, phi_t = field.evaluate(0.4, 0.30)
    assert (psi, phi_t) == (pytest.approx(-0.5), pytest.approx(0.0625))
    psi, phi_t = field.evaluate(0.4, 0.45)
    assert (psi, phi_t) == (pytest.approx(1.5), pytest.approx(0.5625))
    psi, phi_t = field.evaluate(0.4, 0.70)
    assert (psi, phi_t) == (pytest.approx(1.0), pytest.approx(0.25))


def test_field_1d_graph_lands_in_the_saturating_band():
    field = build_field_1d(limit_params())
    names = field.region_names()
    u = field.profile.value
    for pos in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert names[field.region_index(pos, u(pos))] == "graph-band"
        psi, phi_t = field.evaluate(pos, u(pos))
        assert abs(psi - 2.0 * 0.75) < 1e-12
        assert abs(phi_t - 0.75 ** 2) < 1e-12


def test_field_1d_psi_antiderivative_properties():
    field = build_field_1d(limit_params())
    pos = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(field.Psi(pos, np.zeros_like(pos)))) == 0.0
    # continuity of Psi in t across every band interface
    for interface in field.interfaces:
        curve = interface.g(pos)
        above = field.Psi(pos, np.minimum(curve + 1e-12, field.t_max))
        below = field.Psi(pos, np.maximum(curve - 1e-12, 0.0))
        assert np.max(np.abs(above - below)) < 1e-10


def test_field_1d_jump_identity_is_exact_in_the_limit_case():
    field = build_field_1d(limit_params())
    # the competitor jumping from the datum 0.25 to 0.5 at pos = 0 pays
    # beta (m^2 + delta^2) = 0.3125, and the field flux matches exactly
    assert field.Psi(0.0, 0.5) - field.Psi(0.0, 0.25) == 0.3125


def test_limit_case_calibrates_both_minimizers():
    """One field certifies the affine minimizer and the jump minimizer."""
    field = build_field_1d(limit_params())
    config = VerifyConfig(pos_res=64, t_res=64, pair_res=64)

    report = verify_all(field, config=config)
    assert report.passed

    def jump_value(x):
        return 0.5 + 0.5 * np.asarray(x, dtype=float)

    def jump_grad(x):
        return np.full_like(np.asarray(x, dtype=float), 0.5)

    competitor = CalibratedFunction(
        value=jump_value, grad=jump_grad,
        jumps=((0.0, 0.25, 0.5, 1.0),), gamma_sq=0.0)
    a_prime, b_prime = check_graph_conditions(field, competitor, config)
    assert a_prime.status == "pass"
    assert b_prime.status == "pass"


def test_field_1d_rejects_other_intervals():
    with pytest.raises(ValueError):
        build_field_1d(limit_params(), interval=(0.0, 2.0))


def test_zero_multiplier_field_has_two_regions_active():
    # (beta=3, m=0.8, M=1): the trace lies above the Robin value, so the
    # template needs no multiplier and the lower bands collapse
    params = CalibParams1D.from_traces(0.8, 1.0, 3.0)
    assert params.lam == 0.0
    field = build_field_1d(params)
    psi, phi_t = field.evaluate(0.5, 0.1)
    assert psi == 0.0 and phi_t == 0.0
    report = verify_all(field, config=VerifyConfig(pos_res=48, t_res=48,
                                                   pair_res=48))
    assert report.passed


def test_harmonic_composition_verifies():
    n, beta, R = 2, 0.5, 2.0
    u = radial_shell_profile(n, beta, R)
    field = build_field_harmonic(u, u.m, u.M, beta)
    assert field.kind == "harmonic"
    assert field.geometry == "radial"
    report = verify_all(field, config=VerifyConfig(pos_res=48, t_res=48,
                                                   pair_res=48))
    assert report.passed


def test_harmonic_composition_rejects_mismatched_traces():
    u = radial_shell_profile(2, 0.5, 2.0)
    with pytest.raises(ValueError):
        build_field_harmonic(u, 0.1, 1.0, 0.5)


def test_indicator_const_field_values_and_hypothesis():
    field = build_field_indicator_const(2, 0.3, 0.4)
    psi, phi_t = field.evaluate(2.0, 0.5)
    assert abs(psi - (-2.0 * 0.3 * 0.5 / 2.0)) < 1e-15
    assert phi_t == 0.0
    assert field.gamma_sq_term == pytest.approx(0.16)
    with pytest.raises(HypothesisViolation):
        build_field_indicator_const(2, 0.5, 0.4)


def test_indicator_two_piece_membership_and_failure_location():
    field = build_field_indicator_two_piece(2, 1.0, 0.4)
    names = field.region_names()
    d = delta_robin(2, 1.0, 1.5)
    assert names[field.region_index(1.5, 0.5 * d)] == "below-trace"
    assert names[field.region_index(1.5, 2.0 * d)] == "above-trace"

    with pytest.raises(HypothesisViolation) as exc:
        build_field_indicator_two_piece(2, 1.0, 0.34)
    assert "monotonicity certificate fails" in str(exc.value)
    assert 1.3 < exc.value.location < 1.6


def test_ball_field_construction_guards():
    gam = math.sqrt(GAMMA_EL_SQ_2_2_2)
    with pytest.raises(ValueError):
        build_field_ball_harmonic(2, 2.0, gam, 0.8)
    # gamma off the critical-radius identity
    with pytest.raises(HypothesisViolation) as exc:
        build_field_ball_harmonic(2, 2.0, 0.3, 2.0)
    assert "critical-radius" in str(exc.value)
    # beta below the monotonicity threshold
    with pytest.raises(HypothesisViolation) as exc2:
        build_field_ball_harmonic(2, 1.3, 0.62934651086470002, 1.08)
    assert "beta >= n - 1/2" in str(exc2.value)
    field = build_field_ball_harmonic(2, 1.3, 0.62934651086470002, 1.08,
                                      enforce_beta=False)
    assert field.kind == "ball-harmonic"


@pytest.mark.parametrize("build", [
    lambda bad: build_field_indicator_const(2, bad, 0.4),
    lambda bad: build_field_indicator_const(2, 0.3, bad),
    lambda bad: build_field_indicator_two_piece(2, bad, 0.4),
    lambda bad: build_field_indicator_two_piece(2, 1.0, bad),
    lambda bad: build_field_ball_harmonic(2, bad, 0.4, 2.0),
    lambda bad: build_field_ball_harmonic(2, 2.0, bad, 2.0),
    lambda bad: build_field_ball_harmonic(2, 2.0, 0.4, bad),
    lambda bad: radial_shell_profile(2, bad, 2.0),
    lambda bad: radial_shell_profile(2, 0.5, bad),
])
def test_builders_reject_nan_parameters(build):
    with pytest.raises(ValueError):
        build(float("nan"))


def test_ball_field_regions_and_jump_identity():
    gam = math.sqrt(GAMMA_EL_SQ_2_2_2)
    field = build_field_ball_harmonic(2, 2.0, gam, 2.0)
    names = field.region_names()
    dR = delta_robin(2, 2.0, 2.0)
    assert set(names) == {
        "inner-below-trace", "inner-transition", "inner-gradient",
        "inner-above-graph", "outer-below-trace", "outer-above-trace",
    }
    assert names[field.region_index(1.5, 0.1)] == "inner-below-trace"
    assert names[field.region_index(1.5, 0.35)] == "inner-transition"
    assert names[field.region_index(1.5, 0.5)] == "inner-gradient"
    assert names[field.region_index(1.5, 0.9)] == "inner-above-graph"
    assert names[field.region_index(3.0, 0.05)] == "outer-below-trace"
    assert names[field.region_index(3.0, 0.8)] == "outer-above-trace"

    # jump fiber flux at the support sphere: Psi(R, delta) - Psi(R, 0)
    # must equal -beta (0^2 + delta^2)
    got = field.Psi(2.0, dR) - field.Psi(2.0, 0.0)
    assert abs(got - (-2.0 * dR ** 2)) < 1e-14


def test_ball_field_graph_matching_along_the_layer():
    gam = math.sqrt(GAMMA_EL_SQ_2_2_2)
    field = build_field_ball_harmonic(2, 2.0, gam, 2.0)
    rs = np.linspace(1.0, 2.0, 33)
    vals, grads = u_radial(2, 2.0, 2.0, rs)
    psi, phi_t = field.evaluate(rs, vals)
    assert np.max(np.abs(psi - (-2.0 * grads))) < 1e-12
    assert np.max(np.abs(phi_t - (grads ** 2 - gam ** 2))) < 1e-12


def test_ball_field_degenerates_to_two_piece_at_unit_radius():
    field = build_field_ball_harmonic(2, 1.0, 0.4, 1.0)
    assert field.kind == "indicator-two-piece"


def test_indicator_const_works_in_dimension_one():
    # the field loses its 1/r decay but stays divergence free
    field = build_field_indicator_const(1, 0.3, 0.4)
    psi, phi_t = field.evaluate(3.0, 0.5)
    assert psi == pytest.approx(-0.3)
    assert phi_t == 0.0
    report = verify_all(field, config=VerifyConfig(pos_res=48, t_res=48,
                                                   pair_res=48))
    assert report.passed
    with pytest.raises(ValueError):
        build_field_indicator_const(0, 0.3, 0.4)


def test_field_evaluate_shapes_and_scalars():
    field = build_field_1d(limit_params())
    psi, phi_t = field.evaluate(0.3, 0.2)
    assert isinstance(psi, float) and isinstance(phi_t, float)
    P = np.linspace(0.0, 1.0, 7)[:, None] * np.ones((1, 5))
    T = np.linspace(0.0, 1.0, 5)[None, :] * np.ones((7, 1))
    psi, phi_t = field.evaluate(P, T)
    assert psi.shape == (7, 5) and phi_t.shape == (7, 5)
    idx = field.region_index(P, T)
    assert idx.shape == (7, 5)
    assert (idx >= 0).all()


def test_field_description_is_json_serializable():
    for field in (
        build_field_1d(limit_params()),
        build_field_indicator_const(2, 0.3, 0.4),
        build_field_indicator_two_piece(2, 1.0, 0.4),
        build_field_ball_harmonic(2, 2.0, math.sqrt(GAMMA_EL_SQ_2_2_2), 2.0),
    ):
        text = json.dumps(field.to_description())
        doc = json.loads(text)
        assert doc["kind"] == field.kind
        assert len(doc["regions"]) == len(field.regions)
