"""Unit tests for the piecewise calibration field constructions."""

import argparse
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calx import calibration_fields
from calx.calibration_fields import (
    CalibParams1D,
    HypothesisViolation,
    Interface,
    PiecewiseField,
    Region,
    affine_profile,
    build_field_1d,
    build_field_ball_harmonic,
    build_field_harmonic,
    build_field_indicator_const,
    build_field_indicator_two_piece,
    choose_lambda,
    radial_shell_profile,
    _block,
)
from calx import cli
from calx.oracle import oracle_robin_shooting
from calx.potentials import (delta_robin, delta_robin_prime, rho, robin_bracket,
                             robin_bracket_sup, u_radial)
from calx.verifier import (
    CalibratedFunction,
    VerifyConfig,
    check_divergence_and_flux,
    check_graph_conditions,
    perturb_phi_t,
    verify_all,
)
from grid_reference import reference_divergence, reference_sample

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from workloads import (CERTIFY_CELLS, PLANTED_AMOUNT, PLANTED_CELL, REFUTE_CELLS,  # noqa: E402
                       SAMPLES, critical_gamma)

BENCHMARK_CELLS = [(kind, cell) for kind, cells in sorted(CERTIFY_CELLS.items())
                   for cell in cells] + list(REFUTE_CELLS)

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


@pytest.mark.parametrize("beta", [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf])
def test_from_traces_rejects_a_beta_out_of_its_domain(beta):
    # not as an infeasible jump-energy test, nor by the name beta0
    with pytest.raises(ValueError, match="^beta must be positive$"):
        CalibParams1D.from_traces(0.3, 1.0, beta)


def test_from_traces_reports_infeasible_jump_energy():
    with pytest.raises(HypothesisViolation) as exc:
        CalibParams1D.from_traces(0.0, 1.0, 1.0)
    assert "jump-energy test violated" in str(exc.value)
    assert "0.75 > 0.25" in str(exc.value)


def test_params_validation():
    with pytest.raises(ValueError):
        CalibParams1D(m=0.5, M=0.4, beta=1.0, beta0=1.0, lam=0.0)
    for beta in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^beta must be positive$"):
            CalibParams1D(m=0.1, M=0.9, beta=beta, beta0=1.0, lam=0.0)
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
    u = field.calibrated.value
    for pos in (0.0, 0.25, 0.5, 0.99, 1.0):
        assert names[field.region_index(pos, u(pos))] == "graph-band"
        psi, phi_t = field.evaluate(pos, u(pos))
        assert abs(psi - 2.0 * 0.75) < 1e-12
        assert abs(phi_t - 0.75 ** 2) < 1e-12


def test_psi_antiderivative_properties():
    shell = radial_shell_profile(2, 0.5, 2.0)
    fields = (build_field_1d(limit_params()), build_field_indicator_const(2, 0.3, 0.4),
              build_field_indicator_two_piece(2, 1.0, 0.4),
              build_field_harmonic(shell, 0.5),
              build_field_ball_harmonic(2, 2.0, math.sqrt(GAMMA_EL_SQ_2_2_2), 2.0))
    for field in fields:
        pos = np.linspace(*field.pos_range, 41)
        assert np.max(np.abs(field.Psi(pos, np.zeros_like(pos)))) == 0.0
        # continuity of Psi in t across every graph interface, and in pos
        # across the support sphere
        regions = dict(zip(field.region_names(), field.regions))
        for interface in field.interfaces:
            if interface.kind == "graph":
                at = np.linspace(*interface.pos_range, 41)
                curve = regions[interface.region].top(at)
                above = field.Psi(at, np.minimum(curve + 1e-12, field.t_max))
                below = field.Psi(at, np.maximum(curve - 1e-12, 0.0))
            else:
                t = np.linspace(0.0, field.t_max, 41)
                above = field.Psi(interface.radius + 1e-12, t)
                below = field.Psi(interface.radius - 1e-12, t)
            assert np.max(np.abs(above - below)) < 1e-10, (field.kind, interface.name)


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
        jumps=((0.0, 0.25, 0.5, 1.0),))
    a_prime, b_prime = check_graph_conditions(field, competitor, config)
    assert a_prime.status == "pass"
    assert b_prime.status == "pass"


def test_field_1d_rejects_other_intervals():
    # the construction is normalized to [0, 1] and takes no interval
    assert build_field_1d(limit_params()).pos_range == (0.0, 1.0)
    with pytest.raises(TypeError):
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
    field = build_field_harmonic(u, beta)
    assert field.kind == "harmonic"
    assert field.geometry == "radial"
    report = verify_all(field, config=VerifyConfig(pos_res=48, t_res=48,
                                                   pair_res=48))
    assert report.passed


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
    lambda bad: build_field_1d(CalibParams1D.from_traces(0.8, 1.0, bad)),
    lambda bad: build_field_harmonic(affine_profile(0.8, 1.0), bad),
])
def test_builders_reject_nan_parameters(build):
    # and both infinities, each before any arithmetic can warn
    for bad in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                build(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: delta_robin(2, math.nan, 2.0), "beta must be positive and finite"),
    (lambda: delta_robin_prime(2, math.nan, 2.0), "beta must be positive and finite"),
    (lambda: robin_bracket(2, math.nan, 2.0), "beta must be positive and finite"),
    (lambda: rho(2, math.nan, 2.0, 1.5), "beta must be positive and finite"),
    (lambda: u_radial(2, math.nan, 2.0, 1.5), "beta must be positive and finite"),
    (lambda: delta_robin(2, math.inf, 2.0), "beta must be positive and finite"),
    (lambda: oracle_robin_shooting(2, math.inf, 2.0), "need beta > 0 and R > 1, beta finite"),
    (lambda: robin_bracket_sup(2, 0.0), "beta must be positive"),
    (lambda: robin_bracket_sup(2, math.nan), "beta must be positive"),
    (lambda: build_field_indicator_const(2.7, 0.3, 0.4), "dimension must be a positive integer"),
    (lambda: build_field_indicator_two_piece(2.7, 1.0, 0.4),
     "dimension must be a positive integer"),
    (lambda: build_field_ball_harmonic(2.7, 2.0, 0.4, 2.0), "dimension must be a positive integer"),
])
def test_a_beta_or_dimension_out_of_its_domain_is_rejected(call, message):
    # not a NaN or 0.0 result, another exception, or a dimension truncated to 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + message):
            call()


def test_regions_and_graph_interfaces_declare_their_derivatives():
    # a region declares its coefficients, the derivative of psi among them
    with pytest.raises(TypeError):
        Region("everything", "all t", lambda pos: np.inf + 0.0 * pos)
    # a graph interface names a region of the field that declares the slope of its top
    field = build_field_indicator_two_piece(2, 1.0, 0.4)
    below, above = field.regions
    assert field.interfaces[0].region == below.name and above.top_prime is None
    for interface in (replace(field.interfaces[0], region="nowhere"),
                      replace(field.interfaces[0], region=above.name),
                      Interface(name="curve", kind="graph")):
        with pytest.raises(ValueError, match="^graph interface '(trace-)?curve' names"):
            replace(field, interfaces=(interface,))
    with pytest.raises(ValueError, match="names 'below-trace', not a region of the field"):
        replace(field, regions=(replace(below, top_prime=None), above))
    sphere = Interface(name="sphere", kind="sphere", radius=2.0)
    assert replace(field, interfaces=(sphere,)).interfaces == (sphere,)


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


def table_psi(k, pos, t):
    """``psi`` of region ``k`` of :func:`table_field`."""
    return (k + 1.0) * pos - (2.0 * k - 1.0) * t


def table_phi_t(k, pos, t):
    """``phi_t`` of region ``k`` of :func:`table_field`, all three terms nonzero."""
    return pos + (0.5 - k) * t + (k - 1.5) * t ** 2


def table_field(tops, strict):
    """Regions whose tops are read from ``tops[k][i]`` at position ``i``, with
    ``psi`` and ``phi_t`` those of :func:`table_psi` and :func:`table_phi_t`."""

    def region(k):
        def top(pos):
            return np.asarray(tops[k], dtype=float)[np.asarray(pos, dtype=int)]

        def coeffs(pos):
            return (k + 1.0) * pos, -(2.0 * k - 1.0), pos, 0.5 - k, k - 1.5, 0, 0

        return Region("r{}".format(k), "", top, coeffs, strict=strict[k])

    return PiecewiseField(
        kind="table", geometry="interval", n=1, pos_range=(0.0, 1.0), t_max=1.0,
        gamma_sq_term=0.0, params={}, regions=tuple(region(k) for k in range(len(tops))))


def sample_point(field, p, t):
    """``(index, psi, phi_t, Psi)`` at one point of a :func:`table_field`, by the claim
    rule and the stretch integrals written out."""

    tops = [np.float64(region.top(p)) for region in field.regions]
    for k, (region, top) in enumerate(zip(field.regions, tops)):
        if (t < top) if region.strict else (t <= top):
            break
    else:
        return -1, np.nan, np.nan, np.nan
    lo, below = np.float64(0.0), np.float64(0.0)
    for j, top in enumerate(tops[:k]):
        hi = np.minimum(np.maximum(lo, top), field.t_max)
        if hi > lo:
            below += 0.5 * (hi - lo) * (table_psi(j, p, lo) + table_psi(j, p, hi))
        lo = hi
    psi = table_psi(k, p, t)
    return k, psi, table_phi_t(k, p, t), below + 0.5 * (t - lo) * (table_psi(k, p, lo) + psi)


_TOPS = [np.nan, np.inf, -np.inf, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5]
_TS = [np.nan, -0.25, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sample_matches_a_per_point_reference_on_awkward_inputs(data):
    # NaN and infinite tops, t rows unsorted, with NaN, or sorted: the column
    # runs of a sorted row and the one-point fibres of any other row agree
    # with the claim rule point by point
    K, P, N = (data.draw(st.integers(1, hi)) for hi in (4, 5, 7))
    tops = data.draw(st.lists(st.lists(st.sampled_from(_TOPS), min_size=P, max_size=P),
                              min_size=K, max_size=K))
    strict = data.draw(st.lists(st.booleans(), min_size=K, max_size=K))
    t = np.array(data.draw(st.lists(st.sampled_from(_TS), min_size=N, max_size=N)))
    if data.draw(st.booleans()):
        t = np.sort(t)  # NaN sorts last
    field = table_field(tops, strict)
    pos = np.arange(P, dtype=float)[:, None]
    got = field._sample(pos, t[None, :], "psi", "phi_t", "Psi")
    want = np.array([[sample_point(field, p, s) for s in t] for p in pos[:, 0]])
    assert np.array_equal(field.region_index(pos, t[None, :]), want[..., 0])
    for value, expected in zip(got, np.moveaxis(want[..., 1:], -1, 0)):
        assert np.array_equal(value, expected, equal_nan=True)


def assert_same_bits(got, want):
    """Equal arrays, bit for bit where a value is not NaN and NaN at the same places."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def assert_sampling_matches_the_block_reference(field, pos, t, fibres_a_block=None):
    """Index, ``psi``, ``phi_t`` and ``Psi`` at ``pos x t`` as the field samples
    them, by a call of its own and, on a grid, block by block from one table of
    its fibres into reused buffers, equal the block reference bit for bit."""

    names = ("psi", "phi_t", "Psi")
    want = reference_sample(field, pos, t, *names)
    assert np.array_equal(field.region_index(pos, t), want[0])
    for got, expected in zip(field._sample(pos, t, *names), want[1:]):
        assert_same_bits(got, expected)
    for got, expected in zip((field.evaluate(pos, t), (field.Psi(pos, t),)),
                             (want[1:3], want[3:])):
        for value, value_expected in zip(got, expected):
            assert_same_bits(value, value_expected)
    if fibres_a_block is None:
        return
    P = pos.shape[0]
    fibres = field._fibres(pos, t, True)
    out = tuple(np.full((fibres_a_block, t.shape[1]), -7.0) for _ in names)
    for i in range(0, P, fibres_a_block):
        j = min(i + fibres_a_block, P)
        got = field._sample(pos[i:j], t, *names, out=out, fibres=_block(fibres, i, j))
        for value, expected in zip(got, want[1:]):
            assert_same_bits(value, expected[i:j])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_sampling_matches_the_block_reference_bit_for_bit(data):
    # the awkward inputs of the per-point test, on grids of more fibres, in
    # blocks of any size
    K, P, N = (data.draw(st.integers(1, hi)) for hi in (4, 9, 7))
    tops = data.draw(st.lists(st.lists(st.sampled_from(_TOPS), min_size=P, max_size=P),
                              min_size=K, max_size=K))
    strict = data.draw(st.lists(st.booleans(), min_size=K, max_size=K))
    t = np.array(data.draw(st.lists(st.sampled_from(_TS), min_size=N, max_size=N)))
    if data.draw(st.booleans()):
        t = np.sort(t)  # NaN sorts last
    pos = np.arange(P, dtype=float)[:, None]
    # the fibres of a grid come in blocks; any other row is one-point fibres
    grid = np.all(t[1:] >= t[:-1])
    assert_sampling_matches_the_block_reference(table_field(tops, strict), pos, t[None, :],
                                                data.draw(st.integers(1, P)) if grid else None)


def assert_claimed_stretches_match_the_divergence_reference(field, pos_res, t_res):
    """The stretches of the grid pass's table, and the divergence statistics
    of a check read from them, equal the reference that applies the claim
    rule to the tops and evaluates each region's ``coeffs`` anew."""

    pos, t = np.linspace(*field.pos_range, pos_res), np.linspace(0.0, field.t_max, t_res)
    claimed, div, ends = reference_divergence(field, pos)
    stretches = field._fibres(pos[:, None], t[None, :], True)[4]
    for k, (lo, hi, rows, _) in enumerate(stretches):
        assert np.array_equal(rows, claimed[k])
        assert np.array_equal(np.hstack((lo, hi)), ends[:, k], equal_nan=True)
    meta = check_divergence_and_flux(field, VerifyConfig(pos_res=pos_res, t_res=t_res)).meta
    checked = 2 * sum(rows.size for rows in claimed)
    assert (meta["n_div_checked"], meta["n_div_skipped"]) == (checked, div.size - checked)
    assert_same_bits(meta["div_worst"], np.max(div))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_claimed_stretches_match_the_divergence_reference(data):
    # NaN, infinite and equal tops, strict and non-strict regions, and tops
    # at a grid node and between nodes, so that zero-length stretches sit
    # at both; an interval field, and a radial one whose fibres start at 1
    K, P, N = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (16, 20), (16, 24)))
    t = np.linspace(0.0, 1.0, N)
    levels = _TOPS + [t[1], t[N // 2], t[N - 2]]
    tops = data.draw(st.lists(st.lists(st.sampled_from(levels), min_size=P, max_size=P),
                              min_size=K, max_size=K))
    strict = data.draw(st.lists(st.booleans(), min_size=K, max_size=K))
    first, n = data.draw(st.sampled_from([(0, 1), (1, 2), (1, 3)]))
    field = table_field([[np.nan] * first + row for row in tops], strict)
    field = replace(field, geometry="interval" if n == 1 else "radial", n=n,
                    pos_range=(float(first), float(first + P - 1)))
    assert_claimed_stretches_match_the_divergence_reference(field, P, N)


def test_claimed_stretches_match_the_divergence_reference_on_benchmark_fields():
    for kind, cell in BENCHMARK_CELLS + [("planted defect", PLANTED_CELL)]:
        if (kind, cell) not in REFUTE_CELLS[1:]:  # these stop in the constructor
            assert_claimed_stretches_match_the_divergence_reference(benchmark_field(kind, cell),
                                                                   64, 64)


def test_values_are_formed_in_their_buffers_where_runs_fill_their_span(monkeypatch):
    # a region whose runs cover the same columns on consecutive fibres is
    # formed in the output arrays themselves, with no copy through a mask;
    # a region whose runs differ is formed aside and copied through its mask
    masked = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def copyto(self, *args, **kwargs):
            masked.append("copyto")
            return np.copyto(*args, **kwargs)

        def where(self, *args, **kwargs):
            masked.append("where")
            return np.where(*args, **kwargs)

    monkeypatch.setattr(calibration_fields, "np", Numpy())
    pos, t = np.arange(5.0)[:, None], np.linspace(0.0, 1.0, 7)[None, :]
    names = ("psi", "phi_t", "Psi")
    for tops, copies in (([[0.5] * 5, [np.inf] * 5], 0),
                         ([[0.1, 0.3, 0.5, 0.7, 0.9], [np.inf] * 5], 2 * len(names))):
        field, masked[:] = table_field(tops, [False, False]), []
        want = reference_sample(field, pos, t, *names)
        out = tuple(np.empty((5, 7)) for _ in names)
        got = field._sample(pos, t, *names, out=out)
        assert all(value.base is buffer for value, buffer in zip(got, out))
        for value, expected in zip(got, want[1:]):
            assert_same_bits(value, expected)
        assert masked == ["copyto"] * copies
        # the owner of each point, by the claim rule applied directly
        assert np.array_equal(field.region_index(pos, t), want[0])


def benchmark_field(kind, cell):
    """The field of a benchmark cell, or of its planted defect, as the benchmark builds it."""
    if kind != "planted defect":
        return cli._FIELDS[kind](cli._Options("check", argparse.Namespace(**cell), {}), [])
    n, beta, R = (cell[key] for key in ("n", "beta", "R"))
    ball = build_field_ball_harmonic(n, beta, critical_gamma(n, beta, R), R)
    pos, t = np.linspace(*ball.pos_range, SAMPLES), np.linspace(0.0, ball.t_max, SAMPLES)
    return perturb_phi_t(ball, pos[200], t[300], PLANTED_AMOUNT,
                         0.4 * (pos[1] - pos[0]), 0.4 * (t[1] - t[0]))


@pytest.mark.parametrize("kind, cell", BENCHMARK_CELLS + [("planted defect", PLANTED_CELL)],
                         ids=lambda value: str(value))
def test_benchmark_field_sampling_matches_the_block_reference_bit_for_bit(kind, cell):
    if (kind, cell) in REFUTE_CELLS[1:]:  # these stop in the constructor
        with pytest.raises(HypothesisViolation):
            benchmark_field(kind, cell)
        return
    field = benchmark_field(kind, cell)
    for res, fibres_a_block in ((64, 7), (SAMPLES, 64)):
        pos = np.linspace(*field.pos_range, res)[:, None]
        t = np.linspace(0.0, field.t_max, res)[None, :]
        assert_sampling_matches_the_block_reference(field, pos, t, fibres_a_block)
    # and at scattered points, one-point fibres
    rng = np.random.default_rng(0)
    pos = rng.uniform(*field.pos_range, 300)
    t = rng.uniform(0.0, field.t_max, 300)
    assert_sampling_matches_the_block_reference(field, pos, t)
