"""Unit tests for the 1-D and radial energy functionals."""

import math

import numpy as np
import pytest

from calx.energy import (
    unit_ball_volume,
    EnergyBreakdown,
    Competitor1D,
    RadialProfile,
    energy_1d,
    energy_radial_general,
    energy_radial_optimal,
    dE_dR,
    critical_radii,
    indicator_monotonicity_margin,
)
from calx.potentials import delta_robin

GAMMA_EL_SQ = 0.21078627566065199313129689492651333031406165486519


def test_unit_ball_volume_low_dimensions():
    assert unit_ball_volume(1) == 2.0
    assert abs(unit_ball_volume(2) - math.pi) < 1e-15
    assert abs(unit_ball_volume(3) - 4.0 * math.pi / 3.0) < 1e-15
    with pytest.raises(ValueError):
        unit_ball_volume(0)
    with pytest.raises(ValueError):
        unit_ball_volume(2.5)


def test_energy_breakdown_total_and_validation():
    e = EnergyBreakdown(dirichlet=1.0, jump=2.0, volume=0.5)
    assert e.total == 3.5
    assert e.as_dict()["total"] == 3.5
    with pytest.raises(ValueError):
        EnergyBreakdown(dirichlet=-1.0, jump=0.0, volume=0.0)
    with pytest.raises(ValueError):
        EnergyBreakdown(dirichlet=float("nan"), jump=0.0, volume=0.0)


def test_competitor_affine_has_no_jumps():
    c = Competitor1D.affine(0.0, 1.0, 0.2, 0.9, left_data=0.2, right_data=0.9)
    assert c.jumps == ()
    assert c.trace_at_a() == pytest.approx(0.2)
    assert c.trace_at_b() == pytest.approx(0.9)
    e = energy_1d(c, 3.0)
    assert e.jump == 0.0
    assert abs(e.dirichlet - 0.7 ** 2) < 1e-15


def test_competitor_interior_jump_and_energy():
    # piecewise: 0.2 on [0, 0.5), 0.8 on (0.5, 1]
    c = Competitor1D(breakpoints=(0.5,), pieces=((0.0, 0.2), (0.0, 0.8)),
                     left_data=0.2, right_data=0.8)
    assert c.jumps == ((0.5, 0.2, 0.8),)
    e = energy_1d(c, 2.0)
    assert e.dirichlet == 0.0
    assert abs(e.jump - 2.0 * (0.04 + 0.64)) < 1e-15
    assert c.evaluate(0.25) == pytest.approx(0.2)
    assert c.evaluate(0.75) == pytest.approx(0.8)


def test_competitor_boundary_mismatch_counts_as_jump():
    c = Competitor1D.affine(0.0, 1.0, 0.5, 1.0, left_data=0.0, right_data=1.0)
    e = energy_1d(c, 1.0)
    assert abs(e.jump - (0.0 + 0.25)) < 1e-15
    assert abs(e.dirichlet - 0.25) < 1e-15


def test_competitor_scaling_is_quadratic_in_energy():
    c = Competitor1D(breakpoints=(0.3,), pieces=((1.0, 0.0), (0.5, 0.4)),
                     left_data=0.0, right_data=0.9)
    for factor in (0.5, 2.0):
        e1 = energy_1d(c, 1.7).total
        e2 = energy_1d(c.scaled(factor), 1.7).total
        assert abs(e2 - factor ** 2 * e1) < 1e-12


def test_competitor_extra_breakpoint_preserves_energy():
    c = Competitor1D(breakpoints=(0.4,), pieces=((0.0, 0.1), (0.0, 0.7)),
                     left_data=0.1, right_data=0.7)
    c2 = c.with_extra_breakpoint(0.7)
    assert len(c2.pieces) == 3
    assert energy_1d(c2, 2.0).total == pytest.approx(energy_1d(c, 2.0).total)
    assert c2.evaluate(0.85) == pytest.approx(0.7)


def test_competitor_validation_errors():
    with pytest.raises(ValueError):
        Competitor1D(breakpoints=(0.5,), pieces=((0.0, 0.0),))
    with pytest.raises(ValueError):
        Competitor1D(breakpoints=(0.5, 0.4), pieces=((0.0, 0.0),) * 3)
    with pytest.raises(ValueError):
        Competitor1D(a=1.0, b=0.0)


def test_radial_profile_validation_and_robin_flag():
    p = RadialProfile(n=2, beta=3.0, gamma=0.0, R=2.0,
                      delta=delta_robin(2, 3.0, 2.0))
    assert p.is_robin_optimal()
    q = RadialProfile(n=2, beta=3.0, gamma=0.0, R=2.0, delta=0.5)
    assert not q.is_robin_optimal()
    with pytest.raises(ValueError):
        RadialProfile(n=2, beta=3.0, gamma=0.0, R=0.5, delta=0.5)
    with pytest.raises(ValueError):
        RadialProfile(n=2, beta=3.0, gamma=0.0, R=2.0, delta=0.0)


def test_indicator_energy_at_unit_radius():
    e = energy_radial_general(RadialProfile(n=2, beta=1.0, gamma=0.34,
                                            R=1.0, delta=1.0)).total
    assert abs(e - 6.646353417934566575291568341666116301807531581318) < 1e-13
    # the trace value is irrelevant at R = 1
    e2 = energy_radial_general(RadialProfile(n=2, beta=1.0, gamma=0.34,
                                             R=1.0, delta=0.3)).total
    assert e2 == e


def test_energy_radial_optimal_reference_values():
    assert abs(energy_radial_optimal(2, 3.0, 0.0, 2.0)
               - 7.3076112084568396820946228503892441315299836168281) < 1e-13
    assert abs(energy_radial_optimal(2, 1.0, 0.34, 2.0)
               - 6.7187330008053233380425566731139429759590943663987) < 1e-13
    assert abs(energy_radial_optimal(2, 2.0, math.sqrt(GAMMA_EL_SQ), 2.0)
               - 9.3107535609461049844496771558065604917356339669043) < 1e-13
    assert abs(energy_radial_optimal(1, 2.0, 0.5, 2.5) - 2.25) < 1e-14


def test_optimal_energy_is_general_energy_at_robin_trace():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.5, 4.0))
        gam = float(rng.uniform(0.0, 1.0))
        R = float(rng.uniform(1.05, 4.0))
        d = delta_robin(n, beta, R)
        via_general = energy_radial_general(
            RadialProfile(n=n, beta=beta, gamma=gam, R=R, delta=d)).total
        assert abs(via_general - energy_radial_optimal(n, beta, gam, R)) \
            < 1e-11 * max(1.0, via_general)


def test_robin_trace_minimizes_over_delta():
    n, beta, gam, R = 2, 1.5, 0.3, 1.8
    opt = energy_radial_optimal(n, beta, gam, R)
    for d in np.linspace(0.05, 1.0, 30):
        e = energy_radial_general(RadialProfile(n=n, beta=beta, gamma=gam,
                                                R=R, delta=float(d))).total
        assert e >= opt - 1e-12


def test_dE_dR_matches_finite_differences():
    h = 1e-6
    for (n, beta, gam, R) in [(1, 2.0, 0.5, 2.0), (2, 1.0, 0.34, 1.5),
                              (3, 2.5, 0.7, 3.0)]:
        fd = (energy_radial_optimal(n, beta, gam, R + h)
              - energy_radial_optimal(n, beta, gam, R - h)) / (2 * h)
        assert abs(dE_dR(n, beta, gam, R) - fd) < 1e-6 * max(1.0, abs(fd))


def test_dE_dR_vanishes_at_the_critical_radius():
    assert dE_dR(1, 2.0, 0.5, 2.5) == pytest.approx(0.0, abs=1e-14)


def test_critical_radii_reference_roots():
    roots = critical_radii(2, 1.0, 0.34)
    assert len(roots) == 2
    assert abs(roots[0] - 1.21447196960909539611985) < 1e-8
    assert abs(roots[1] - 1.67947004206913789542485) < 1e-8
    roots1 = critical_radii(1, 2.0, 0.5)
    assert len(roots1) == 1
    assert abs(roots1[0] - 2.5) < 1e-9
    # gamma = 0: the bracket's own zero at r = (n-1)/beta
    assert critical_radii(3, 0.1, 0.0) == [pytest.approx(20.0, abs=1e-12)]
    # n = 1: beta delta(R) = gamma at R = 1 + (beta/gamma - 1)/beta, past r = 10
    assert critical_radii(1, 0.65, 0.05) == [pytest.approx(1.0 + 12.0 / 0.65, rel=1e-13)]


def test_critical_radii_of_a_gamma_whose_square_underflows():
    assert critical_radii(1, 1.0, 1e-200) == [pytest.approx(1e200, rel=1e-13)]
    # here R = 1 + (1/gamma - 1) lies past the float range and is not listed,
    # while a root below the bracket's peak is
    assert critical_radii(1, 1.0, 1e-320) == []
    assert critical_radii(3, 0.1, 1e-320) == [pytest.approx(20.0, abs=1e-12)]


def test_critical_radii_empty_in_the_monotone_regime():
    assert critical_radii(2, 1.0, 0.4) == []


def test_monotonicity_margin_reference_values():
    got = indicator_monotonicity_margin(2, 1.0, 0.4)
    want = 0.027958014638336250374080229571343010051020536914157
    assert abs(got - want) < 1e-9
    got2 = indicator_monotonicity_margin(2, 1.0, 0.34)
    want2 = -0.016441985361663749625919770428656989948979463085843
    assert abs(got2 - want2) < 1e-9


def test_margin_sign_agrees_with_energy_monotonicity():
    # positive margin: energy increasing in R, the unit ball wins
    Rs = np.linspace(1.0, 10.0, 2000)
    E = energy_radial_optimal(2, 1.0, 0.4, Rs)
    assert (np.diff(E) > 0.0).all()
    # negative margin: monotonicity fails (a genuine dip appears), yet
    # the unit ball still has the lowest energy of the family here
    E2 = energy_radial_optimal(2, 1.0, 0.34, Rs)
    assert (np.diff(E2) < 0.0).any()
    assert E2.min() == E2[0]
