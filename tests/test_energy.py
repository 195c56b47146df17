"""Unit tests for the 1-D and radial energy functionals."""

import functools
import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from calx.energy import (
    unit_ball_volume,
    EnergyBreakdown,
    Competitor1D,
    RadialProfile,
    energy_1d,
    energy_radial_general,
    energy_radial_optimal,
    energy_radial_traces,
    dE_dR,
    critical_radii,
    indicator_monotonicity_margin,
)
from calx.potentials import delta_robin, robin_bracket_sup

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


def test_energy_breakdown_checks_arrays_entry_by_entry():
    e = EnergyBreakdown(dirichlet=np.array([1.0, 2.0]), jump=np.array([0.5, 0.0]), volume=0.25)
    assert e.total.tolist() == [1.75, 2.25]
    for bad in (-1.0, math.nan, math.inf):
        # the first offending entry, named as the scalar check names it
        with pytest.raises(ValueError) as scalar:
            EnergyBreakdown(dirichlet=1.0, jump=bad, volume=0.0)
        with pytest.raises(ValueError) as arrays:
            EnergyBreakdown(dirichlet=np.ones(3), jump=np.array([0.5, bad, -2.0]), volume=0.0)
        assert str(arrays.value) == str(scalar.value)


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


@pytest.mark.parametrize("call", [
    lambda bad: RadialProfile(n=2, beta=bad, gamma=0.4, R=2.0, delta=0.5),
    lambda bad: RadialProfile(n=2, beta=1.0, gamma=bad, R=2.0, delta=0.5),
    lambda bad: RadialProfile(n=2, beta=1.0, gamma=0.4, R=bad, delta=0.5),
    lambda bad: RadialProfile(n=2, beta=1.0, gamma=0.4, R=2.0, delta=bad),
    lambda bad: energy_radial_traces(2, bad, 0.4, 2.0, [0.5]),
    lambda bad: energy_radial_traces(2, 1.0, 0.4, bad, [0.5]),
    lambda bad: energy_radial_traces(2, 1.0, 0.4, 2.0, [0.5, bad]),
    lambda bad: energy_radial_optimal(2, bad, 0.4, 2.0),
    lambda bad: energy_radial_optimal(2, 1.0, bad, 2.0),
    lambda bad: dE_dR(2, bad, 0.4, 2.0),
    lambda bad: dE_dR(2, 1.0, bad, 2.0),
    lambda bad: critical_radii(2, bad, 0.4),
    lambda bad: critical_radii(2, 1.0, bad),
])
def test_energies_reject_non_finite_parameters(call):
    for bad in (math.nan, math.inf, -math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                call(bad)


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


def _mp_bracket(n, beta):
    """The Robin bracket at mpmath's working precision, from its definition."""
    beta = mp.mpf(beta)

    def bracket(r):
        g = r - 1 if n == 1 else mp.log(r) if n == 2 else (1 - r ** (2 - n)) / (n - 2)
        delta = 1 / (1 + beta * r ** (n - 1) * g)
        return (beta ** 2 - (n - 1) * beta / r) * delta ** 2

    return bracket


def _mp_doubled(holds, r):
    """The first r 2^k (k >= 0) where ``holds``."""
    while not holds(r):
        r *= 2
    return r


def _mp_root(f, lo, hi):
    """Where f changes sign on [lo, hi], bisected to 38 digits."""
    positive = f(lo) > 0
    assert (f(hi) > 0) != positive
    while hi - lo > mp.mpf(10) ** -38 * hi:
        mid = (lo + hi) / 2
        if (f(mid) > 0) == positive:
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("n", range(1, 7))
def test_bracket_peak_and_critical_radii_match_40_digit_roots(n):
    # the reference bisects the bracket's definition at 40 digits, with
    # mpmath's numerical derivative for its slope
    with mp.workdps(40):
        for beta in (0.05, 0.3, 1.0, 2.5, 10.0):
            bracket = _mp_bracket(n, beta)
            slope = functools.partial(mp.diff, bracket)
            peak = mp.mpf(1)
            if slope(peak) > 0:
                peak = _mp_root(slope, peak, _mp_doubled(lambda r: slope(r) <= 0, 2 * peak))
            r_star, value = robin_bracket_sup(n, beta)
            assert abs(r_star - peak) <= 1e-12 * peak, (beta, r_star, peak)
            assert abs(value - bracket(peak)) <= 1e-14 * bracket(peak), (beta, value)
            for gamma_ in (0.01, 0.2, 0.5, 0.9 * math.sqrt(value)):
                def excess(r):
                    return gamma_ ** 2 - bracket(r)

                want = []
                if excess(peak) < 0:
                    if excess(1) > 0:
                        want.append(_mp_root(excess, mp.mpf(1), peak))
                    want.append(_mp_root(excess, peak,
                                         _mp_doubled(lambda r: excess(r) > 0, 2 * peak)))
                got = critical_radii(n, beta, gamma_)
                assert len(got) == len(want), (beta, gamma_, got, want)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-13 * w, (beta, gamma_, g, w)
