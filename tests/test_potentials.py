"""Unit tests for the closed-form radial potentials.

Reference digits were computed with 50-digit arithmetic from the same
closed forms and are trusted to well below the asserted tolerances.
"""

import json
import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calx.potentials import (
    gamma,
    gamma_scaling_identity,
    delta_robin,
    delta_robin_prime,
    u_radial,
    rho,
    rho_prime,
    lemma_gamma_bounds,
    robin_bracket,
    robin_bracket_sup,
)
from calx.energy import critical_radii
from calx.potentials import _bracket_slope, _robin_tail

GAMMA_2_AT_2 = 0.69314718055994530941723212145817656807550013436025
DELTA_2_3_2 = 0.19384040766994080387225125720150649854545286443803
RHO_2_2_2 = {
    1.0: 0.5692612898881700736374444320415035910238522982673,
    1.5: 0.39467768400957731431229924938560336191625000010501,
    1.999999: 0.26507020738970650093888058687147102070485730845068,
}
DELTA_2_2_2 = 0.2650699754534338008384957341283054824468601241432


def test_gamma_matches_each_dimension_formula():
    assert gamma(1, 3.0) == 2.0
    assert abs(gamma(2, 2.0) - GAMMA_2_AT_2) < 1e-16
    assert gamma(3, 2.0) == 0.5
    for n in (3, 4, 5):
        r = 1.7
        expect = (1.0 - r ** (2 - n)) / (n - 2)
        assert abs(gamma(n, r) - expect) < 1e-15


def test_gamma_vectorized_and_at_one():
    rs = np.array([1.0, 1.5, 2.0, 3.0])
    out = gamma(2, rs)
    assert out.shape == rs.shape
    assert out[0] == 0.0
    assert abs(out[2] - GAMMA_2_AT_2) < 1e-16


def test_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gamma(0, 2.0)
    with pytest.raises(ValueError):
        gamma(2, 0.5)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 10), beta=st.floats(0.01, 100.0),
       r=st.one_of(st.floats(1.0, 1.0 + 1e-6), st.floats(1.0, 1e30), st.integers(1, 10**6)),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_fast_path_matches_the_array_path(n, beta, r, seed):
    # a float or int radius skips np.asarray; it must still get the bits that
    # a 0-d array gets, and a one-dimensional array, here also at 900 random
    # radii in every dimension (a last-ulp mismatch shows on a few in 10^4)
    rng = np.random.default_rng(seed)
    radii = np.concatenate([1.0 + 1e-6 * rng.random(300), 1.0 + 10.0 * rng.random(300),
                            np.exp(rng.uniform(0.0, 30.0, 300))])
    radial = (lambda x: delta_robin(n, beta, x), lambda x: delta_robin_prime(n, beta, x))
    for fn in (lambda x: gamma(n, x),) + radial:
        got = fn(r)
        assert type(got) is float
        assert repr(got) == repr(fn(np.asarray(r, dtype=float)))
        assert repr(got) == repr(float(fn(np.array([r], dtype=float))[0]))
    for k in range(1, 11):
        assert [repr(gamma(k, x)) for x in radii.tolist()] == [repr(x) for x in gamma(k, radii).tolist()]
    for fn in radial:
        assert [repr(fn(x)) for x in radii.tolist()] == [repr(x) for x in fn(radii).tolist()]


def test_scalar_fast_path_rejects_radii_below_one_and_passes_nan():
    for n in (1, 2, 3, 7):
        for r in (0.5, 0, 1.0 - 1e-16):
            with pytest.raises(ValueError):
                gamma(n, r)
            with pytest.raises(ValueError):
                delta_robin(n, 1.0, r)
            with pytest.raises(ValueError):
                delta_robin_prime(n, 1.0, r)
        assert math.isnan(gamma(n, math.nan))
        assert math.isnan(delta_robin(n, 1.0, math.nan))
        assert math.isnan(delta_robin_prime(n, 1.0, math.nan))


def test_gamma_scaling_identity_holds_on_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        s, t = sorted(rng.uniform(1.0, 4.0, size=2))
        lhs, rhs = gamma_scaling_identity(n, float(s), float(t))
        assert abs(lhs - rhs) < 1e-13


def test_delta_robin_reference_values():
    assert abs(delta_robin(2, 3.0, 2.0) - DELTA_2_3_2) < 1e-16
    assert delta_robin(1, 2.0, 2.5) == 0.25
    assert delta_robin(2, 0.7, 1.0) == 1.0


def test_delta_robin_where_R_to_the_n_minus_1_overflows():
    # reference digits from 40-digit arithmetic on the same closed form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, beta, R, want in [(3, 1e-200, 4e200, 6.25e-202),
                                 (4, 1e-250, 1e120, 2.0e-110),
                                 (10, 1e-100, 1e40, 8.0e-260),
                                 (3, 5e-324, 1e170, 2.024022533073106e-17)]:
            assert delta_robin(n, beta, R) == pytest.approx(want, rel=1e-12, abs=0.0)
        # where the product stays finite, the bits are those of the plain formula
        Rs = np.array([1.0, 2.0, 1e150, 4e200, np.inf, np.nan])
        got = delta_robin(3, 2.0, Rs)
        plain = 1.0 / (1.0 + 2.0 * np.power(Rs[:3], 2.0) * gamma(3, Rs[:3]))
        assert np.array_equal(got[:3], plain)
        assert got[3] == 0.0 and got[4] == 0.0 and np.isnan(got[5])
        assert delta_robin(3, 1e-200, Rs)[3] == delta_robin(3, 1e-200, 4e200)


def test_delta_robin_decreases_in_R():
    Rs = np.linspace(1.0, 6.0, 400)
    for n in (1, 2, 3):
        d = delta_robin(n, 1.3, Rs)
        assert (np.diff(d) < 0.0).all()
        assert d[0] == 1.0
        assert (d > 0.0).all()


def test_delta_robin_prime_matches_finite_differences():
    h = 1e-6
    for n in (1, 2, 3):
        for R in (1.2, 1.9, 3.4):
            fd = (delta_robin(n, 2.2, R + h) - delta_robin(n, 2.2, R - h)) / (2 * h)
            assert abs(delta_robin_prime(n, 2.2, R) - fd) < 1e-7



def _mp_delta_robin_prime(n, beta, r):
    """-beta G'(r) delta(r)^2 in 40-digit arithmetic, from the closed form."""
    with mpmath.workdps(40):
        beta, r = mpmath.mpf(beta), mpmath.mpf(r)
        g = r - 1 if n == 1 else mpmath.log(r) if n == 2 else (1 - r ** (2 - n)) / (n - 2)
        delta = 1 / (1 + beta * r ** (n - 1) * g)
        return float(-beta * ((n - 1) * r ** (n - 2) * g + 1) * delta ** 2)


def test_delta_robin_prime_where_the_product_overflows_or_underflows():
    # G' overflows (n = 10, 6) or delta^2 falls below the normal range (n = 2),
    # while the derivative itself is a normal float
    cases = [(10, 1e-100, 1e40), (6, 1e-180, 1e80), (2, 1e148, 1e50), (3, 2.0, 1.5),
             (4, 1e-250, 1e120)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, beta, r in cases:
            want = _mp_delta_robin_prime(n, beta, r)
            assert delta_robin_prime(n, beta, r) == pytest.approx(want, rel=1e-12, abs=0.0)
        # an array takes each entry's own path, and the plain formula keeps its bits
        rs = np.array([1.0, 2.0, 1e40, 1e60])
        got = delta_robin_prime(10, 1e-100, rs)
        assert [float(v) for v in got] == [delta_robin_prime(10, 1e-100, float(r)) for r in rs]
        d = delta_robin(10, 1e-100, rs[:2])
        plain = -1e-100 * (9 * np.power(rs[:2], 8.0) * gamma(10, rs[:2]) + 1.0) * np.square(d)
        assert np.array_equal(got[:2], plain)


def test_u_radial_boundary_and_interior_values():
    value, grad = u_radial(2, 3.0, 2.0, 1.5)
    assert abs(value - 0.52842686889026077423807339258007563658733527376562) < 1e-15
    assert abs(grad - 0.77536163067976321548900502880602599418181145775212) < 1e-15
    v1, _ = u_radial(2, 3.0, 2.0, 1.0)
    vR, _ = u_radial(2, 3.0, 2.0, 2.0)
    assert v1 == 1.0
    assert abs(vR - DELTA_2_3_2) < 1e-15


def test_u_radial_gradient_matches_finite_differences():
    h = 1e-6
    for n in (1, 2, 3):
        for r in (1.1, 1.6, 2.3):
            up, _ = u_radial(n, 1.8, 2.5, r + h)
            dn, _ = u_radial(n, 1.8, 2.5, r - h)
            _, grad = u_radial(n, 1.8, 2.5, r)
            assert abs(grad - abs(up - dn) / (2 * h)) < 1e-6


def test_u_radial_is_monotone_between_trace_and_one():
    rs = np.linspace(1.0, 2.5, 300)
    vals, grads = u_radial(3, 2.0, 2.5, rs)
    assert (np.diff(vals) < 0.0).all()
    assert (grads > 0.0).all()
    assert vals[0] == 1.0


def test_rho_reference_values():
    for r, want in RHO_2_2_2.items():
        tol = 1e-10 if r > 1.99 else 1e-15
        # near r = R the closed form is a ratio of vanishing quantities,
        # so the last reference point is only conditioned to ~1e-11
        assert abs(rho(2, 2.0, 2.0, r) - want) < tol


def test_rho_equals_trace_at_outer_radius_and_is_ordered():
    for n in (2, 3, 4):
        beta, R = 1.7, 2.2
        dR = delta_robin(n, beta, R)
        assert abs(rho(n, beta, R, R) - dR) < 1e-12
        rs = np.linspace(1.0, R, 500)
        vals = rho(n, beta, R, rs)
        u_vals, _ = u_radial(n, beta, R, rs)
        assert (vals >= dR - 1e-12).all()
        assert (vals <= u_vals + 1e-12).all()


def test_rho_series_branch_is_continuous():
    n, beta, R = 2, 2.0, 2.0
    # the guarded series takes over for R/r - 1 < 1e-8; right at the
    # switch the direct formula carries ~1e-8 of cancellation noise, so
    # continuity can only be asserted at that level
    r_switch = R / (1.0 + 1e-8)
    inside = rho(n, beta, R, r_switch * (1.0 + 1e-12))
    outside = rho(n, beta, R, r_switch * (1.0 - 1e-12))
    assert abs(inside - outside) < 1e-7


def test_rho_constant_in_dimension_one():
    assert rho(1, 2.0, 2.5, 1.7) == delta_robin(1, 2.0, 2.5)
    rs = np.linspace(1.0, 2.5, 50)
    assert (rho(1, 2.0, 2.5, rs) == delta_robin(1, 2.0, 2.5)).all()


def test_rho_rejects_radii_outside_the_shell():
    with pytest.raises(ValueError):
        rho(2, 2.0, 2.0, 0.9)
    with pytest.raises(ValueError):
        rho(2, 2.0, 2.0, 2.1)


def test_rho_prime_matches_finite_differences():
    h = 1e-7
    for n in (2, 3):
        for r in (1.2, 1.5, 1.9):
            fd = (rho(n, 2.0, 2.0, r + h) - rho(n, 2.0, 2.0, r - h)) / (2 * h)
            assert abs(rho_prime(n, 2.0, 2.0, r) - fd) < 1e-6


def test_lemma_gamma_bounds_reference_point():
    lower_ok, upper_ok, mono_ok, est2_ok = lemma_gamma_bounds(2, 2.0)
    assert lower_ok and upper_ok and mono_ok and est2_ok
    # the two-sided bound at n=2, t=2 reads 1/2 <= ln 2 <= 3/4
    assert 0.5 <= GAMMA_2_AT_2 <= 0.75
    # the sharper estimate at the same point
    lhs = 1.5 * (4.0 * GAMMA_2_AT_2 / 3.0 - 0.5)
    rhs = 2.0 / 3.0 - 0.25
    assert abs(lhs - 0.63629436111989061883446424291635313615100026872051) < 1e-15
    assert abs(rhs - 0.41666666666666666666666666666666666666666666666667) < 1e-15
    assert lhs >= rhs


def test_lemma_gamma_bounds_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        lemma_gamma_bounds(1, 2.0)
    with pytest.raises(ValueError):
        lemma_gamma_bounds(2, 1.0)


@pytest.mark.parametrize("beta", [0.01, 0.7, 1.0, 3.0, 250.0])
def test_robin_bracket_sup_in_one_dimension_is_at_the_unit_sphere(beta):
    # n = 1: the bracket is beta^2 delta(r)^2 and delta decreases from 1
    assert robin_bracket_sup(1, beta) == (1.0, beta ** 2)


@pytest.mark.parametrize("n, beta", [(3, 1e-100), (3, 1e-200), (10, 1e-20), (1, 1e-170)])
def test_robin_bracket_sup_rounds_to_zero_where_the_bracket_underflows(n, beta):
    # bracket(r0) underflows to 0, and so does the supremum itself (below
    # 1e-370 in each case); past 1e-154 (n = 3) delta(r0) underflows too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, value = robin_bracket_sup(n, beta)
    assert 1.0 <= r < math.inf and value == 0.0


@pytest.mark.parametrize("n, beta", [(2, 1.0), (2, 0.01), (3, 0.1), (3, 1.2),
                                     (4, 0.05), (5, 0.3), (2, 100.0)])
def test_robin_bracket_sup_bounds_a_dense_scan_far_beyond_its_interval(n, beta):
    r_best, value = robin_bracket_sup(n, beta)
    assert robin_bracket(n, beta, r_best) == value
    radii = np.geomspace(1.0, 1e7, 400_001)
    scan = robin_bracket(n, beta, radii)
    assert value >= scan.max()
    assert value - scan.max() <= 1e-6 * value


@st.composite
def beta_rows(draw):
    """A phase diagram's betas: log-uniform on [1e-3, 1e3], some repeated, with the
    beta at which the n = 3 bracket underflows, in any order."""
    betas = draw(st.lists(st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
                          min_size=1, max_size=20))
    betas += draw(st.lists(st.sampled_from(betas), max_size=5)) + [1e-90]
    return draw(st.permutations(betas))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 10), betas=beta_rows())
@example(n=1, betas=[15.041482287339278, 1e-90])  # its ** 2 and numpy's square differ
def test_robin_bracket_sup_over_an_array_has_the_bits_of_its_float_calls(n, betas):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, value = robin_bracket_sup(n, np.array(betas))
    assert r.shape == value.shape == (len(betas),)
    got = [(repr(float(a)), repr(float(b))) for a, b in zip(r, value)]
    assert got == [tuple(map(repr, robin_bracket_sup(n, beta))) for beta in betas]


@pytest.mark.parametrize("beta", [5e-324, 1e-310, 1e-200, 1.2e154, 1.3e154, 1e300])
@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_robin_bracket_sup_over_an_array_matches_its_float_calls_at_extreme_betas(n, beta):
    # r0 = 2 (n-1) / beta leaves the float range, the slope's product overflows (a float
    # does so silently), or beta^2 overflows, which raises for a float
    def outcome(call):
        try:
            r, value = call()
        except OverflowError as exc:
            return repr(exc)
        return repr((float(np.ravel(r)[0]), float(np.ravel(value)[0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (outcome(lambda: robin_bracket_sup(n, np.array([beta, 1.0])))
                == outcome(lambda: robin_bracket_sup(n, beta)))


def _sup_outcome(call):
    """repr of r and the value, or of the OverflowError raised, as the bits fixture holds them."""
    try:
        r, value = call()
    except OverflowError as exc:
        return repr(exc)
    if np.ndim(r):
        return [[repr(x) for x in r.tolist()], [repr(x) for x in value.tolist()]]
    return [repr(r), repr(value)]


with open(Path(__file__).with_name("robin_bracket_sup_bits.json")) as _handle:
    _SUP_BITS = json.load(_handle)


@pytest.mark.parametrize("case", _SUP_BITS["robin_bracket_sup"], ids=lambda case: case["name"])
def test_robin_bracket_sup_keeps_its_recorded_bits(case):
    # the bits of the guarded bisection step, which the unguarded step keeps: the README
    # and survey beta grids, and the extreme betas of the test above, each with 1.0
    n, betas = case["n"], [float(b) for b in case["betas"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [_sup_outcome(lambda: robin_bracket_sup(n, b)) for b in betas] == case["float"]
        assert _sup_outcome(lambda: robin_bracket_sup(n, np.array(betas))) == case["array"]


def test_critical_radii_keep_their_recorded_bits():
    want = _SUP_BITS["critical_radii(2, 1, 0.34)"]
    assert [repr(r) for r in critical_radii(2, 1.0, 0.34)] == want


def _public_slope(n, beta, r):
    """The bisection step's slope, formed from the public delta_robin and delta_robin_prime."""
    d = delta_robin(n, beta, r)
    return (n - 1) + 2.0 * (beta * r - (n - 1)) * (r * delta_robin_prime(n, beta, r) / d)


def _slope_outcome(slope, r):
    try:
        with np.errstate(all="ignore"):
            out = slope(r)
    except ZeroDivisionError as exc:  # a float delta that underflows to 0
        return repr(exc)
    return [repr(x) for x in np.ravel(out).tolist()], type(out).__name__


_LOG_UNIFORM_BETA = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)
_LOG_UNIFORM_R = st.floats(0.0, math.log(1e300)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 10), beta=_LOG_UNIFORM_BETA, r=_LOG_UNIFORM_R,
       pairs=st.lists(st.tuples(_LOG_UNIFORM_BETA, _LOG_UNIFORM_R), min_size=1, max_size=8))
@example(n=3, beta=1.0, r=1e80, pairs=[(1.0, 1e80), (1.0, 2.0)])  # delta^2 is not normal
@example(n=10, beta=1.0, r=1e40, pairs=[(1.0, 1e40), (1.0, 2.0)])  # r^(n-1) overflows
@example(n=5, beta=1e3, r=1e300, pairs=[(1e3, 1e300), (1e-3, 1.5)])
def test_bisection_step_has_the_bits_of_the_public_delta_functions(n, beta, r, pairs):
    # the step runs no guard and forms gamma(r) once, through the same branches
    assert _slope_outcome(_bracket_slope(n, beta), r) == _slope_outcome(
        lambda x: _public_slope(n, beta, x), r)
    betas, radii = map(np.array, zip(*pairs))
    assert _slope_outcome(_bracket_slope(n, betas), radii) == _slope_outcome(
        lambda x: _public_slope(n, betas, x), radii)


_TAKES_AN_ARRAY_BETA = {
    "delta_robin": lambda beta: delta_robin(2, beta, 2.0),
    "delta_robin_prime": lambda beta: delta_robin_prime(2, beta, np.full(np.shape(beta), 2.0)),
    "robin_bracket": lambda beta: robin_bracket(2, beta, 2.0),
    "robin_bracket_sup": lambda beta: robin_bracket_sup(2, beta),
}


@pytest.mark.parametrize("name", sorted(_TAKES_AN_ARRAY_BETA))
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_an_array_beta_with_one_bad_element_raises_as_that_float_does(name, bad):
    call = _TAKES_AN_ARRAY_BETA[name]
    with pytest.raises(ValueError) as scalar:
        call(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(str(scalar.value)) + "$"):
            call(np.array([0.5, bad, 2.0]))
        call(np.array([0.5, 2.0]))


def test_robin_bracket_sup_takes_a_float_or_a_1d_array_of_beta():
    r, value = robin_bracket_sup(2, np.array([], dtype=float))
    assert r.shape == value.shape == (0,)
    with pytest.raises(ValueError, match="1-d array"):
        robin_bracket_sup(2, np.ones((2, 2)))


def test_an_array_robin_tail_raises_for_its_first_element_past_the_float_range():
    # n = 3, beta = 1: beta delta(r) ~ 1 / r^2 falls to 1e-310 only past r^2 = 1e310
    levels = np.array([0.5, 1e-200, 1e-310, 0.1, 1e-320])
    fits = [0, 1, 3]
    tails = _robin_tail(3, np.ones(3), levels[fits], np.full(3, 2.0))
    assert [repr(float(t)) for t in tails] == [
        repr(_robin_tail(3, 1.0, levels[i], 2.0)) for i in fits]
    with pytest.raises(OverflowError) as scalar:
        _robin_tail(3, 1.0, levels[2], 2.0)
    with pytest.raises(OverflowError, match="^" + re.escape(str(scalar.value)) + "$"):
        _robin_tail(3, np.ones(5), levels, np.full(5, 2.0))


@pytest.mark.parametrize("n", range(1, 11))
def test_robin_bracket_has_a_single_peak(n):
    # the bracket rises to its supremum and falls after it, so gamma^2 equals
    # it at no more than two radii: critical_radii looks for one on each side
    radii = np.geomspace(1.0, 1e8, 20_001)
    for beta in np.geomspace(1e-3, 1e3, 31):
        steps = np.sign(np.diff(robin_bracket(n, beta, radii)))
        steps = steps[steps != 0.0]
        assert np.count_nonzero(steps[1:] != steps[:-1]) <= 1, beta
