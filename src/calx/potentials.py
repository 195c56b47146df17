"""Closed-form radial potentials for the exterior of the unit ball.

The building blocks used everywhere else in the package:

* ``gamma``        -- the exterior harmonic potential with zero boundary
                      trace on the unit sphere,
* ``delta_robin``  -- the optimal Robin trace on a sphere of radius R,
* ``robin_bracket`` -- (beta^2 - (n-1) beta / r) delta(r)^2, the term the
                      critical-radius identity sets equal to gamma^2,
* ``robin_bracket_sup`` -- its supremum over all r >= 1 and where it is
                      reached, bisected on the sign of its slope,
* ``u_radial``     -- the radial competitor supported on B_R,
* ``rho``          -- the interface curve that makes the ball calibration
                      divergence-free, and ``rho_prime`` its slope,
* ``lemma_gamma_bounds`` -- elementary inequalities satisfied by gamma.

All functions accept scalars or numpy arrays for the radius argument,
branch explicitly on the dimension (n = 1, n = 2, n >= 3) and need numpy alone.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gamma",
    "gamma_scaling_identity",
    "delta_robin",
    "delta_robin_prime",
    "robin_bracket",
    "robin_bracket_sup",
    "u_radial",
    "rho",
    "rho_prime",
    "lemma_gamma_bounds",
]


def _check_dimension(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    return int(n)


def _radii(r, message):
    """r as a Python float when it is a float or an int (the scalar fast path,
    which skips np.asarray and np.any), else as a float array; r < 1 raises
    ValueError(message) and NaN passes through."""
    if isinstance(r, (float, int)):
        r = float(r)
        if r < 1.0:
            raise ValueError(message)
        return r
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise ValueError(message)
    return r


def gamma(n: int, r):
    """Exterior potential: r-1 (n=1), ln r (n=2), (1-r^(2-n))/(n-2) (n>=3).

    Harmonic and positive outside the closed unit ball, zero on the unit
    sphere, strictly increasing in r.  Requires r >= 1.  A float r takes
    the same numpy ufuncs as an array (math.log and float ** round
    differently in the last ulp), so it gets the bits of a 0-d array.
    """
    n = _check_dimension(n)
    r = _radii(r, "gamma is defined for r >= 1")
    if n == 1:
        out = r - 1.0
    elif n == 2:
        out = np.log(r)
    else:
        out = (1.0 - np.power(r, 2.0 - n)) / (n - 2)
    return out if isinstance(out, np.ndarray) else float(out)


def _weights(beta, gamma_=0.0):
    """``(beta, gamma_)`` as floats, finite with ``beta > 0`` and ``gamma_ >= 0``."""
    beta, gamma_ = float(beta), float(gamma_)
    if not (0.0 < beta < np.inf and 0.0 <= gamma_ < np.inf):
        raise ValueError("beta must be positive and gamma nonnegative, both finite")
    return beta, gamma_


def gamma_scaling_identity(n: int, s: float, t: float) -> tuple[float, float]:
    """Both sides of the scaling identity gamma(t) - gamma(s) = s^(2-n) gamma(t/s).

    Returned as (lhs, rhs) so property tests can compare them.  Requires
    t >= s >= 1 so that t/s stays in gamma's domain.
    """
    n = _check_dimension(n)
    s = float(s)
    t = float(t)
    if s < 1.0 or t < 1.0:
        raise ValueError("gamma_scaling_identity requires s, t >= 1")
    if t < s:
        raise ValueError("gamma_scaling_identity requires t >= s")
    lhs = gamma(n, t) - gamma(n, s)
    rhs = s ** (2 - n) * gamma(n, t / s)
    return lhs, rhs


def delta_robin(n: int, beta: float, R):
    """Optimal Robin trace 1 / (1 + beta R^(n-1) gamma(R)).

    Lies in (0, 1], equals 1 at R = 1 and decreases strictly in R.
    """
    n = _check_dimension(n)
    if not 0.0 < beta < np.inf:  # _weights' rule, kept cheap for robin_bracket_sup's bisection
        raise ValueError("beta must be positive and finite")
    R = _radii(R, "delta_robin is defined for R >= 1")
    top = R if isinstance(R, float) else np.fmax.reduce(R, axis=None, initial=1.0)
    if n < 3 or not top > 2.0 ** (1000 / (n - 1)):
        out = 1.0 / (1.0 + beta * np.power(R, n - 1.0) * gamma(n, R))
        return out if out.ndim else float(out)
    # R^(n-1) may overflow; wherever beta R^(n-1) gamma(R) does, it is taken
    # from its logarithm (about 1e-13 relative), elsewhere formed as above
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        G = beta * np.power(R, n - 1.0) * gamma(n, R)
        e = np.exp(-(np.log(beta) + (n - 1) * np.log(R) + np.log(gamma(n, R))))
        out = np.where(np.isinf(G), e / (1.0 + e), 1.0 / (1.0 + G))
    return out if out.ndim else float(out)


def _G_prime(n: int, r):
    """G'(r) = (n-1) r^(n-2) gamma(r) + 1 for G(r) = r^(n-1) gamma(r); 1 when n = 1."""
    return (n - 1) * np.power(r, n - 2.0) * gamma(n, r) + 1.0


def _K_factor(n: int, r):
    """Robin trace ratio ``beta delta / (1 - delta) = 1 / (r^(n-1) gamma(r))``."""
    rr = np.asarray(r, dtype=float)
    return 1.0 / (rr ** (n - 1) * gamma(n, rr))


_TINY = np.finfo(float).tiny


def delta_robin_prime(n: int, beta: float, r):
    """d/dr of delta_robin at radius r.

    With G(r) = r^(n-1) gamma(r) one has delta' = -beta G' delta^2 (see
    _G_prime).  A float r takes the same numpy ufuncs as a 0-d array, as in
    gamma.  Where G' overflows or delta^2 falls below the normal float range,
    the same value is formed as -(G'/G) (1 - delta) delta.
    """
    n = _check_dimension(n)
    r = _radii(r, "delta_robin_prime is defined for r >= 1")
    d = delta_robin(n, beta, r)
    top = r if isinstance(r, float) else np.fmax.reduce(r, axis=None, initial=1.0)
    low = d if isinstance(d, float) else np.fmin.reduce(d, axis=None, initial=1.0)
    # the plain product unless G' may overflow (r^(n-2) past 2^1000) or delta^2 is not normal
    if (n < 3 or not top > 2.0 ** (1000 / (n - 2))) and not low * low < _TINY:
        out = -beta * _G_prime(n, r) * np.square(d)
        return out if out.ndim else float(out)
    # beta G delta = 1 - delta, so -beta G' delta^2 = -(G'/G) (1 - delta) delta with
    # G'/G = (n-1)/r + K, whose factors stay in range where G' overflows or delta^2 is not normal
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = -beta * _G_prime(n, r) * np.square(d)
        tail = -((n - 1) / r + _K_factor(n, r)) * (1.0 - d) * d
        out = np.where(np.isfinite(out) & (np.square(d) >= _TINY), out, tail)
    return out if out.ndim else float(out)


def robin_bracket(n: int, beta: float, r):
    """(beta^2 - (n-1) beta / r) delta(r)^2.

    dE/dR of the Robin-optimal energy is n omega_n R^(n-1) (gamma^2 -
    robin_bracket(R)), so the critical radii are where it equals gamma^2.
    """
    r = np.asarray(r, dtype=float)
    d = np.asarray(delta_robin(n, beta, r))
    out = (beta ** 2 - (n - 1) * beta / r) * d ** 2
    return out if out.ndim else float(out)


_LOG_FLOAT_MAX = np.log(np.finfo(float).max) - 1.0  # a factor e of room for rounding


def _robin_tail(n: int, beta: float, level: float, r: float) -> float:
    """First r 2^k (k >= 0) with beta delta <= level: the bracket, at most
    beta^2 delta^2, stays at or below level^2 from there on."""
    # stop before r^(n-1), beta r^(n-1) or beta r^(n-1) gamma(r) in delta overflows
    while (n - 1) * np.log(r) + np.log(max(beta, 1.0) * max(gamma(n, r), 1.0)) <= _LOG_FLOAT_MAX:
        if not beta * delta_robin(n, beta, r) > level:
            return r
        r *= 2.0
    raise OverflowError("beta delta(r) stays above {!r} within the float range".format(level))


def _bisect(f, lo, hi):
    """Where f turns from positive to non-positive on [lo, hi]: lo if f(lo) <= 0, else
    the upper end once the halving reaches adjacent floats (f(hi) <= 0 is taken on trust)."""
    if f(lo) > 0.0:
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if f(mid) > 0.0 else (lo, mid)
        return hi
    return lo


def robin_bracket_sup(n: int, beta: float) -> tuple[float, float]:
    """Supremum of robin_bracket over all r >= 1, as ``(r, value)``.

    The bracket is positive at r0 = max(1, 2(n-1)/beta) and stays below
    bracket(r0) past r_hat = _robin_tail(n, beta, sqrt(bracket(r0)), 2 r0).
    The bracket has a single peak, so r is where its slope turns non-positive on [1, r_hat].
    At a tiny beta bracket(r0) underflows to 0 (n = 3: beta <= 1e-81), and (r0, 0.0) is
    returned: the supremum, at most 1.1e4 times the exact bracket(r0) for n <= 10, is then
    below 3e-320.
    """
    n = _check_dimension(n)
    beta = _weights(beta)[0]
    r0 = max(1.0, 2.0 * (n - 1) / beta)
    with np.errstate(over="ignore"):  # delta(r0) underflows to 0 where r0^(n-1) overflows
        level = np.sqrt(robin_bracket(n, beta, r0))
    if level == 0.0:
        return r0, 0.0
    r_hat = _robin_tail(n, beta, level, 2.0 * r0)
    def slope(r):  # the bracket's slope times r^2 / (beta delta^2), which spares it underflow
        return (n - 1) + 2.0 * (beta * r - (n - 1)) * (
            r * delta_robin_prime(n, beta, r) / delta_robin(n, beta, r))
    r = _bisect(slope, 1.0, r_hat)
    return r, robin_bracket(n, beta, r)


def u_radial(n: int, beta: float, R: float, r):
    """Radial competitor of the thermal problem and its gradient magnitude.

    Returns ``(value, gradient_magnitude)`` where value is 1 inside the unit
    ball, 1 - beta delta(R) R^(n-1) gamma(r) on the annulus [1, R], and 0
    beyond R.  The gradient magnitude is beta delta(R) (R/r)^(n-1) on [1, R]
    and 0 outside.  At the outer sphere u(R) = delta(R).
    """
    n = _check_dimension(n)
    R = float(R)
    if R < 1.0:
        raise ValueError("u_radial requires R >= 1")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    d = delta_robin(n, beta, R)
    rr = np.maximum(r, 1.0)
    value = np.where(
        r <= 1.0,
        1.0,
        np.where(r > R, 0.0, 1.0 - beta * d * R ** (n - 1) * gamma(n, rr)),
    )
    grad = np.where(
        (r >= 1.0) & (r <= R),
        beta * d * (R / rr) ** (n - 1),
        0.0,
    )
    if value.ndim:
        return value, grad
    return float(value), float(grad)


# R/r - 1 below which rho and rho_prime take their expansions around r = R
_RHO_GUARD = 1e-8
_RHO_PRIME_GUARD = 1e-6


def _rho_pieces(n: int, R: float, r, guard: float):
    """``(t, near, tt, g, a_num, b_num, den)`` for rho and rho_prime: t = R/r, near where
    t - 1 < guard, tt = t with 2 at the near points (which keeps the 0/0 form finite),
    and at tt: gamma, t^(2n-2) gamma, t^n - 1 and t^(n-1) - 1."""
    t = R / r
    near = t - 1.0 < guard
    tt = np.where(near, 2.0, t)
    g = gamma(n, tt)
    return t, near, tt, g, tt ** (2 * n - 2) * g, tt ** n - 1.0, tt ** (n - 1) - 1.0


def rho(n: int, beta: float, R: float, r):
    """Interface curve of the ball calibration on 1 <= r < R.

    For n = 1 the curve is the constant delta(R).  For n >= 2 it is, with
    t = R/r,

        rho(r) = delta(R)/2
               + (beta delta(R) r / 2) * t^(2n-2) gamma(t) / (t^(n-1) - 1)
               - (delta(R) r / (2n)) (beta - (n-1)/R) (t^n - 1) / (t^(n-1) - 1).

    The formula is 0/0 at r = R; for R/r - 1 < 1e-8 the value is taken from
    the first-order expansion delta(R) (1 + (beta R - 1/2) (R/r - 1) / 2)
    around the limit delta(R), which avoids catastrophic cancellation.  Radii
    r in [1, R) are accepted, plus r = R itself as the explicit limit.
    """
    n = _check_dimension(n)
    R = float(R)
    if R <= 1.0:
        raise ValueError("rho requires R > 1")
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0) or np.any(r > R):
        raise ValueError("rho is defined for 1 <= r <= R (r = R as a limit)")
    d = delta_robin(n, beta, R)
    if n == 1:
        out = np.full_like(r, d)
        return out if out.ndim else float(out)
    t, near, _, _, a_num, b_num, den = _rho_pieces(n, R, r, _RHO_GUARD)
    direct = (
        0.5 * d
        + 0.5 * beta * d * r * a_num / den
        - (d * r / (2.0 * n)) * (beta - (n - 1) / R) * b_num / den
    )
    series = d * (1.0 + 0.5 * (beta * R - 0.5) * (t - 1.0))
    out = np.where(near, series, direct)
    return out if out.ndim else float(out)


def rho_prime(n: int, beta: float, R: float, r):
    """d/dr of rho on [1, R).

    Differentiates the closed form through t = R/r:

        drho/dr = (beta delta(R)/2) [A(t) - t A'(t)]
                - (delta(R)/(2n)) (beta - (n-1)/R) [B(t) - t B'(t)]

    with A(t) = t^(2n-2) gamma(t) / (t^(n-1) - 1) and
    B(t) = (t^n - 1) / (t^(n-1) - 1).  For R/r - 1 < 1e-6 the expansion
    rho'(r) -> -delta(R) (beta R - 1/2) t^2 / (2R) is used instead.
    For n = 1 the curve is constant so the derivative is 0.
    """
    n = _check_dimension(n)
    R = float(R)
    if R <= 1.0:
        raise ValueError("rho_prime requires R > 1")
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0) or np.any(r > R):
        raise ValueError("rho_prime is defined for 1 <= r <= R")
    if n == 1:
        out = np.zeros_like(r)
        return out if out.ndim else float(out)
    d = delta_robin(n, beta, R)
    t, near, tt, g, a_num, b_num, den = _rho_pieces(n, R, r, _RHO_PRIME_GUARD)
    g_pr = tt ** (1 - n)
    den_pr = (n - 1) * tt ** (n - 2)

    a_num_pr = (2 * n - 2) * tt ** (2 * n - 3) * g + tt ** (2 * n - 2) * g_pr
    A = a_num / den
    A_pr = a_num_pr / den - a_num * den_pr / den**2

    b_num_pr = n * tt ** (n - 1)
    B = b_num / den
    B_pr = b_num_pr / den - b_num * den_pr / den**2

    direct = 0.5 * beta * d * (A - tt * A_pr) - (d / (2.0 * n)) * (
        beta - (n - 1) / R
    ) * (B - tt * B_pr)
    series = -d * (beta * R - 0.5) * t**2 / (2.0 * R)
    out = np.where(near, series, direct)
    return out if out.ndim else float(out)


def lemma_gamma_bounds(n: int, t: float):
    """Boolean evaluations of the elementary gamma inequalities at t > 1.

    Returns ``(lower_ok, upper_ok, ratio_monotone_sample, estimate2_ok)``:

    * lower_ok / upper_ok: the two-sided bound
      (t^(n-1)-1)/((n-1) t^(n-1)) <= gamma(t) <= (t^n-1)/(n t^(n-1)),
    * ratio_monotone_sample: a forward difference, with step 1e-6, of
      t -> t^(n-1) gamma(t) / (t^(n-1) - 1) is nonnegative,
    * estimate2_ok: the sharper estimate
      (n - 1/2) (t^(2n-2) gamma(t)/(t^n - 1) - 1/n)
          >= t^(n-1) (t^(n-1)-1)/(t^n - 1) - (n-1)/(n t).

    Stated for n >= 2 (for n = 1 the ratios degenerate).
    """
    n = _check_dimension(n)
    if n < 2:
        raise ValueError("lemma_gamma_bounds requires n >= 2")
    t = float(t)
    if t <= 1.0:
        raise ValueError("lemma_gamma_bounds requires t > 1")
    g = gamma(n, t)
    lower = (t ** (n - 1) - 1.0) / ((n - 1) * t ** (n - 1))
    upper = (t**n - 1.0) / (n * t ** (n - 1))
    lower_ok = bool(lower <= g * (1 + 1e-15) + 1e-15)
    upper_ok = bool(g <= upper * (1 + 1e-15) + 1e-15)

    def ratio(x):
        return x ** (n - 1) * gamma(n, x) / (x ** (n - 1) - 1.0)

    ratio_monotone_sample = bool(ratio(t + 1e-6) - ratio(t) >= -1e-12)

    lhs = (n - 0.5) * (t ** (2 * n - 2) * g / (t**n - 1.0) - 1.0 / n)
    rhs = t ** (n - 1) * (t ** (n - 1) - 1.0) / (t**n - 1.0) - (n - 1) / (n * t)
    estimate2_ok = bool(lhs >= rhs - 1e-12)
    return lower_ok, upper_ok, ratio_monotone_sample, estimate2_ok
