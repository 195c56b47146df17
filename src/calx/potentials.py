"""Closed-form radial potentials for the exterior of the unit ball.

The building blocks used everywhere else in the package:

* ``gamma``        -- the exterior harmonic potential with zero boundary
                      trace on the unit sphere,
* ``delta_robin``  -- the optimal Robin trace on a sphere of radius R,
* ``robin_bracket`` -- (beta^2 - (n-1) beta / r) delta(r)^2, the term the
                      critical-radius identity sets equal to gamma^2,
* ``robin_bracket_sup`` -- its supremum over all r >= 1 and where it is
                      reached,
* ``u_radial``     -- the radial competitor supported on B_R,
* ``rho``          -- the interface curve that makes the ball calibration
                      divergence-free,
* ``lemma_gamma_bounds`` -- elementary inequalities satisfied by gamma.

All functions accept scalars or numpy arrays for the radius argument and
branch explicitly on the dimension (n = 1, n = 2, n >= 3).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize_scalar

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


def gamma(n: int, r):
    """Exterior potential: r-1 (n=1), ln r (n=2), (1-r^(2-n))/(n-2) (n>=3).

    Harmonic and positive outside the closed unit ball, zero on the unit
    sphere, strictly increasing in r.  Requires r >= 1.
    """
    n = _check_dimension(n)
    r = np.asarray(r, dtype=float)
    if np.any(r < 1.0):
        raise ValueError("gamma is defined for r >= 1")
    if n == 1:
        out = r - 1.0
    elif n == 2:
        out = np.log(r)
    else:
        out = (1.0 - r ** (2 - n)) / (n - 2)
    return out if out.ndim else float(out)


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
    if beta <= 0:
        raise ValueError("beta must be positive")
    R = np.asarray(R, dtype=float)
    if np.any(R < 1.0):
        raise ValueError("delta_robin is defined for R >= 1")
    out = 1.0 / (1.0 + beta * R ** (n - 1) * gamma(n, R))
    return out if out.ndim else float(out)


def delta_robin_prime(n: int, beta: float, r):
    """d/dr of delta_robin at radius r.

    With G(r) = r^(n-1) gamma(r) one has delta' = -beta G' delta^2 and
    G'(r) = (n-1) r^(n-2) gamma(r) + 1, which covers n = 1 as well.
    """
    n = _check_dimension(n)
    r = np.asarray(r, dtype=float)
    d = delta_robin(n, beta, r)
    g_prime = (n - 1) * r ** (n - 2) * gamma(n, r) + 1.0
    out = -beta * g_prime * np.asarray(d) ** 2
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
_SUP_NODES = 100_001  # grid nodes of the one scan behind robin_bracket_sup


def _robin_tail(n: int, beta: float, level: float, r: float) -> float:
    """First r 2^k (k >= 0) with beta delta <= level: the bracket, at most
    beta^2 delta^2, stays at or below level^2 from there on."""
    while beta * delta_robin(n, beta, r) > level:
        r *= 2.0
        # stop before r^(n-1), beta r^(n-1) or beta r^(n-1) gamma(r) in delta overflows
        if (n - 1) * np.log(r) + np.log(max(beta, 1.0) * max(gamma(n, r), 1.0)) > _LOG_FLOAT_MAX:
            raise OverflowError("beta delta(r) stays above {!r} within the float range".format(level))
    return r


def robin_bracket_sup(n: int, beta: float) -> tuple[float, float]:
    """Supremum of robin_bracket over all r >= 1, as ``(r, value)``.

    The bracket is positive at r0 = max(1, 2(n-1)/beta) and stays below
    bracket(r0) past r_hat = _robin_tail(n, beta, sqrt(bracket(r0)), 2 r0).
    So [1, r_hat] is scanned on a fixed grid, and the larger of the grid
    maximum and its refinement on the two cells around it is returned.
    """
    n = _check_dimension(n)
    r0 = max(1.0, 2.0 * (n - 1) / beta)
    r_hat = _robin_tail(n, beta, np.sqrt(robin_bracket(n, beta, r0)), 2.0 * r0)
    grid = np.linspace(1.0, r_hat, _SUP_NODES)
    bracket = robin_bracket(n, beta, grid)
    k = int(np.argmax(bracket))
    cells = (grid[max(k - 1, 0)], grid[min(k + 1, _SUP_NODES - 1)])
    res = minimize_scalar(lambda r: -robin_bracket(n, beta, r), bounds=cells,
                          method="bounded", options={"xatol": 1e-12 * r_hat})
    if -res.fun > bracket[k]:
        return float(res.x), float(-res.fun)
    return float(grid[k]), float(bracket[k])


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


def _rho_series(n: int, beta: float, R: float, d: float, s):
    """First-order expansion of rho around r = R, in s = R/r - 1."""
    return d * (1.0 + 0.5 * (beta * R - 0.5) * s)


def rho(n: int, beta: float, R: float, r, *, guard: float = 1e-8):
    """Interface curve of the ball calibration on 1 <= r < R.

    For n = 1 the curve is the constant delta(R).  For n >= 2 it is, with
    t = R/r,

        rho(r) = delta(R)/2
               + (beta delta(R) r / 2) * t^(2n-2) gamma(t) / (t^(n-1) - 1)
               - (delta(R) r / (2n)) (beta - (n-1)/R) (t^n - 1) / (t^(n-1) - 1).

    The formula is 0/0 at r = R; within ``guard`` of that point the value is
    taken from the first-order expansion around the limit delta(R), which
    avoids catastrophic cancellation.  Radii r in [1, R) are accepted, plus
    r = R itself as the explicit limit.
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
    t = R / r
    s = t - 1.0
    near = s < guard
    tt = np.where(near, 2.0, t)  # placeholder to keep the formula finite
    a_num = tt ** (2 * n - 2) * gamma(n, tt)
    b_num = tt ** n - 1.0
    den = tt ** (n - 1) - 1.0
    direct = (
        0.5 * d
        + 0.5 * beta * d * r * a_num / den
        - (d * r / (2.0 * n)) * (beta - (n - 1) / R) * b_num / den
    )
    out = np.where(near, _rho_series(n, beta, R, d, s), direct)
    return out if out.ndim else float(out)


def rho_prime(n: int, beta: float, R: float, r, *, guard: float = 1e-6):
    """d/dr of rho on [1, R).

    Differentiates the closed form through t = R/r:

        drho/dr = (beta delta(R)/2) [A(t) - t A'(t)]
                - (delta(R)/(2n)) (beta - (n-1)/R) [B(t) - t B'(t)]

    with A(t) = t^(2n-2) gamma(t) / (t^(n-1) - 1) and
    B(t) = (t^n - 1) / (t^(n-1) - 1).  Near r = R the expansion
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
    t = R / r
    s = t - 1.0
    near = s < guard
    tt = np.where(near, 2.0, t)

    g = gamma(n, tt)
    g_pr = tt ** (1 - n)
    den = tt ** (n - 1) - 1.0
    den_pr = (n - 1) * tt ** (n - 2)

    a_num = tt ** (2 * n - 2) * g
    a_num_pr = (2 * n - 2) * tt ** (2 * n - 3) * g + tt ** (2 * n - 2) * g_pr
    A = a_num / den
    A_pr = a_num_pr / den - a_num * den_pr / den**2

    b_num = tt**n - 1.0
    b_num_pr = n * tt ** (n - 1)
    B = b_num / den
    B_pr = b_num_pr / den - b_num * den_pr / den**2

    direct = 0.5 * beta * d * (A - tt * A_pr) - (d / (2.0 * n)) * (
        beta - (n - 1) / R
    ) * (B - tt * B_pr)
    series = -d * (beta * R - 0.5) * t**2 / (2.0 * R)
    out = np.where(near, series, direct)
    return out if out.ndim else float(out)


def lemma_gamma_bounds(n: int, t: float, *, step: float = 1e-6):
    """Boolean evaluations of the elementary gamma inequalities at t > 1.

    Returns ``(lower_ok, upper_ok, ratio_monotone_sample, estimate2_ok)``:

    * lower_ok / upper_ok: the two-sided bound
      (t^(n-1)-1)/((n-1) t^(n-1)) <= gamma(t) <= (t^n-1)/(n t^(n-1)),
    * ratio_monotone_sample: a forward difference of
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

    ratio_monotone_sample = bool(ratio(t + step) - ratio(t) >= -1e-12)

    lhs = (n - 0.5) * (t ** (2 * n - 2) * g / (t**n - 1.0) - 1.0 / n)
    rhs = t ** (n - 1) * (t ** (n - 1) - 1.0) / (t**n - 1.0) - (n - 1) / (n * t)
    estimate2_ok = bool(lhs >= rhs - 1e-12)
    return lower_ok, upper_ok, ratio_monotone_sample, estimate2_ok
