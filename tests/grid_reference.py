"""Per-grid-point references for the tests.

The verifier checks the divergence at the ends of each region's stretch
of a fibre, from the polynomials in ``t`` that each region declares.
These helpers compute what it checks the direct way, to test it against:
the divergence at every point of a ``pos x t`` grid, a central
difference of ``psi`` along ``pos``, and each region's ``psi``,
``phi_t`` and ``dpsi_dpos`` written out as closed-form callables of
``(pos, t)``.
"""

import numpy as np

from calx.calibration_fields import affine_profile, radial_shell_profile
from calx.potentials import _G_prime, _K_factor, robin_bracket


def central_difference(field, P, T, h):
    """Central difference of ``psi`` along ``pos`` at the grid ``P x T``, step ``h``.

    Also returns where the stencil stays inside the domain and in the
    region of its centre.
    """

    lo, hi = field.pos_range
    ridx = field.region_index(P, T)
    ok = (P - h >= lo) & (P + h <= hi)
    sides = []
    for step in (h, -h):
        idx, psi = field._sample(np.clip(P + step, lo, hi), T, "psi")
        ok = ok & (idx == ridx)
        sides.append(psi)
    return (sides[0] - sides[1]) / (2.0 * h), ok


def grid_divergence(field, P, T, dpsi=None):
    """``|div|`` at every point of the grid ``P x T``, and where ``psi`` and
    ``phi_t`` are finite (elsewhere it reads 0).

    Each point takes its region's coefficients at its own ``s = t -
    anchor``: ``d0 + d1 s + c1 + 2 c2 s``, plus ``(n-1) psi / r`` on a radial
    field.  ``dpsi`` replaces the regions' ``d0 + d1 s`` when given.  Also
    returns the largest magnitude of a term of the sum at each point, the
    scale of its rounding.
    """

    P, T = np.broadcast_arrays(P, T)
    ridx = field.region_index(P, T)
    psi, phi_t = field.evaluate(P, T)
    valid = np.isfinite(psi) & np.isfinite(phi_t)
    div, scale = np.zeros(P.shape), np.zeros(P.shape)
    for k, region in enumerate(field.regions):
        at = (ridx == k) & valid
        p, s = P[at], T[at] - region.anchor
        p0, p1, _, c1, c2, d0, d1 = region.coeffs(p)
        terms = [d0 + d1 * s if dpsi is None else dpsi[at], c1 + 2.0 * c2 * s]
        if field.geometry == "radial":
            terms.append((field.n - 1) * (p0 + p1 * s) / p)
        terms = np.broadcast_arrays(p, *terms)[1:]
        div[at] = np.abs(sum(terms))
        scale[at] = np.max(np.abs(terms), axis=0)
    return div, valid, scale


def _template_callables(field):
    """The four bands of a field over a harmonic profile: the affine profile on
    an interval, the Robin-optimal shell ``1 <= r <= pos_range[1]`` radially."""

    params = field.params
    m, M, lam, tau = (params[k] for k in ("m", "M", "lambda", "tau"))
    if field.geometry == "interval":
        profile = affine_profile(m, M)
    else:
        profile = radial_shell_profile(field.n, params["beta"], field.pos_range[1])
    value, gcomp, gprime = profile.value, profile.grad_component, profile.grad_prime

    def w_of(pos):
        return (value(pos) - m) / tau

    def factor(pos):
        return gcomp(pos) / tau

    def above_dpsi(pos, t):
        w = w_of(pos)
        return (2.0 * (M - t) / (1.0 - w) ** 2 * (gcomp(pos) / tau) ** 2
                + 2.0 * (M - t) / (1.0 - w) * gprime(pos) / tau)

    below_phi_t = lambda pos, t: (lam * m) ** 2 * factor(pos) ** 2  # noqa: E731
    return {
        "below-data": (lambda pos, t: -2.0 * lam * t * factor(pos), below_phi_t,
                       lambda pos, t: -2.0 * lam * t * gprime(pos) / tau),
        "lower-band": (lambda pos, t: -2.0 * lam * m * factor(pos), below_phi_t,
                       lambda pos, t: -2.0 * lam * m * gprime(pos) / tau),
        "graph-band": (lambda pos, t: 2.0 * gcomp(pos), lambda pos, t: gcomp(pos) ** 2,
                       lambda pos, t: 2.0 * gprime(pos)),
        "above-graph": (lambda pos, t: 2.0 * (M - t) / (1.0 - w_of(pos)) * factor(pos),
                        lambda pos, t: ((M - t) / (1.0 - w_of(pos))) ** 2 * factor(pos) ** 2,
                        above_dpsi),
    }


def _zero(pos, t):
    return np.zeros(np.broadcast_shapes(np.shape(pos), np.shape(t)))


def _radial_callables(field):
    """The regions of the indicator and ball fields."""

    n, beta = field.n, field.params["beta"]
    below = (lambda pos, t: -2.0 * beta * t + 0.0 * pos,
             lambda pos, t: (n - 1) * beta * t ** 2 / pos, _zero)

    def above(level):
        return (lambda pos, t: -2.0 * (1.0 - t) * _K_factor(n, pos),
                lambda pos, t: (1.0 - t) ** 2 * _K_factor(n, pos) ** 2 - level(pos),
                lambda pos, t: 2.0 * (1.0 - t) * _K_factor(n, pos) ** 2 * _G_prime(n, pos))

    out = {
        "whole-domain": (lambda pos, t: -2.0 * beta * t * pos ** (1 - n), _zero,
                         lambda pos, t: 2.0 * (n - 1) * beta * t * pos ** (-n)),
        "below-trace": below,
        "above-trace": above(lambda pos: robin_bracket(n, beta, pos)),
    }
    if field.kind == "ball-harmonic":
        R, dR, gamma_sq = field.params["R"], field.params["delta_R"], field.gamma_sq_term
        shell = radial_shell_profile(n, beta, R)
        out.update({
            "inner-below-trace": below,
            "inner-transition": (lambda pos, t: -2.0 * beta * dR + 0.0 * (pos + t),
                                 lambda pos, t: (n - 1) * beta * dR * (2.0 * t - dR) / pos,
                                 _zero),
            "inner-gradient": (lambda pos, t: 2.0 * shell.grad_component(pos) + 0.0 * t,
                               lambda pos, t: (shell.sup_grad ** 2 * pos ** (2 - 2 * n)
                                               - gamma_sq + 0.0 * t),
                               lambda pos, t: 2.0 * shell.grad_prime(pos) + 0.0 * t),
            "inner-above-graph": above(lambda pos: gamma_sq),
            "outer-below-trace": below,
            "outer-above-trace": out["above-trace"],
        })
    return out


def region_callables(field):
    """Each region's ``(psi, phi_t, dpsi_dpos)`` as closed-form callables of
    ``(pos, t)``, in the order of ``field.regions``."""

    if field.kind in ("1d", "harmonic"):
        if field.params["tau"] == 0.0:
            return [(_zero, _zero, _zero)]
        table = _template_callables(field)
    else:
        table = _radial_callables(field)
    return [table[region.name] for region in field.regions]
