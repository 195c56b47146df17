"""Per-grid-point divergence references for the tests.

The verifier checks the divergence at the ends of each region's stretch
of a fibre.  These helpers compute it the direct way, at every point of a
``pos x t`` grid, to test that check against: the regions' own
derivatives, or a central difference of ``psi`` along ``pos``.
"""

import numpy as np


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

    ``dpsi`` replaces the regions' ``dpsi_dpos`` when given.  Also returns
    the largest magnitude of a term of the sum at each point, the scale of
    its rounding.
    """

    P, T = np.broadcast_arrays(P, T)
    ridx = field.region_index(P, T)
    psi, phi_t = field.evaluate(P, T)
    valid = np.isfinite(psi) & np.isfinite(phi_t)
    div, scale = np.zeros(P.shape), np.zeros(P.shape)
    h = field.t_max
    for k, region in enumerate(field.regions):
        at = (ridx == k) & valid
        p, t = P[at], T[at]
        terms = [region.dpsi_dpos(p, t) if dpsi is None else dpsi[at],
                 (region.phi_t(p, t + h) - region.phi_t(p, t - h)) / (2.0 * h)]
        if field.geometry == "radial":
            terms.append((field.n - 1) * region.psi(p, t) / p)
        div[at] = np.abs(sum(terms))
        scale[at] = np.max(np.abs(np.broadcast_arrays(*terms)), axis=0)
    return div, valid, scale
