"""Per-grid-point references for the tests.

The verifier checks the divergence at the ends of each region's stretch
of a fibre, from the polynomials in ``t`` that each region declares.
These helpers compute what it checks the direct way, to test it against:
the divergence at every point of a ``pos x t`` grid, a central
difference of ``psi`` along ``pos``, each region's ``psi``, ``phi_t`` and
``dpsi_dpos`` written out as closed-form callables of ``(pos, t)``, and
the field's values sampled block by block, the region index with them,
the way the verifier's grid pass did before it built one table of its
fibres per pass, and the divergence at the stretch ends with the claim
rule applied to the tops, as the verifier did before that table held the
stretches.
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
        at = np.clip(P + step, lo, hi)
        ok = ok & (field.region_index(at, T) == ridx)
        sides.append(field.evaluate(at, T)[0])
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


def _poly(coeffs, s, s2=None):
    """``sum_k coeffs[k] s^k`` for up to three coefficients, ``s2`` being ``s^2``;
    a coefficient that is the scalar 0 is skipped."""
    terms = [c if k == 0 else c * (s if k == 1 else s2) for k, c in enumerate(coeffs)
             if not (isinstance(c, (int, float)) and c == 0)]
    return sum(terms[1:], terms[0]) if terms else 0.0


def _put(out, rows, cols, where, value):
    """Write ``value`` into ``out[rows, cols]`` where ``where`` holds."""
    if isinstance(rows, slice):
        np.copyto(out[rows, cols], value, where=where)
    else:
        out[rows, cols] = np.where(where, value, out[rows, cols])


def _stretches(field, tops):
    """Each region's stretch ``(lo, hi)``: the running maxima of the tops below
    it and up to it, clipped to ``[0, t_max]``."""
    lo, out = np.zeros(np.shape(tops[0])), []
    for top in tops:
        hi = np.minimum(np.maximum(lo, top), field.t_max)
        out.append((lo, hi))
        lo = hi
    return out


def reference_divergence(field, pos):
    """The divergence at both ends of every region's stretch of the fibres
    at ``pos`` (1-d), each region's tops and ``coeffs`` evaluated anew, the
    way the verifier formed it before the pass's table held the stretches:
    ``(claimed, div, ends)``, ``claimed`` each region's fibres where it
    claims a point of ``[0, t_max]``.  An end of any other stretch reads 0."""

    P = pos[:, None]
    tops = [np.broadcast_to(np.asarray(region.top(P), dtype=float), P.shape)
            for region in field.regions]
    div = np.zeros((pos.size, len(tops), 2))
    ends = np.empty_like(div)
    claimed, closed = [], np.False_  # closed: where a region below claims lo itself
    for k, (region, top, (lo, hi)) in enumerate(zip(field.regions, tops, _stretches(field, tops))):
        ends[:, k, 0], ends[:, k, 1] = lo[:, 0], hi[:, 0]
        # the region claims a point where hi > lo, and lo alone where hi == lo
        # and its condition holds at lo; a NaN end leaves the stretch unknown
        at_lo, at_hi = (lo < top, hi < top) if region.strict else (lo <= top, hi <= top)
        rows = np.flatnonzero(~(hi <= lo) | (at_lo & ~closed))
        closed = at_hi | (closed & (hi == lo))
        claimed.append(rows)
        if rows.size:
            p = pos[rows, None]
            p0, p1, _, c1, c2, d0, d1 = region.coeffs(p)
            if field.geometry == "radial":
                d0, d1 = d0 + (field.n - 1) * p0 / p, d1 + (field.n - 1) * p1 / p
            div[rows, k] = np.abs(_poly((d0 + c1, d1 + 2.0 * c2), ends[rows, k] - region.anchor))
    return claimed, div, ends


def reference_sample(field, pos, t, *quantities):
    """``(index, *values)`` of ``quantities`` (``psi``, ``phi_t``, ``Psi``) at
    ``pos x t``, each region's ``coeffs`` run on the fibres it touches and the
    integrals of the stretches below formed anew at every call.  The index
    is read from each region's run of columns, a definition independent of
    the claim rule that ``region_index`` applies point by point."""

    pos, t = np.asarray(pos, dtype=float), np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(pos.shape, t.shape)
    if not (pos.ndim == t.ndim == 2 and pos.shape[1] == 1 and t.shape[0] == 1
            and np.all(t[0, 1:] >= t[0, :-1])):
        pos = np.broadcast_to(pos, shape).reshape(-1, 1)
        t = np.broadcast_to(t, shape).reshape(-1, 1)
    P, N = pos.shape[0], t.shape[1]
    idx, *values = (np.empty((P, N), dtype=int), *(np.empty((P, N)) for _ in quantities))
    tops = [np.broadcast_to(np.asarray(region.top(pos), dtype=float), (P, 1))
            for region in field.regions]
    stretches = _stretches(field, tops) if "Psi" in quantities else None
    counts = [np.searchsorted(t[0], np.fmax(top[:, 0], -np.inf),
                              "left" if region.strict else "right") if t.shape[0] == 1
              else ((t < top) if region.strict else (t <= top))[:, 0]
              for region, top in zip(field.regions, tops)]
    unclaimed = np.max(counts, axis=0, initial=0) < N
    idx[unclaimed] = -1
    for array in values:
        array[unclaimed] = np.nan
    below, columns, end = np.zeros((P, 1)), np.arange(N), np.zeros(P, dtype=np.intp)
    for k, (region, count) in enumerate(zip(field.regions, counts)):
        start, end = end, np.maximum(end, count)
        rows = np.flatnonzero(end > start)
        if rows.size:
            if rows[-1] - rows[0] + 1 == rows.size:
                rows = slice(rows[0], rows[-1] + 1)
            a, b = start[rows, None], end[rows, None]
            cols = slice(a.min(), b.max())
            pk, tk = pos[rows], t[:, cols] if t.shape[0] == 1 else t[rows, cols]
            mk = (b.min() - a.max() == cols.stop - cols.start
                  or (columns[cols] >= a) & (columns[cols] < b))
            _put(idx, rows, cols, mk, k)
            if quantities:
                coeffs, s = region.coeffs(pk), tk - region.anchor
                psi = _poly(coeffs[:2], s)
            for name, array in zip(quantities, values):
                if name == "psi":
                    value = psi
                elif name == "Psi":
                    lo = stretches[k][0][rows]
                    value = below[rows] + 0.5 * (tk - lo) * (
                        _poly(coeffs[:2], lo - region.anchor) + psi)
                else:
                    value = _poly(coeffs[2:5], s, s * s)
                _put(array, rows, cols, mk, value)
        if stretches is not None:
            lo, hi = stretches[k]
            whole = (hi > lo) & (end < N)[:, None]
            if whole.any():
                a, b, affine = lo[whole], hi[whole], region.coeffs(pos[whole])[:2]
                below[whole] += 0.5 * (b - a) * (_poly(affine, a - region.anchor)
                                                 + _poly(affine, b - region.anchor))
    if "phi_t" in quantities and field.phi_t_bump is not None:
        pos0, t0, amount, hw_pos, hw_t = field.phi_t_bump
        box = (np.abs(pos - pos0) <= hw_pos) & (np.abs(t - t0) <= hw_t)
        values[quantities.index("phi_t")][box] += amount
    return tuple(v.reshape(shape) for v in (idx, *values))
