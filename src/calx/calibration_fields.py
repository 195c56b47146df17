"""Explicit divergence-free calibration fields.

A calibration is a bounded, piecewise-smooth vector field
``phi = (phi_x, phi_t)`` on ``domain x [0, t_max]`` that is divergence
free and satisfies the two pointwise axioms

* (a)  ``phi_t >= |phi_x|^2 / 4 - gamma^2 * 1_{(0,1]}(t)``,
* (b)  ``|integral_r^s phi_x dt| <= beta (r^2 + s^2)`` for all pairs,

together with matching conditions on the graph of the calibrated
function.  All fields built here are directed along a single unit
direction (``e_x`` on an interval, ``e_r`` radially), so ``phi_x`` is
stored as a signed scalar component.

Every builder returns a :class:`PiecewiseField` made of closed-form
regions stacked bottom to top in ``t``, each bounded above by a curve
``t = top(pos)``.  A point belongs to the first region whose top it does
not exceed, and the region just below the calibrated graph has the graph
as its top, so it claims the graph itself, which makes the graph
matching conditions hold exactly on the sampled points.  ``Psi`` is not
written out anywhere: the field integrates ``psi`` between the tops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from calx.potentials import (_G_prime, _K_factor, _check_dimension, _weights, delta_robin,
                             delta_robin_prime, rho, rho_prime, robin_bracket, robin_bracket_sup,
                             u_radial)

__all__ = [
    "PiecewiseField",
    "Region",
    "Interface",
    "CalibParams1D",
    "CalibratedFunction",
    "HarmonicProfile",
    "HypothesisViolation",
    "affine_profile",
    "radial_shell_profile",
    "choose_lambda",
    "build_field_harmonic",
    "build_field_indicator_const",
    "build_field_indicator_two_piece",
    "build_field_ball_harmonic",
]


def _scalar_or_array(out, cast=float):
    return cast(out) if out.ndim == 0 else out


def _poly(coeffs, s, s2=None, out=None):
    """``sum_k coeffs[k] s^k`` for up to three coefficients, ``s2`` being ``s^2``,
    into ``out`` if given; a coefficient that is the scalar 0 is skipped.  The
    first two terms are added the other way round, a power first, which changes
    no bit (``x + y`` is ``y + x``), and then the third."""
    terms = [(c, (None, s, s2)[k]) for k, c in enumerate(coeffs)
             if not (isinstance(c, (int, float)) and c == 0)] or [(0.0, None)]
    (c, power), *rest = terms[1::-1] + terms[2:]
    out = np.multiply(c, 1.0 if power is None else power, out=out)
    for c, power in rest:
        out += c if power is None else c * power
    return out


def _pick(values, keep):
    """Each array of ``values``, a row per fibre, on the fibres ``keep``; a scalar as it is."""
    return tuple(v[keep] if isinstance(v, np.ndarray) else v for v in values)


def _block(fibres, i, j):
    """Fibres ``i`` to ``j - 1`` of a grid's table (``PiecewiseField._fibres``), no stretches."""
    pos, t, unclaimed, runs, _ = fibres
    spans = [(run, slice(*np.searchsorted(run[0], (i, j)))) for run in runs]
    return (pos[i:j], t, unclaimed[i:j],
            [(rows[at] - i, a[at], b[at], _pick(coeffs, at), terms and _pick(terms, at))
             for (rows, a, b, coeffs, terms), at in spans], None)


def _zero_at(pos):
    return np.zeros_like(np.asarray(pos, dtype=float))


def _unbounded(pos):
    return np.full_like(np.asarray(pos, dtype=float), np.inf)


def _inside(R, curve):
    """The top that follows ``curve`` on ``pos <= R`` and is ``-inf`` past ``R``."""

    def top(pos):
        pos = np.asarray(pos, dtype=float)
        out = np.full_like(pos, -np.inf)
        inside = pos <= R
        out[inside] = curve(pos[inside])
        return out

    return top


@dataclass(frozen=True)
class Region:
    """One closed-form piece of a field.

    ``top`` is a vectorized callable of ``pos``: the region owns the
    points with ``t <= top(pos)`` (``t < top(pos)`` when ``strict``) that
    no earlier region owns, and a top of ``-inf`` keeps it off a position.
    ``coeffs`` is a vectorized callable of ``pos`` that returns the
    region's polynomials in ``s = t - anchor``, ``(p0, p1, c0, c1, c2, d0,
    d1)``: ``psi = p0 + p1 s`` is the signed component of ``phi_x`` along
    the field direction, ``phi_t = c0 + c1 s + c2 s^2``, and ``d0 + d1 s``
    is the analytic spatial derivative of ``psi``.  Each coefficient is an
    array that broadcasts against ``pos`` or a scalar, and a scalar 0 is
    skipped.  A pass runs ``top`` once on every position and ``coeffs`` once
    on the fibres the region touches, claims or ``Psi`` integrates it over,
    ``pos`` of shape ``(P, 1)``, and hands each block its slice: both must
    be elementwise in ``pos``, and ``coeffs`` finite, raising no warning,
    there.  ``anchor`` is the level at which the factors of the polynomials
    vanish, if any (a top such as ``t = M``): expanded about it, ``(M -
    t)^2 q^2`` is ``q^2 s^2`` and keeps its relative precision near that top.
    ``top_prime`` is the analytic slope of ``top`` where the top is a curve
    along which an :class:`Interface` checks the flux, else ``None``.
    """

    name: str
    condition: str
    top: Callable
    coeffs: Callable
    psi_formula: str = ""
    phi_t_formula: str = ""
    strict: bool = False
    anchor: float = 0.0
    top_prime: Optional[Callable] = None


@dataclass(frozen=True)
class Interface:
    """A curve separating two regions, used for flux continuity checks.

    ``kind`` is ``'graph'`` for the top, over ``pos_range``, of the field's
    region named ``region``, which must declare ``top_prime``, or
    ``'sphere'`` for a vertical interface ``pos = radius``.
    """

    name: str
    kind: str
    pos_range: tuple = (0.0, 1.0)
    region: Optional[str] = None
    radius: float = 0.0
    description: str = ""


class HypothesisViolation(Exception):
    """Raised when a construction's sufficient conditions fail.

    ``location`` optionally records where the failure was detected
    (a radius, a trace value, ...) and ``details`` carries numbers
    useful for error messages.
    """

    def __init__(self, reason, location=None, details=None):
        super().__init__(reason)
        self.reason = reason
        self.location = location
        self.details = dict(details or {})


@dataclass(frozen=True)
class PiecewiseField:
    """A piecewise closed-form candidate calibration.

    ``geometry`` is ``'interval'`` (field along ``e_x``) or ``'radial'``
    (field along ``e_r`` in dimension ``n``).  ``regions`` are ordered
    bottom to top, and a point belongs to the first region whose top it
    does not exceed, so along each fibre region ``k`` spans the stretch
    from the running maximum of the tops below it to its own top.
    ``Psi`` adds up the exact integrals of ``psi`` over these stretches.
    ``params`` holds the defining scalars for reporting,
    ``gamma_sq_term`` is the ``gamma^2`` appearing in axiom (a) (zero for
    Dirichlet-type fields) and ``calibrated`` is the
    :class:`CalibratedFunction` the builder calibrates (``None`` when
    there is none).
    ``phi_t_bump`` supports soundness tests: a tuple
    ``(pos0, t0, amount, pos_halfwidth, t_halfwidth)`` adds ``amount``
    to ``phi_t`` inside the given box.
    """

    kind: str
    geometry: str
    n: int
    pos_range: tuple
    t_max: float
    gamma_sq_term: float
    params: dict
    regions: tuple
    interfaces: tuple = ()
    calibrated: Optional[CalibratedFunction] = None
    phi_t_bump: Optional[tuple] = None

    def __post_init__(self):
        slopes = {region.name: region.top_prime for region in self.regions}
        for interface in self.interfaces:
            if interface.kind == "graph" and slopes.get(interface.region) is None:
                raise ValueError("graph interface {!r} names {!r}, not a region of the field "
                                 "with top_prime".format(interface.name, interface.region))

    def _fibres(self, pos, t, stretches=False):
        """The table of the fibres of ``pos x t``: ``(pos, t, unclaimed, runs, stretches)``.

        A grid is ``pos`` of shape ``(P, 1)`` against one sorted row ``t``
        of shape ``(1, N)``; any other points are one-point fibres, ``(K, 1)``
        each.  Every top runs once, and region ``k`` claims the run ``[a,
        b)`` of columns of a fibre past those below (its condition holds on
        a prefix), found by a binary search of its top in the row.  Its
        stretch ``[lo, hi]`` spans the running maxima of the tops below it
        and up to it, clipped to ``[0, t_max]``, NaN from a NaN top up.  Its
        run ``(rows, a, b, coeffs, terms)`` lists the fibres it touches and
        its ``coeffs`` there; with ``stretches``, ``terms`` is ``(lo, below,
        psi(lo))``, the trapezoids of the stretches below, and its entry
        ``(lo, hi, rows, coeffs)`` of ``stretches`` (else ``None``) gives its
        stretch on every fibre and ``coeffs`` where it claims a point of
        ``[0, t_max]``, all from one call of its ``coeffs``.
        """
        pos, t = np.asarray(pos, dtype=float), np.asarray(t, dtype=float)
        if not (pos.ndim == t.ndim == 2 and pos.shape[1] == 1 and t.shape[0] == 1
                and np.all(t[0, 1:] >= t[0, :-1])):  # NaN fails the test
            shape = np.broadcast_shapes(pos.shape, t.shape)
            pos = np.broadcast_to(pos, shape).reshape(-1, 1)
            t = np.broadcast_to(t, shape).reshape(-1, 1)
        P, N = pos.shape[0], t.shape[1]
        tops = [np.broadcast_to(np.asarray(region.top(pos), dtype=float), (P, 1))
                for region in self.regions]
        counts = [np.searchsorted(t[0], np.fmax(top[:, 0], -np.inf),  # a NaN top claims nothing
                                  "left" if region.strict else "right") if t.shape[0] == 1
                  else ((t < top) if region.strict else (t <= top))[:, 0]
                  for region, top in zip(self.regions, tops)]
        lo, below, closed = np.zeros((P, 1)), np.zeros((P, 1)), np.False_
        end, runs, claims = np.zeros(P, dtype=np.intp), [], []
        for region, top, count in zip(self.regions, tops, counts):
            hi = np.minimum(np.maximum(lo, top), self.t_max)
            start, end = end, np.maximum(end, count)
            # with stretches, whole: where a point of a region above reads the trapezoid;
            # claimed: where hi > lo, and at lo alone where the condition holds there
            # unless a region below claims lo (closed); a NaN end leaves it unknown
            at_lo, at_hi = (lo < top, hi < top) if region.strict else (lo <= top, hi <= top)
            touched, whole = end > start, (hi > lo)[:, 0] & (end < N) & stretches
            claimed = (~(hi <= lo) | (at_lo & ~closed))[:, 0] & stretches
            closed = at_hi | (closed & (hi == lo))
            rows = np.flatnonzero(touched | whole | claimed)
            coeffs = tuple(np.broadcast_to(c, (rows.size, 1)) if isinstance(c, np.ndarray) else c
                           for c in region.coeffs(pos[rows])) if rows.size else ()
            run, at = rows[touched[rows]], rows[whole[rows]]
            claims.append((lo, hi, rows[claimed[rows]], _pick(coeffs, claimed[rows])))
            affine, coeffs = _pick(coeffs[:2], whole[rows]), _pick(coeffs, touched[rows])
            terms = stretches and (lo[run], below[run], _poly(coeffs[:2], lo[run] - region.anchor))
            runs.append((run, start[run, None], end[run, None], coeffs, terms))
            if at.size:
                a, b = lo[at], hi[at]
                below[at] += 0.5 * (b - a) * (_poly(affine, a - region.anchor)
                                              + _poly(affine, b - region.anchor))
            lo = hi
        return pos, t, np.max(counts, axis=0, initial=0) < N, runs, claims if stretches else None

    def _sample(self, pos, t, *quantities, out=None, fibres=None):
        """Each of ``quantities`` at the points ``pos x t``, in their broadcast shape.

        ``quantities`` names ``psi``, ``phi_t`` (with ``phi_t_bump``) or
        ``Psi``, NaN where no region claims the point.  ``fibres`` is
        :meth:`_fibres` of these points or a block of a pass's table.  Each
        region forms ``sum_k c_k s^k`` over the columns its runs span, in the
        array itself where they fill the span on consecutive fibres, else
        aside and then through their mask.  ``out`` holds one array per
        quantity with ``N`` columns and ``P`` or more rows.  ``Psi``
        integrates ``psi`` from 0, adding ``(t - lo) (psi(lo) + psi(t)) / 2``
        to the trapezoids below: exact, as ``psi`` is affine in ``t``.
        """
        shape = np.broadcast_shapes(np.shape(pos), np.shape(t))
        pos, t, unclaimed, runs, _ = fibres or self._fibres(pos, t, "Psi" in quantities)
        P, N = pos.shape[0], t.shape[1]
        if out is None:
            out = [np.empty((P, N)) for _ in quantities]
        values = [array[:P] for array in out]
        for array in values:
            array[unclaimed] = np.nan
        columns = np.arange(N)
        for region, (rows, a, b, coeffs, terms) in zip(self.regions, runs):
            if not rows.size:
                continue
            if rows[-1] - rows[0] + 1 == rows.size:  # consecutive fibres: write through views
                rows = slice(rows[0], rows[-1] + 1)
            cols = slice(a.min(), b.max())
            tk = t[:, cols] if t.shape[0] == 1 else t[rows, cols]
            s, span = tk - region.anchor, (a.shape[0], cols.stop - cols.start)
            full = bool(b.min() - a.max() == span[1])  # every run covers the whole span
            mask, psi = full or (columns[cols] >= a) & (columns[cols] < b), None
            inside = full and isinstance(rows, slice)  # formed in the array itself
            for name, array in zip(quantities, values):
                value = array[rows, cols] if inside else np.empty(span)
                if name == "psi" or psi is None and name == "Psi":
                    psi = _poly(coeffs[:2], s, out=value if name == "psi" else np.empty(span))
                if name == "phi_t":
                    _poly(coeffs[2:5], s, s * s, out=value)
                elif name == "Psi":
                    lo, below, psi_lo = terms
                    np.subtract(tk, lo, out=value)
                    value *= 0.5
                    value *= psi_lo + psi
                    value += below
                if isinstance(rows, slice) and not inside:
                    np.copyto(array[rows, cols], value, where=mask)
                elif not inside:
                    array[rows, cols] = np.where(mask, value, array[rows, cols])
        if "phi_t" in quantities and self.phi_t_bump is not None:
            pos0, t0, amount, hw_pos, hw_t = self.phi_t_bump
            box = (np.abs(pos - pos0) <= hw_pos) & (np.abs(t - t0) <= hw_t)
            values[quantities.index("phi_t")][box] += amount
        return tuple(v.reshape(shape) for v in values)

    def region_index(self, pos, t):
        """Index into ``self.regions`` of the first region whose condition holds at
        each point (``t < top(pos)`` if ``strict``, else ``t <= top(pos)``), else -1."""
        pos, t = np.asarray(pos, dtype=float), np.asarray(t, dtype=float)
        index = np.full(np.broadcast_shapes(pos.shape, t.shape), -1)
        for k, region in enumerate(self.regions):
            top = region.top(pos)
            index[((t < top) if region.strict else (t <= top)) & (index < 0)] = k
        return _scalar_or_array(index, int)

    def evaluate(self, pos, t):
        """Return ``(psi, phi_t)`` at the given points."""
        return tuple(_scalar_or_array(v) for v in self._sample(pos, t, "psi", "phi_t"))

    def Psi(self, pos, t):
        """Antiderivative ``integral_0^t phi_x dt'`` (signed component)."""
        return _scalar_or_array(self._sample(pos, t, "Psi")[0])

    def region_names(self):
        return tuple(region.name for region in self.regions)

    def to_description(self):
        """JSON-serializable summary of the construction."""
        return {
            "kind": self.kind,
            "geometry": self.geometry,
            "n": self.n,
            "pos_range": [float(self.pos_range[0]), float(self.pos_range[1])],
            "t_max": float(self.t_max),
            "gamma_sq_term": float(self.gamma_sq_term),
            "params": {k: (float(v) if isinstance(v, (int, float, np.floating)) else str(v))
                       for k, v in sorted(self.params.items())},
            "regions": [
                {
                    "name": r.name,
                    "condition": r.condition,
                    "phi_x": r.psi_formula,
                    "phi_t": r.phi_t_formula,
                }
                for r in self.regions
            ],
            "interfaces": [
                {
                    "name": i.name,
                    "kind": i.kind,
                    "description": i.description,
                }
                for i in self.interfaces
            ],
        }


@dataclass(frozen=True)
class HarmonicProfile:
    """Descriptor of a harmonic profile ``u`` calibrated by a field.

    ``value`` and ``grad_component`` are vectorized callables of the
    position; ``grad_component`` is the signed component of the gradient
    along the field direction and ``grad_prime`` its spatial derivative.
    ``sup_grad`` is ``sup |grad u|`` over the domain.
    """

    geometry: str
    n: int
    pos_range: tuple
    m: float
    M: float
    value: Callable
    grad_component: Callable
    grad_prime: Callable
    sup_grad: float


@dataclass(frozen=True)
class CalibratedFunction:
    """The function a field is supposed to calibrate.

    ``value`` and ``grad`` are vectorized callables of the position
    (``grad`` is the signed component along the field direction).
    ``jumps`` lists jump fibers as ``(pos, lo, hi, nu_sign)`` with
    ``lo < hi`` and ``nu_sign`` the component of the jump normal along
    the field direction.  The ``gamma^2`` of the graph condition on
    ``phi_t`` is the field's ``gamma_sq_term``.
    """

    value: Callable
    grad: Callable
    jumps: tuple = ()


# The unit-ball indicator on r >= 1: zero, with a jump up to 1 at r = 1.
_UNIT_BALL_INDICATOR = CalibratedFunction(value=_zero_at, grad=_zero_at,
                                          jumps=((1.0, 0.0, 1.0, -1.0),))


def affine_profile(m, M):
    """Affine profile ``u(x) = m + (M - m) x`` on ``[0, 1]``."""
    m = float(m)
    M = float(M)
    if not (np.isfinite(m) and np.isfinite(M) and m <= M):
        raise ValueError("traces must satisfy m <= M")
    slope = M - m

    def value(x):
        return m + slope * np.asarray(x, dtype=float)

    def grad_component(x):
        return np.full_like(np.asarray(x, dtype=float), slope)

    return HarmonicProfile(
        geometry="interval",
        n=1,
        pos_range=(0.0, 1.0),
        m=m,
        M=M,
        value=value,
        grad_component=grad_component,
        grad_prime=_zero_at,
        sup_grad=slope,
    )


def radial_shell_profile(n, beta, R):
    """Robin-optimal radial profile on the shell ``1 <= r <= R``.

    The profile decreases from 1 at ``r = 1`` to ``delta_robin(n, beta, R)``
    at ``r = R``; its gradient points inward (negative ``e_r`` component).
    """

    beta = _weights(beta)[0]
    R = float(R)
    if not 1.0 < R < np.inf:
        raise ValueError("R must be finite and greater than 1, got {!r}".format(R))
    dR = delta_robin(n, beta, R)
    amp = beta * dR * R ** (n - 1)

    def value(r):
        return u_radial(n, beta, R, r)[0]

    def grad_component(r):
        return -amp * np.asarray(r, dtype=float) ** (1 - n)

    def grad_prime(r):
        rr = np.asarray(r, dtype=float)
        return (n - 1) * amp * rr ** (-n)

    return HarmonicProfile(
        geometry="radial",
        n=int(n),
        pos_range=(1.0, R),
        m=dR,
        M=1.0,
        value=value,
        grad_component=grad_component,
        grad_prime=grad_prime,
        sup_grad=amp,
    )


def _gradient_band(profile, phi_t):
    """The coefficients of the band up to the graph of ``profile``: ``psi = 2
    grad(u)`` and ``phi_t(pos)``, both constant in ``t``."""
    return lambda pos: (2.0 * profile.grad_component(pos), 0, phi_t(pos), 0, 0,
                        2.0 * profile.grad_prime(pos), 0)


def _jump_energy(m, M, beta0):
    """The jump target ``delta = M / (1 + beta0)`` and ``integral_m^delta 2 (M - t) dt``.

    The integral is written to stay exact for dyadic inputs.
    """
    delta = M / (1.0 + beta0)
    return delta, (M - m) ** 2 - (M - delta) ** 2


def choose_lambda(m, M, beta0):
    """Smallest feasible slope parameter for the four-band field.

    Returns the smallest ``lam`` in ``[0, beta0]`` with

        ``integral_m^delta 2 (M - t) dt <= lam m^2 + beta0 delta^2``,

    where ``delta = M / (1 + beta0)``, provided the two side conditions
    ``lam m <= M - m`` and ``lam m <= beta0 delta`` also hold.  Returns
    ``None`` when no such ``lam`` exists, which is exactly the case in
    which one jump beats every jump-free competitor.
    """

    m = float(m)
    M = float(M)
    beta0 = float(beta0)
    if not (0.0 <= m <= M) or not np.isfinite(m) or not np.isfinite(M):
        raise ValueError("traces must satisfy 0 <= m <= M")
    if beta0 < 0.0 or not np.isfinite(beta0):
        raise ValueError("beta0 must be nonnegative")
    if M == 0.0:
        return 0.0
    delta, integral = _jump_energy(m, M, beta0)
    if m > delta:
        return 0.0
    budget = beta0 * delta ** 2
    slack = 1e-12 * max(1.0, abs(budget), abs(integral))
    # a trace whose square underflows takes no multiplier either
    if m * m == 0.0:
        return 0.0 if integral <= budget + slack else None
    lam = max(0.0, (integral - budget) / m ** 2)
    if lam > beta0 * (1.0 + 1e-12) + slack:
        return None
    lam = min(lam, beta0)
    if lam * m > (M - m) + slack:
        return None
    if lam * m > beta0 * delta + slack:
        return None
    return lam


@dataclass(frozen=True)
class CalibParams1D:
    """Validated parameters of the four-band interval field.

    ``beta0`` is the reduced jump weight ``beta (M - m) / sup|grad u|``
    of the profile being calibrated (equal to ``beta`` for the affine
    profile on the unit interval).  Derived quantities: jump target
    ``delta = M / (1 + beta0)``, band slopes ``sigma`` and ``tau``.
    """

    m: float
    M: float
    beta: float
    beta0: float
    lam: float

    def __post_init__(self):
        for name in ("m", "M", "beta", "beta0", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0.0 <= self.m <= self.M) or not np.isfinite(self.M):
            raise ValueError("traces must satisfy 0 <= m <= M")
        if not 0.0 < self.beta < np.inf:  # false for NaN
            raise ValueError("beta must be positive")
        if self.beta0 < 0.0:
            raise ValueError("beta0 must be nonnegative")
        if not (0.0 <= self.lam <= self.beta0 * (1.0 + 1e-12)):
            raise ValueError("lam must lie in [0, beta0]")
        slack = 1e-9 * max(1.0, self.M) ** 2
        if self.lam * self.m > (self.M - self.m) + slack:
            raise ValueError("side condition lam m <= M - m fails")
        if self.lam * self.m > self.beta0 * self.delta + slack:
            raise ValueError("side condition lam m <= beta0 delta fails")
        integral = _jump_energy(self.m, self.M, self.beta0)[1]
        if self.m <= self.delta and integral > self.lam * self.m ** 2 + self.beta0 * self.delta ** 2 + slack:
            raise ValueError("jump-energy test fails for these parameters")

    @property
    def delta(self):
        return _jump_energy(self.m, self.M, self.beta0)[0]

    @property
    def tau(self):
        return self.M - self.m

    @property
    def sigma(self):
        return 0.5 * (self.tau - self.lam * self.m)

    @classmethod
    def from_traces(cls, m, M, beta, sup_grad=None):
        """Build parameters for a profile with the given trace range.

        ``sup_grad`` defaults to ``M - m``, the affine value.  Raises
        :class:`HypothesisViolation` when no feasible ``lam`` exists.
        """

        m = float(m)
        M = float(M)
        beta = float(beta)
        if not 0.0 < beta < np.inf:  # before choose_lambda reads it as beta0
            raise ValueError("beta must be positive")
        if sup_grad is None:
            sup_grad = M - m
        sup_grad = float(sup_grad)
        if M <= m:  # equal traces need no gradient, and choose_lambda rejects reversed ones
            beta0 = beta
        else:
            if sup_grad <= 0.0:
                raise ValueError("sup_grad must be positive when M > m")
            beta0 = beta * (M - m) / sup_grad
        lam = choose_lambda(m, M, beta0)
        if lam is None:
            delta, integral = _jump_energy(m, M, beta0)
            raise HypothesisViolation(
                "jump-energy test violated: {:g} > {:g}".format(
                    integral, beta0 * (m ** 2 + delta ** 2)),
                location=m,
                details={"integral": integral,
                         "budget": beta0 * (m ** 2 + delta ** 2)},
            )
        return cls(m=m, M=M, beta=beta, beta0=beta0, lam=lam)


def _template_field(params, profile):
    """Four-band field transported along a harmonic profile.

    In normalized height ``w = (u - m) / (M - m)`` the interval template
    has bands separated by ``t = m``, ``t = m + sigma w`` and the graph
    ``t = m + tau w``; the spatial factor ``grad u / (M - m)`` converts
    the template components into the calibration of ``u``.  The band
    just below the graph owns the graph itself, so the matching
    conditions hold exactly there, including at the endpoints where the
    band boundaries collapse.
    """

    m, M, lam = params.m, params.M, params.lam
    tau = params.tau
    sigma = params.sigma
    beta = params.beta
    params_dict = {
        "m": m,
        "M": M,
        "beta": beta,
        "beta0": params.beta0,
        "lambda": lam,
        "sigma": sigma,
        "tau": tau,
        "delta": params.delta,
        "sup_grad": profile.sup_grad,
    }
    value = profile.value
    gcomp = profile.grad_component
    calibrated = CalibratedFunction(value=value, grad=gcomp)

    def field(regions, interfaces=(), t_max=M):
        return PiecewiseField(kind="harmonic", geometry=profile.geometry, n=profile.n,
                              pos_range=profile.pos_range, t_max=t_max, gamma_sq_term=0.0,
                              params=params_dict, regions=regions, interfaces=tuple(interfaces),
                              calibrated=calibrated)

    if tau == 0.0:  # a constant profile: the field is identically (0, 0)
        return field((Region("everything", "all t", _unbounded, lambda pos: (0,) * 7, "0", "0"),),
                     t_max=M if M > 0.0 else 1.0)

    gprime = profile.grad_prime

    def w_of(pos):
        return (value(pos) - m) / tau

    def factor(pos):
        return gcomp(pos) / tau

    def g_data(pos):
        return np.full_like(np.asarray(pos, dtype=float), m)

    def g_sigma(pos):
        return m + sigma * w_of(pos)

    def below_coeffs(pos):
        f = factor(pos)
        return 0, -2.0 * lam * f, (lam * m) ** 2 * f ** 2, 0, 0, 0, -2.0 * lam * gprime(pos) / tau

    def lower_coeffs(pos):
        f = factor(pos)
        return (-2.0 * lam * m * f, 0, (lam * m) ** 2 * f ** 2, 0, 0,
                -2.0 * lam * m * gprime(pos) / tau, 0)

    def above_coeffs(pos):
        # in s = t - M: psi = -2 q s and phi_t = q^2 s^2, with q = grad(u)/(M-u)
        gap = 1.0 - w_of(pos)
        q = factor(pos) / gap
        return 0, -2.0 * q, 0, 0, q * q, 0, -2.0 * (q * q + gprime(pos) / tau / gap)

    regions = (
        Region("below-data", "t < m", g_data, below_coeffs,
               "-2 lam t grad(u)/(M-m)", "(lam m)^2 |grad(u)/(M-m)|^2", strict=True,
               top_prime=_zero_at),
        Region("lower-band", "m <= t < m + sigma w", g_sigma, lower_coeffs,
               "-2 lam m grad(u)/(M-m)", "(lam m)^2 |grad(u)/(M-m)|^2", strict=True,
               top_prime=lambda pos: sigma * gcomp(pos) / tau),
        Region("graph-band", "m + sigma w <= t <= u", value,
               _gradient_band(profile, lambda pos: gcomp(pos) ** 2), "2 grad(u)", "|grad(u)|^2",
               top_prime=gcomp),
        Region("above-graph", "t > u", _unbounded, above_coeffs,
               "2 (M-t)/(M-u) grad(u)", "((M-t)/(M-u))^2 |grad(u)|^2", anchor=M),
    )

    interfaces = []
    if m > 0.0:
        interfaces.append(Interface(
            name="data-level", kind="graph", pos_range=profile.pos_range,
            region="below-data", description="t = m"))
    if sigma > 0.0:
        interfaces.append(Interface(
            name="slope-matching", kind="graph", pos_range=profile.pos_range,
            region="lower-band", description="t = m + sigma w"))
    interfaces.append(Interface(
        name="graph", kind="graph", pos_range=profile.pos_range,
        region="graph-band", description="t = u(pos)"))

    return field(regions, interfaces)


def build_field_harmonic(u, beta):
    """Calibration of a harmonic profile over its trace range ``[u.m, u.M]``.

    ``u`` is a :class:`HarmonicProfile`.  The reduced jump weight is
    ``beta0 = beta (M - m) / sup|grad u|``; infeasibility of the band
    construction raises :class:`HypothesisViolation`.  For ``m == M``
    the field is identically zero.  Interval data take the affine
    profile, ``affine_profile(m, M)``.
    """

    params = CalibParams1D.from_traces(u.m, u.M, beta, sup_grad=u.sup_grad)
    return _template_field(params, u)


# Radial extent of the indicator fields' grid, and the tolerance on the
# critical-radius identity the ball field accepts.
_INDICATOR_POS_MAX = 4.0
_EL_TOL = 1e-9


def _indicator_field(kind, n, beta, gamma_, regions, interfaces=()):
    """A calibration of the unit-ball indicator, over ``1 <= r <= _INDICATOR_POS_MAX``."""
    return PiecewiseField(
        kind=kind,
        geometry="radial",
        n=n,
        pos_range=(1.0, _INDICATOR_POS_MAX),
        t_max=1.0,
        gamma_sq_term=gamma_ ** 2,
        params={"n": n, "beta": beta, "gamma": gamma_, "R": 1.0},
        regions=regions,
        interfaces=interfaces,
        calibrated=_UNIT_BALL_INDICATOR,
    )


def build_field_indicator_const(n, beta, gamma_):
    """Single-piece calibration of the unit-ball indicator for ``beta <= gamma``.

    The field is ``phi = (-2 beta t r^(1-n) e_r, 0)`` on ``r >= 1``.
    Axiom (a) at ``t = 1``, ``r = 1`` requires exactly ``beta <= gamma``.
    """

    n = _check_dimension(n)
    beta, gamma_ = _weights(beta, gamma_)
    if beta > gamma_:
        raise HypothesisViolation(
            "indicator field needs beta <= gamma: {:g} > {:g}".format(beta, gamma_),
            location=1.0,
            details={"beta": beta, "gamma": gamma_},
        )

    def coeffs(pos):
        r = np.asarray(pos, dtype=float)
        return 0, -2.0 * beta * r ** (1 - n), 0, 0, 0, 0, 2.0 * (n - 1) * beta * r ** (-n)

    region = Region("whole-domain", "0 <= t <= 1", _unbounded, coeffs, "-2 beta t r^(1-n)", "0")
    return _indicator_field("indicator-const", n, beta, gamma_, (region,))


def _above_trace(n, level):
    """The coefficients in ``s = t - 1`` of ``psi = -2 (1-t) K(r)`` and ``phi_t =
    (1-t)^2 K(r)^2 - level(r)``, ``K = 1 / (r^(n-1) gamma(r))``."""

    def coeffs(pos):
        K = _K_factor(n, pos)
        return 0, 2.0 * K, -level(pos), 0, K * K, 0, -2.0 * K * K * _G_prime(n, pos)

    return coeffs


def _trace_pieces(n, beta, pos_range):
    """The Robin trace curve ``t = delta(r)`` and the two regions it separates.

    Returns ``(below, above, curve)``, ``curve`` being the interface over
    ``pos_range`` along the top of ``below``.  Below the curve the field is
    ``(-2 beta t e_r, (n-1) beta t^2 / r)``; above it the components follow
    the trace, ``(-2 (1-t) K(r) e_r, (1-t)^2 K(r)^2 - (beta^2 - (n-1) beta /
    r) delta(r)^2)`` with ``K = beta delta / (1 - delta)``.
    """

    def lower_coeffs(pos):
        return 0, -2.0 * beta, 0, 0, (n - 1) * beta / np.asarray(pos, dtype=float), 0, 0

    return (
        Region("below-trace", "t <= delta(r)", lambda pos: delta_robin(n, beta, pos), lower_coeffs,
               "-2 beta t", "(n-1) beta t^2 / r",
               top_prime=lambda pos: delta_robin_prime(n, beta, pos)),
        Region("above-trace", "t > delta(r)", _unbounded,
               _above_trace(n, lambda pos: robin_bracket(n, beta, pos)),
               "-2 (1-t) K(r)", "(1-t)^2 K(r)^2 - (beta^2-(n-1)beta/r) delta(r)^2", anchor=1.0),
        Interface(name="trace-curve", kind="graph", pos_range=pos_range, region="below-trace",
                  description="t = delta(r)"),
    )


def build_field_indicator_two_piece(n, beta, gamma_):
    """Two-piece calibration of the unit-ball indicator.

    The pieces are the two regions either side of the Robin trace curve
    ``t = delta(r)`` (see :func:`_trace_pieces`).  The construction
    certifies the indicator when ``(beta^2 - (n-1) beta / r) delta(r)^2
    <= gamma^2`` for every ``r >= 1``; otherwise it raises
    :class:`HypothesisViolation` with the radius of the supremum attached.
    """

    n = _check_dimension(n)
    beta, gamma_ = _weights(beta, gamma_)
    worst_r, worst = robin_bracket_sup(n, beta)
    worst_excess = worst - gamma_ ** 2
    if not worst_excess <= 0.0:
        raise HypothesisViolation(
            "monotonicity certificate fails: (beta^2 - (n-1) beta / r) delta(r)^2 "
            "exceeds gamma^2 by {:.3g} at r = {:.6g}".format(worst_excess, worst_r),
            location=worst_r,
            details={"excess": worst_excess, "gamma": gamma_},
        )

    below, above, curve = _trace_pieces(n, beta, (1.0, _INDICATOR_POS_MAX))
    return _indicator_field("indicator-two-piece", n, beta, gamma_, (below, above), (curve,))


def build_field_ball_harmonic(n, beta, gamma_, R, enforce_beta=True):
    """Calibration of the optimal profile supported on the ball ``r <= R``.

    The calibrated function is 1 inside the unit ball, the Robin-optimal
    radial profile on the shell ``1 <= r <= R`` and 0 outside.  ``R``
    must satisfy the critical-radius identity
    ``gamma^2 = (beta^2 - (n-1) beta / R) delta(R)^2`` to ``_EL_TOL``.
    ``beta >= n - 1/2`` guarantees the axioms; set ``enforce_beta=False``
    to build the field anyway and let the verifier report what fails.
    ``R = 1`` collapses to the two-piece indicator construction, and
    outside the ball the field is that construction's two regions.
    """

    n = _check_dimension(n)
    beta, gamma_ = _weights(beta, gamma_)
    R = float(R)
    if not 1.0 <= R < np.inf:
        raise ValueError("R must be finite and at least 1")
    if R == 1.0:
        return build_field_indicator_two_piece(n, beta, gamma_)

    profile = radial_shell_profile(n, beta, R)
    dR, amp, u_of = profile.m, profile.sup_grad, profile.value
    gamma_sq = gamma_ ** 2
    el_residual = gamma_sq - robin_bracket(n, beta, R)
    if abs(el_residual) > _EL_TOL:
        raise HypothesisViolation(
            "R does not satisfy the critical-radius identity "
            "(residual {:.3g})".format(el_residual),
            location=R,
            details={"residual": el_residual},
        )
    if enforce_beta and beta < n - 0.5:
        raise HypothesisViolation(
            "certificate needs beta >= n - 1/2: {:g} < {:g}".format(beta, n - 0.5),
            location=R,
            details={"beta": beta, "threshold": n - 0.5},
        )

    pos_max = 2.0 * R
    below, above, curve = _trace_pieces(n, beta, (R, pos_max))

    def rho_of(r):
        return rho(n, beta, R, r)

    def g_level(pos):
        return np.full_like(np.asarray(pos, dtype=float), dR)

    def b_coeffs(pos):
        k = (n - 1) * beta * dR / np.asarray(pos, dtype=float)
        return -2.0 * beta * dR, 0, -k * dR, 2.0 * k, 0, 0, 0

    def c_phi_t(pos):
        return amp ** 2 * np.asarray(pos, dtype=float) ** (2 - 2 * n) - gamma_sq

    regions = (
        replace(below, name="inner-below-trace", condition="r <= R, t <= delta(R)",
                top=_inside(R, g_level), top_prime=_zero_at),
        Region("inner-transition", "r <= R, delta(R) < t <= rho(r)", _inside(R, rho_of),
               b_coeffs, "-2 beta delta(R)", "(n-1) beta delta(R)(2t - delta(R))/r",
               top_prime=lambda pos: rho_prime(n, beta, R, pos)),
        Region("inner-gradient", "r <= R, rho(r) < t <= u(r)", _inside(R, u_of),
               _gradient_band(profile, c_phi_t),
               "-2 beta delta(R) (R/r)^(n-1)",
               "(beta delta(R))^2 (R/r)^(2n-2) - gamma^2", top_prime=profile.grad_component),
        replace(above, name="inner-above-graph", condition="r <= R, t > u(r)",
                top=_inside(R, _unbounded), coeffs=_above_trace(n, lambda pos: gamma_sq),
                phi_t_formula="(1-t)^2 K(r)^2 - gamma^2"),
        replace(below, name="outer-below-trace", condition="r > R, t <= delta(r)"),
        replace(above, name="outer-above-trace", condition="r > R, t > delta(r)"),
    )

    def shell_grad(pos):
        pos = np.asarray(pos, dtype=float)
        return np.where((pos >= 1.0) & (pos <= R), profile.grad_component(pos), 0.0)

    interfaces = [
        Interface(name="trace-level", kind="graph", pos_range=(1.0, R),
                  region="inner-below-trace", description="t = delta(R)"),
        Interface(name="graph", kind="graph", pos_range=(1.0, R),
                  region="inner-gradient", description="t = u(r)"),
        Interface(name="support-sphere", kind="sphere", radius=R,
                  description="r = R"),
        replace(curve, name="outer-trace-curve", region="outer-below-trace"),
    ]
    if n > 1:
        interfaces.insert(1, Interface(
            name="flux-matching-curve", kind="graph", pos_range=(1.0, R),
            region="inner-transition", description="t = rho(r)"))

    return PiecewiseField(
        kind="ball-harmonic",
        geometry="radial",
        n=n,
        pos_range=(1.0, pos_max),
        t_max=1.0,
        gamma_sq_term=gamma_sq,
        params={"n": n, "beta": beta, "gamma": gamma_, "R": R,
                "delta_R": dR, "beta_threshold": n - 0.5},
        regions=regions,
        interfaces=tuple(interfaces),
        calibrated=CalibratedFunction(value=u_of, grad=shell_grad, jumps=((R, 0.0, dR, -1.0),)),
    )
