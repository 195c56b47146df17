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
regions stacked bottom to top in ``t``.  Membership is decided by the
first region whose predicate matches, and the region just below the
calibrated graph always claims the graph itself, which makes the graph
matching conditions hold exactly on the sampled points.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from calx.potentials import (delta_robin, delta_robin_prime, gamma, rho, rho_prime,
                             robin_bracket, robin_bracket_sup, u_radial)


def _scalar_or_array(out, cast=float):
    return cast(out) if out.ndim == 0 else out


def _everywhere(pos, t):
    return np.ones_like(np.asarray(t, dtype=float), dtype=bool)


def _zero(pos, t):
    return np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class Region:
    """One closed-form piece of a field.

    ``contains``, ``psi``, ``phi_t`` and ``Psi`` are vectorized
    callables of ``(pos, t)``.  ``psi`` is the signed component of
    ``phi_x`` along the field direction and ``Psi(pos, t)`` is its
    antiderivative ``integral_0^t psi dt'``.  ``dpsi_dpos`` is the
    analytic spatial derivative of ``psi`` when one is available; the
    verifier falls back to finite differences otherwise.
    """

    name: str
    condition: str
    contains: Callable
    psi: Callable
    phi_t: Callable
    Psi: Callable
    dpsi_dpos: Optional[Callable] = None
    psi_formula: str = ""
    phi_t_formula: str = ""


@dataclass(frozen=True)
class Interface:
    """A curve separating two regions, used for flux continuity checks.

    ``kind`` is ``'graph'`` for a curve ``t = g(pos)`` or ``'sphere'``
    for a vertical interface ``pos = radius``.  ``g_prime`` is the
    analytic slope of a graph interface; ``None`` means the verifier
    differentiates ``g`` numerically.
    """

    name: str
    kind: str
    pos_range: tuple = (0.0, 1.0)
    g: Optional[Callable] = None
    g_prime: Optional[Callable] = None
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
    bottom to top; the first matching predicate wins.  ``params`` holds
    the defining scalars for reporting, ``gamma_sq_term`` is the
    ``gamma^2`` appearing in axiom (a) (zero for Dirichlet-type fields)
    and ``profile`` optionally keeps the calibrated profile descriptor.
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
    profile: object = None
    phi_t_bump: Optional[tuple] = None

    def _sample(self, pos, t, *quantities):
        """One classification pass: ``(index, *values)`` at the given points.

        Each point is claimed by the first region whose predicate matches
        (index -1 if none).  Every predicate runs once on all points, the
        other callables only on the points their region claims.
        ``quantities`` names ``Region`` attributes (``psi``, ``phi_t``,
        ``Psi``, ``dpsi_dpos``); a value is NaN where no region claims the
        point or the claiming region lacks the callable.  ``phi_t``
        includes ``phi_t_bump``.  Arrays take the broadcast shape of
        ``pos`` and ``t``.
        """
        pos_b, t_b = np.broadcast_arrays(np.asarray(pos, dtype=float), np.asarray(t, dtype=float))
        p, tt = pos_b.ravel(), t_b.ravel()
        idx = np.full(p.shape, -1, dtype=int)
        values = [np.full(p.shape, np.nan) for _ in quantities]
        free = np.ones(p.shape, dtype=bool)
        for k, region in enumerate(self.regions):
            mask = free & np.asarray(region.contains(p, tt), dtype=bool)
            if not mask.any():
                continue
            free &= ~mask
            idx[mask] = k
            pk, tk = p[mask], tt[mask]
            for name, out in zip(quantities, values):
                fn = getattr(region, name)
                if fn is not None:
                    out[mask] = fn(pk, tk)
        if "phi_t" in quantities and self.phi_t_bump is not None:
            pos0, t0, amount, hw_pos, hw_t = self.phi_t_bump
            box = (np.abs(p - pos0) <= hw_pos) & (np.abs(tt - t0) <= hw_t)
            values[quantities.index("phi_t")][box] += amount
        return tuple(a.reshape(pos_b.shape) for a in (idx, *values))

    def region_index(self, pos, t):
        """Index into ``self.regions`` of the piece owning each point, -1 if none."""
        return _scalar_or_array(self._sample(pos, t)[0], int)

    def evaluate(self, pos, t):
        """Return ``(psi, phi_t)`` at the given points."""
        return tuple(_scalar_or_array(v) for v in self._sample(pos, t, "psi", "phi_t")[1:])

    def Psi(self, pos, t):
        """Antiderivative ``integral_0^t phi_x dt'`` (signed component)."""
        return _scalar_or_array(self._sample(pos, t, "Psi")[1])

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

    name: str
    geometry: str
    n: int
    pos_range: tuple
    m: float
    M: float
    value: Callable
    grad_component: Callable
    grad_prime: Callable
    sup_grad: float


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

    def grad_prime(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return HarmonicProfile(
        name="affine",
        geometry="interval",
        n=1,
        pos_range=(0.0, 1.0),
        m=m,
        M=M,
        value=value,
        grad_component=grad_component,
        grad_prime=grad_prime,
        sup_grad=slope,
    )


def radial_shell_profile(n, beta, R):
    """Robin-optimal radial profile on the shell ``1 <= r <= R``.

    The profile decreases from 1 at ``r = 1`` to ``delta_robin(n, beta, R)``
    at ``r = R``; its gradient points inward (negative ``e_r`` component).
    """

    beta = float(beta)
    R = float(R)
    if not beta > 0.0:
        raise ValueError("beta must be positive")
    if not R > 1.0:
        raise ValueError("shell requires R > 1")
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
        name="radial-shell",
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
    delta = M / (1.0 + beta0)
    if m > delta:
        return 0.0
    # integral_m^delta 2 (M - t) dt, written to stay exact for dyadic inputs
    integral = (M - m) ** 2 - (M - delta) ** 2
    budget = beta0 * delta ** 2
    slack = 1e-12 * max(1.0, abs(budget), abs(integral))
    if m == 0.0:
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
        if self.beta <= 0.0:
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
        integral = (self.M - self.m) ** 2 - (self.M - self.delta) ** 2
        if self.m <= self.delta and integral > self.lam * self.m ** 2 + self.beta0 * self.delta ** 2 + slack:
            raise ValueError("jump-energy test fails for these parameters")

    @property
    def delta(self):
        return self.M / (1.0 + self.beta0)

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
        if sup_grad is None:
            sup_grad = M - m
        sup_grad = float(sup_grad)
        if M == m:
            beta0 = beta
        else:
            if sup_grad <= 0.0:
                raise ValueError("sup_grad must be positive when M > m")
            beta0 = beta * (M - m) / sup_grad
        lam = choose_lambda(m, M, beta0)
        if lam is None:
            delta = M / (1.0 + beta0)
            integral = (M - m) ** 2 - (M - delta) ** 2
            raise HypothesisViolation(
                "jump-energy test violated: {:g} > {:g}".format(
                    integral, beta0 * (m ** 2 + delta ** 2)),
                location=m,
                details={"integral": integral,
                         "budget": beta0 * (m ** 2 + delta ** 2)},
            )
        return cls(m=m, M=M, beta=beta, beta0=beta0, lam=lam)


def _zero_field(kind, profile, params_dict, beta):
    """Degenerate field for a constant profile: identically (0, 0)."""

    region = Region(
        name="everything",
        condition="all t",
        contains=_everywhere,
        psi=_zero,
        phi_t=_zero,
        Psi=_zero,
        dpsi_dpos=_zero,
        psi_formula="0",
        phi_t_formula="0",
    )
    return PiecewiseField(
        kind=kind,
        geometry=profile.geometry,
        n=profile.n,
        pos_range=profile.pos_range,
        t_max=profile.M if profile.M > 0.0 else 1.0,
        gamma_sq_term=0.0,
        params=params_dict,
        regions=(region,),
        interfaces=(),
        profile=profile,
    )


def _template_field(params, profile, kind):
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
    if tau == 0.0:
        return _zero_field(kind, profile, params_dict, beta)

    value = profile.value
    gcomp = profile.grad_component
    gprime = profile.grad_prime

    def w_of(pos):
        return (value(pos) - m) / tau

    def factor(pos):
        return gcomp(pos) / tau

    def below_contains(pos, t):
        return t < m

    def below_psi(pos, t):
        return -2.0 * lam * t * factor(pos)

    def below_phi_t(pos, t):
        return (lam * m) ** 2 * factor(pos) ** 2

    def below_Psi(pos, t):
        return -lam * t ** 2 * factor(pos)

    def below_dpsi(pos, t):
        return -2.0 * lam * t * gprime(pos) / tau

    def lower_contains(pos, t):
        return t < m + sigma * w_of(pos)

    def lower_psi(pos, t):
        return -2.0 * lam * m * factor(pos)

    def lower_Psi(pos, t):
        return (-lam * m ** 2 - 2.0 * lam * m * (t - m)) * factor(pos)

    def lower_dpsi(pos, t):
        return -2.0 * lam * m * gprime(pos) / tau

    def band_contains(pos, t):
        return t <= m + tau * w_of(pos)

    def band_psi(pos, t):
        return 2.0 * gcomp(pos)

    def band_phi_t(pos, t):
        return gcomp(pos) ** 2

    def band_Psi(pos, t):
        w = w_of(pos)
        return (-lam * m ** 2 - 2.0 * lam * m * sigma * w
                + 2.0 * tau * (t - m - sigma * w)) * factor(pos)

    def band_dpsi(pos, t):
        return 2.0 * gprime(pos)

    def above_psi(pos, t):
        w = w_of(pos)
        return 2.0 * (M - t) / (1.0 - w) * factor(pos)

    def above_phi_t(pos, t):
        w = w_of(pos)
        return ((M - t) / (1.0 - w)) ** 2 * factor(pos) ** 2

    def above_Psi(pos, t):
        w = w_of(pos)
        at_graph = -lam * m ** 2 - 2.0 * lam * m * sigma * w + 2.0 * tau * w * (tau - sigma)
        return (at_graph + tau ** 2 * (1.0 - w) - (M - t) ** 2 / (1.0 - w)) * factor(pos)

    def above_dpsi(pos, t):
        w = w_of(pos)
        g = gcomp(pos)
        return (2.0 * (M - t) / (1.0 - w) ** 2 * (g / tau) ** 2
                + 2.0 * (M - t) / (1.0 - w) * gprime(pos) / tau)

    regions = (
        Region("below-data", "t < m", below_contains, below_psi, below_phi_t,
               below_Psi, below_dpsi,
               "-2 lam t grad(u)/(M-m)", "(lam m)^2 |grad(u)/(M-m)|^2"),
        Region("lower-band", "m <= t < m + sigma w", lower_contains, lower_psi,
               below_phi_t, lower_Psi, lower_dpsi,
               "-2 lam m grad(u)/(M-m)", "(lam m)^2 |grad(u)/(M-m)|^2"),
        Region("graph-band", "m + sigma w <= t <= u", band_contains, band_psi,
               band_phi_t, band_Psi, band_dpsi,
               "2 grad(u)", "|grad(u)|^2"),
        Region("above-graph", "t > u", _everywhere, above_psi, above_phi_t,
               above_Psi, above_dpsi,
               "2 (M-t)/(M-u) grad(u)", "((M-t)/(M-u))^2 |grad(u)|^2"),
    )

    interfaces = []
    if m > 0.0:
        def g_data(pos):
            return np.full_like(np.asarray(pos, dtype=float), m)

        def g_data_prime(pos):
            return np.zeros_like(np.asarray(pos, dtype=float))

        interfaces.append(Interface(
            name="data-level", kind="graph", pos_range=profile.pos_range,
            g=g_data, g_prime=g_data_prime, description="t = m"))
    if sigma > 0.0:
        def g_sigma(pos):
            return m + sigma * w_of(pos)

        def g_sigma_prime(pos):
            return sigma * gcomp(pos) / tau

        interfaces.append(Interface(
            name="slope-matching", kind="graph", pos_range=profile.pos_range,
            g=g_sigma, g_prime=g_sigma_prime, description="t = m + sigma w"))

    def g_graph(pos):
        return value(pos)

    interfaces.append(Interface(
        name="graph", kind="graph", pos_range=profile.pos_range,
        g=g_graph, g_prime=gcomp, description="t = u(pos)"))

    return PiecewiseField(
        kind=kind,
        geometry=profile.geometry,
        n=profile.n,
        pos_range=profile.pos_range,
        t_max=M,
        gamma_sq_term=0.0,
        params=params_dict,
        regions=regions,
        interfaces=tuple(interfaces),
        profile=profile,
    )


def build_field_1d(params, interval=(0.0, 1.0)):
    """Four-band calibration of the affine profile on ``[0, 1]``.

    ``params`` must already be feasible (see :class:`CalibParams1D`).
    The bands are, bottom to top: ``t < m`` with ``phi = (-2 lam t,
    (lam m)^2)``, then ``m <= t < m + sigma x`` with constant
    ``phi = (-2 lam m, (lam m)^2)``, the band up to the graph with
    ``phi = (2 (M-m), (M-m)^2)``, and above the graph
    ``phi = (2 (M-t)/(1-x), ((M-t)/(1-x))^2)``.
    """

    if tuple(float(v) for v in interval) != (0.0, 1.0):
        raise ValueError("the interval construction is normalized to [0, 1]")
    profile = affine_profile(params.m, params.M)
    return _template_field(params, profile, kind="1d")


def build_field_harmonic(u, m, M, beta):
    """Calibration of a harmonic profile with trace range ``[m, M]``.

    ``u`` is a :class:`HarmonicProfile`.  The reduced jump weight is
    ``beta0 = beta (M - m) / sup|grad u|``; infeasibility of the band
    construction raises :class:`HypothesisViolation`.  For ``m == M``
    the field is identically zero.
    """

    m = float(m)
    M = float(M)
    if abs(u.m - m) > 1e-9 * max(1.0, abs(M)) or abs(u.M - M) > 1e-9 * max(1.0, abs(M)):
        raise ValueError("profile range does not match the given traces")
    params = CalibParams1D.from_traces(m, M, beta, sup_grad=u.sup_grad)
    return _template_field(params, u, kind="harmonic")


def _K_factor(n, r):
    """Robin trace ratio ``beta delta / (1 - delta) = 1 / (r^(n-1) Gamma(r))``."""
    rr = np.asarray(r, dtype=float)
    return 1.0 / (rr ** (n - 1) * gamma(n, rr))


def build_field_indicator_const(n, beta, gamma_, pos_max=4.0):
    """Single-piece calibration of the unit-ball indicator for ``beta <= gamma``.

    The field is ``phi = (-2 beta t r^(1-n) e_r, 0)`` on ``r >= 1``.
    Axiom (a) at ``t = 1``, ``r = 1`` requires exactly ``beta <= gamma``.
    """

    n = int(n)
    beta = float(beta)
    gamma_ = float(gamma_)
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not beta > 0.0 or not gamma_ >= 0.0:
        raise ValueError("beta must be positive and gamma nonnegative")
    if beta > gamma_:
        raise HypothesisViolation(
            "indicator field needs beta <= gamma: {:g} > {:g}".format(beta, gamma_),
            location=1.0,
            details={"beta": beta, "gamma": gamma_},
        )

    def psi(pos, t):
        return -2.0 * beta * t * np.asarray(pos, dtype=float) ** (1 - n)

    def Psi(pos, t):
        return -beta * t ** 2 * np.asarray(pos, dtype=float) ** (1 - n)

    def dpsi(pos, t):
        return 2.0 * (n - 1) * beta * t * np.asarray(pos, dtype=float) ** (-n)

    region = Region(
        name="whole-domain", condition="0 <= t <= 1", contains=_everywhere,
        psi=psi, phi_t=_zero, Psi=Psi, dpsi_dpos=dpsi,
        psi_formula="-2 beta t r^(1-n)", phi_t_formula="0")
    return PiecewiseField(
        kind="indicator-const",
        geometry="radial",
        n=n,
        pos_range=(1.0, float(pos_max)),
        t_max=1.0,
        gamma_sq_term=gamma_ ** 2,
        params={"n": n, "beta": beta, "gamma": gamma_, "R": 1.0},
        regions=(region,),
        interfaces=(),
    )


def _trace_pieces(n, beta, pos_range):
    """The Robin trace curve ``t = delta(r)`` and the two regions it separates.

    Returns ``(below, above, curve)``, ``curve`` being the interface over
    ``pos_range``.  Below the curve the field is ``(-2 beta t e_r, (n-1) beta t^2 / r)``;
    above it the components follow the trace, ``(-2 (1-t) K(r) e_r,
    (1-t)^2 K(r)^2 - (beta^2 - (n-1) beta / r) delta(r)^2)`` with
    ``K = beta delta / (1 - delta)``.
    """

    def g_trace(pos):
        return delta_robin(n, beta, pos)

    def g_trace_prime(pos):
        return delta_robin_prime(n, beta, pos)

    def lower_contains(pos, t):
        return t <= delta_robin(n, beta, pos)

    def lower_psi(pos, t):
        return -2.0 * beta * t

    def lower_phi_t(pos, t):
        return (n - 1) * beta * t ** 2 / np.asarray(pos, dtype=float)

    def lower_Psi(pos, t):
        return -beta * t ** 2

    def upper_psi(pos, t):
        return -2.0 * (1.0 - t) * _K_factor(n, pos)

    def upper_phi_t(pos, t):
        return (1.0 - t) ** 2 * _K_factor(n, pos) ** 2 - robin_bracket(n, beta, pos)

    def upper_Psi(pos, t):
        pos = np.asarray(pos, dtype=float)
        K = _K_factor(n, pos)
        d = delta_robin(n, beta, pos)
        return -beta * d ** 2 - K * ((1.0 - d) ** 2 - (1.0 - t) ** 2)

    def upper_dpsi(pos, t):
        pos = np.asarray(pos, dtype=float)
        K = _K_factor(n, pos)
        gp = (n - 1) * pos ** (n - 2) * gamma(n, pos) + 1.0
        return 2.0 * (1.0 - t) * K ** 2 * gp

    return (
        Region("below-trace", "t <= delta(r)", lower_contains, lower_psi,
               lower_phi_t, lower_Psi, _zero,
               "-2 beta t", "(n-1) beta t^2 / r"),
        Region("above-trace", "t > delta(r)", _everywhere, upper_psi,
               upper_phi_t, upper_Psi, upper_dpsi,
               "-2 (1-t) K(r)", "(1-t)^2 K(r)^2 - (beta^2-(n-1)beta/r) delta(r)^2"),
        Interface(name="trace-curve", kind="graph", pos_range=pos_range,
                  g=g_trace, g_prime=g_trace_prime, description="t = delta(r)"),
    )


def build_field_indicator_two_piece(n, beta, gamma_, pos_max=4.0):
    """Two-piece calibration of the unit-ball indicator.

    The pieces are the two regions either side of the Robin trace curve
    ``t = delta(r)`` (see :func:`_trace_pieces`).  The construction
    certifies the indicator when ``(beta^2 - (n-1) beta / r) delta(r)^2
    <= gamma^2`` for every ``r >= 1``; otherwise it raises
    :class:`HypothesisViolation` with the radius of the supremum attached.
    """

    n = int(n)
    beta = float(beta)
    gamma_ = float(gamma_)
    if not beta > 0.0 or not gamma_ >= 0.0:
        raise ValueError("beta must be positive and gamma nonnegative")
    worst_r, worst = robin_bracket_sup(n, beta)
    worst_excess = worst - gamma_ ** 2
    if not worst_excess <= 0.0:
        raise HypothesisViolation(
            "monotonicity certificate fails: (beta^2 - (n-1) beta / r) delta(r)^2 "
            "exceeds gamma^2 by {:.3g} at r = {:.6g}".format(worst_excess, worst_r),
            location=worst_r,
            details={"excess": worst_excess, "gamma": gamma_},
        )

    below, above, curve = _trace_pieces(n, beta, (1.0, float(pos_max)))
    return PiecewiseField(
        kind="indicator-two-piece",
        geometry="radial",
        n=n,
        pos_range=(1.0, float(pos_max)),
        t_max=1.0,
        gamma_sq_term=gamma_ ** 2,
        params={"n": n, "beta": beta, "gamma": gamma_, "R": 1.0},
        regions=(below, above),
        interfaces=(curve,),
    )


def build_field_ball_harmonic(n, beta, gamma_, R, enforce_beta=True, el_tol=1e-9):
    """Calibration of the optimal profile supported on the ball ``r <= R``.

    The calibrated function is 1 inside the unit ball, the Robin-optimal
    radial profile on the shell ``1 <= r <= R`` and 0 outside.  ``R``
    must satisfy the critical-radius identity
    ``gamma^2 = (beta^2 - (n-1) beta / R) delta(R)^2`` to ``el_tol``.
    ``beta >= n - 1/2`` guarantees the axioms; set ``enforce_beta=False``
    to build the field anyway and let the verifier report what fails.
    ``R = 1`` collapses to the two-piece indicator construction, and
    outside the ball the field is that construction's two regions.
    """

    n = int(n)
    beta = float(beta)
    gamma_ = float(gamma_)
    R = float(R)
    if not beta > 0.0 or not gamma_ >= 0.0:
        raise ValueError("beta must be positive and gamma nonnegative")
    if not R >= 1.0:
        raise ValueError("R must be at least 1")
    if R == 1.0:
        return build_field_indicator_two_piece(n, beta, gamma_)

    profile = radial_shell_profile(n, beta, R)
    dR, amp, u_of = profile.m, profile.sup_grad, profile.value
    gamma_sq = gamma_ ** 2
    el_residual = gamma_sq - robin_bracket(n, beta, R)
    if abs(el_residual) > el_tol:
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
        # membership predicates evaluate this outside the shell too,
        # where the value is irrelevant; clamp to keep rho defined
        return rho(n, beta, R, np.clip(np.asarray(r, dtype=float), 1.0, R))

    def inner(pos):
        return np.asarray(pos, dtype=float) <= R

    def a_contains(pos, t):
        return inner(pos) & (t <= dR)

    def b_contains(pos, t):
        return inner(pos) & (t <= rho_of(pos))

    def b_psi(pos, t):
        return np.full_like(np.asarray(t, dtype=float), -2.0 * beta * dR)

    def b_phi_t(pos, t):
        return (n - 1) * beta * dR * (2.0 * t - dR) / np.asarray(pos, dtype=float)

    def b_Psi(pos, t):
        return -beta * dR ** 2 - 2.0 * beta * dR * (t - dR)

    def c_contains(pos, t):
        return inner(pos) & (t <= u_of(pos))

    def c_psi(pos, t):
        return -2.0 * amp * np.asarray(pos, dtype=float) ** (1 - n)

    def c_phi_t(pos, t):
        return amp ** 2 * np.asarray(pos, dtype=float) ** (2 - 2 * n) - gamma_sq

    def c_Psi(pos, t):
        pos = np.asarray(pos, dtype=float)
        rr = rho_of(pos)
        at_rho = -beta * dR ** 2 - 2.0 * beta * dR * (rr - dR)
        return at_rho - 2.0 * amp * pos ** (1 - n) * (t - rr)

    def c_dpsi(pos, t):
        return 2.0 * (n - 1) * amp * np.asarray(pos, dtype=float) ** (-n)

    def d_contains(pos, t):
        return inner(pos)

    def d_phi_t(pos, t):
        return (1.0 - t) ** 2 * _K_factor(n, pos) ** 2 - gamma_sq

    def d_Psi(pos, t):
        pos = np.asarray(pos, dtype=float)
        uu = u_of(pos)
        return c_Psi(pos, uu) - _K_factor(n, pos) * ((1.0 - uu) ** 2 - (1.0 - t) ** 2)

    regions = (
        replace(below, name="inner-below-trace", condition="r <= R, t <= delta(R)",
                contains=a_contains),
        Region("inner-transition", "r <= R, delta(R) < t <= rho(r)", b_contains,
               b_psi, b_phi_t, b_Psi, _zero,
               "-2 beta delta(R)", "(n-1) beta delta(R)(2t - delta(R))/r"),
        Region("inner-gradient", "r <= R, rho(r) < t <= u(r)", c_contains, c_psi,
               c_phi_t, c_Psi, c_dpsi,
               "-2 beta delta(R) (R/r)^(n-1)",
               "(beta delta(R))^2 (R/r)^(2n-2) - gamma^2"),
        replace(above, name="inner-above-graph", condition="r <= R, t > u(r)",
                contains=d_contains, phi_t=d_phi_t, Psi=d_Psi,
                phi_t_formula="(1-t)^2 K(r)^2 - gamma^2"),
        replace(below, name="outer-below-trace", condition="r > R, t <= delta(r)"),
        replace(above, name="outer-above-trace", condition="r > R, t > delta(r)"),
    )

    def g_level(pos):
        return np.full_like(np.asarray(pos, dtype=float), dR)

    def g_level_prime(pos):
        return np.zeros_like(np.asarray(pos, dtype=float))

    def g_rho_prime(pos):
        return rho_prime(n, beta, R, pos)

    interfaces = [
        Interface(name="trace-level", kind="graph", pos_range=(1.0, R),
                  g=g_level, g_prime=g_level_prime, description="t = delta(R)"),
        Interface(name="graph", kind="graph", pos_range=(1.0, R),
                  g=u_of, g_prime=profile.grad_component, description="t = u(r)"),
        Interface(name="support-sphere", kind="sphere", radius=R,
                  description="r = R"),
        replace(curve, name="outer-trace-curve"),
    ]
    if n > 1:
        interfaces.insert(1, Interface(
            name="flux-matching-curve", kind="graph", pos_range=(1.0, R),
            g=rho_of, g_prime=g_rho_prime, description="t = rho(r)"))

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
    )
