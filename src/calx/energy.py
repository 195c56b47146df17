"""Energy functionals for the insulation problem.

Two families live here:

* the one-dimensional free-discontinuity energy of piecewise-affine
  competitors with jumps (``energy_1d``),
* the radial energy of functions supported on a ball of radius R with
  outer trace delta (``energy_radial_general`` and the Robin-optimal
  closed form ``energy_radial_optimal``), together with its derivative
  in R, critical radii, and the monotonicity margin that certifies the
  indicator regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from calx.potentials import _robin_tail, delta_robin, gamma, robin_bracket, robin_bracket_sup

__all__ = [
    "unit_ball_volume",
    "EnergyBreakdown",
    "Competitor1D",
    "RadialProfile",
    "energy_1d",
    "energy_radial_general",
    "energy_radial_optimal",
    "dE_dR",
    "critical_radii",
    "indicator_monotonicity_margin",
]

_MAX_DIMENSION = 10

# One-sided traces closer than this (relative to their size) are treated
# as equal, so competitors assembled from rounded (slope, intercept)
# pairs do not pick up phantom jumps.  Genuine jumps on any sensible
# search grid are many orders of magnitude wider.
_TRACE_TOL = 1e-12


def _traces_differ(left: float, right: float) -> bool:
    return abs(left - right) > _TRACE_TOL * max(1.0, abs(left), abs(right))


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in dimension n (1 <= n <= 10).

    omega_1 = 2, omega_2 = pi, omega_3 = 4 pi / 3, and in general
    pi^(n/2) / Gamma(n/2 + 1).  The first three are tabulated so they
    round correctly (the Gamma route loses an ulp at n = 1).
    """
    if not isinstance(n, (int, np.integer)) or n < 1 or n > _MAX_DIMENSION:
        raise ValueError(f"dimension must be an integer in [1, {_MAX_DIMENSION}], got {n!r}")
    if n == 1:
        return 2.0
    if n == 2:
        return math.pi
    if n == 3:
        return 4.0 * math.pi / 3.0
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Dirichlet, jump and volume contributions of a competitor."""

    dirichlet: float
    jump: float
    volume: float

    def __post_init__(self):
        for name in ("dirichlet", "jump", "volume"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} term must be finite and nonnegative, got {v}")

    @property
    def total(self) -> float:
        return self.dirichlet + self.jump + self.volume

    def as_dict(self) -> dict:
        return {
            "dirichlet": self.dirichlet,
            "jump": self.jump,
            "volume": self.volume,
            "total": self.total,
        }


@dataclass(frozen=True)
class Competitor1D:
    """Piecewise-affine competitor on [a, b] with a finite jump set.

    ``breakpoints`` splits [a, b] into ``len(breakpoints) + 1``
    subintervals; ``pieces[i]`` is the (slope, intercept) pair of the
    affine function on the i-th subinterval.  Jumps are located at the
    breakpoints where the one-sided traces of adjacent pieces disagree.
    ``left_data`` / ``right_data`` are optional Dirichlet values at a and
    b; a trace mismatch there counts as a boundary jump.

    Truncating values to [0, 1] never increases the energy, but scaled
    competitors are legitimate too, so no range restriction is enforced.
    """

    a: float = 0.0
    b: float = 1.0
    breakpoints: tuple = ()
    pieces: tuple = ((0.0, 0.0),)
    left_data: float = None
    right_data: float = None

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(x) for x in self.breakpoints))
        object.__setattr__(
            self, "pieces", tuple((float(s), float(c)) for s, c in self.pieces)
        )
        self.validate()

    def validate(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ValueError(f"invalid interval [{self.a}, {self.b}]")
        if len(self.pieces) != len(self.breakpoints) + 1:
            raise ValueError(
                f"{len(self.breakpoints)} breakpoints require "
                f"{len(self.breakpoints) + 1} pieces, got {len(self.pieces)}"
            )
        prev = self.a
        for x in self.breakpoints:
            if not (prev < x < self.b):
                raise ValueError(f"breakpoint {x} outside ({prev}, {self.b})")
            prev = x
        for slope, intercept in self.pieces:
            if not (math.isfinite(slope) and math.isfinite(intercept)):
                raise ValueError("piece coefficients must be finite")
        for name in ("left_data", "right_data"):
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise ValueError(f"{name} must be finite or None")

    @classmethod
    def affine(cls, a, b, start_value, end_value, left_data=None, right_data=None):
        """Single affine piece through (a, start_value) and (b, end_value)."""
        slope = (end_value - start_value) / (b - a)
        intercept = start_value - slope * a
        return cls(a=a, b=b, pieces=((slope, intercept),),
                   left_data=left_data, right_data=right_data)

    @property
    def nodes(self) -> tuple:
        return (self.a,) + self.breakpoints + (self.b,)

    @property
    def jumps(self) -> tuple:
        """Interior jumps as (location, left trace, right trace) triples."""
        out = []
        for i, x in enumerate(self.breakpoints):
            sl, cl = self.pieces[i]
            sr, cr = self.pieces[i + 1]
            left = sl * x + cl
            right = sr * x + cr
            if _traces_differ(left, right):
                out.append((x, left, right))
        return tuple(out)

    def evaluate(self, x):
        """Value at x (right-continuous at breakpoints)."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(np.asarray(self.breakpoints), x, side="right")
        slopes = np.array([p[0] for p in self.pieces])
        intercepts = np.array([p[1] for p in self.pieces])
        out = slopes[idx] * x + intercepts[idx]
        return out if out.ndim else float(out)

    def trace_at_a(self) -> float:
        slope, intercept = self.pieces[0]
        return slope * self.a + intercept

    def trace_at_b(self) -> float:
        slope, intercept = self.pieces[-1]
        return slope * self.b + intercept

    def scaled(self, factor: float) -> "Competitor1D":
        """The competitor factor * u, including scaled boundary data."""
        return Competitor1D(
            a=self.a,
            b=self.b,
            breakpoints=self.breakpoints,
            pieces=tuple((factor * s, factor * c) for s, c in self.pieces),
            left_data=None if self.left_data is None else factor * self.left_data,
            right_data=None if self.right_data is None else factor * self.right_data,
        )

    def with_extra_breakpoint(self, x: float) -> "Competitor1D":
        """Same function with an extra breakpoint at x (no new jump)."""
        if not (self.a < x < self.b):
            raise ValueError(f"breakpoint {x} outside ({self.a}, {self.b})")
        if x in self.breakpoints:
            return self
        i = int(np.searchsorted(np.asarray(self.breakpoints), x, side="right"))
        bps = self.breakpoints[:i] + (x,) + self.breakpoints[i:]
        pieces = self.pieces[: i + 1] + (self.pieces[i],) + self.pieces[i + 1 :]
        return Competitor1D(
            a=self.a, b=self.b, breakpoints=bps, pieces=pieces,
            left_data=self.left_data, right_data=self.right_data,
        )


def energy_1d(c: Competitor1D, beta: float) -> EnergyBreakdown:
    """Free-discontinuity energy of a 1-D competitor.

    dirichlet = sum of slope^2 * length over subintervals; jump =
    beta * sum of (left trace)^2 + (right trace)^2 over interior jumps
    and over boundary mismatches against the Dirichlet data; volume = 0.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    c.validate()
    nodes = c.nodes
    dirichlet = 0.0
    for i, (slope, _) in enumerate(c.pieces):
        dirichlet += slope * slope * (nodes[i + 1] - nodes[i])
    jump = 0.0
    for _, left, right in c.jumps:
        jump += beta * (left * left + right * right)
    if c.left_data is not None:
        trace = c.trace_at_a()
        if _traces_differ(trace, c.left_data):
            jump += beta * (c.left_data * c.left_data + trace * trace)
    if c.right_data is not None:
        trace = c.trace_at_b()
        if _traces_differ(trace, c.right_data):
            jump += beta * (c.right_data * c.right_data + trace * trace)
    return EnergyBreakdown(dirichlet=dirichlet, jump=jump, volume=0.0)


@dataclass(frozen=True)
class RadialProfile:
    """Radial competitor: 1 on B_1, harmonic layer down to trace delta on
    the sphere of radius R, zero outside."""

    n: int
    beta: float
    gamma: float
    R: float
    delta: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.n!r}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.R < 1.0:
            raise ValueError("R must be >= 1")
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")

    def is_robin_optimal(self, tol: float = 1e-12) -> bool:
        if self.R == 1.0:
            return True
        return abs(self.delta - delta_robin(self.n, self.beta, self.R)) <= tol


def energy_radial_general(p: RadialProfile) -> EnergyBreakdown:
    """Energy of a radial profile with arbitrary outer trace delta.

    dirichlet = n omega_n (1 - delta)^2 / Gamma(R), jump =
    beta n omega_n R^(n-1) delta^2, volume = omega_n gamma^2 R^n.
    At R = 1 the profile degenerates to the indicator of the unit ball,
    whose jump trace is 1 regardless of delta.
    """
    w = unit_ball_volume(p.n)
    if p.R == 1.0:
        return EnergyBreakdown(
            dirichlet=0.0,
            jump=p.beta * p.n * w,
            volume=w * p.gamma**2,
        )
    return EnergyBreakdown(
        dirichlet=p.n * w * (1.0 - p.delta) ** 2 / gamma(p.n, p.R),
        jump=p.beta * p.n * w * p.R ** (p.n - 1) * p.delta**2,
        volume=w * p.gamma**2 * p.R**p.n,
    )


def energy_radial_optimal(n: int, beta: float, gamma_: float, R):
    """Energy of the Robin-optimal radial profile:
    n omega_n beta R^(n-1) delta(R) + omega_n gamma^2 R^n."""
    w = unit_ball_volume(n)
    R = np.asarray(R, dtype=float)
    d = np.asarray(delta_robin(n, beta, R))
    out = n * w * beta * R ** (n - 1) * d + w * gamma_**2 * R**n
    return out if out.ndim else float(out)


def dE_dR(n: int, beta: float, gamma_: float, R):
    """Derivative in R of energy_radial_optimal:
    n omega_n R^(n-1) [gamma^2 - (beta^2 - (n-1) beta / R) delta(R)^2]."""
    w = unit_ball_volume(n)
    R = np.asarray(R, dtype=float)
    bracket = gamma_**2 - robin_bracket(n, beta, R)
    out = n * w * R ** (n - 1) * bracket
    return out if out.ndim else float(out)


def critical_radii(n: int, beta: float, gamma_: float) -> list:
    """All roots R > 1 of dE_dR, ascending: at most two.

    dE_dR has the sign of gamma^2 - robin_bracket(R), and the bracket has a
    single peak, at r*.  Below it there is a root when gamma^2 exceeds the
    bracket at R = 1; past it one when gamma > 0, before the radius where
    beta delta falls to gamma (the bracket is at most beta^2 delta^2).
    That radius can lie past the float range for a tiny gamma; its root is
    then not listed.
    """

    def sign_of_dE_dR(R):
        # gamma minus the bracket's signed root: gamma is not squared, so its
        # root stays where gamma^2 underflows
        s = beta ** 2 - (n - 1) * beta / R
        return gamma_ - math.copysign(math.sqrt(abs(s)), s) * delta_robin(n, beta, R)

    r_star = robin_bracket_sup(n, beta)[0]
    if not sign_of_dE_dR(r_star) < 0.0:
        return []
    roots = []
    if sign_of_dE_dR(1.0) > 0.0:
        roots.append(brentq(sign_of_dE_dR, 1.0, r_star, xtol=1e-13))
    if gamma_ > 0.0:
        try:
            r_hat = _robin_tail(n, beta, gamma_, 2.0 * r_star)
        except OverflowError:
            return roots
        roots.append(brentq(sign_of_dE_dR, r_star, r_hat, xtol=1e-13))
    return roots


def indicator_monotonicity_margin(n: int, beta: float, gamma_: float) -> float:
    """Infimum over r >= 1 of gamma^2 - (beta^2 - (n-1) beta / r) delta(r)^2.

    A nonnegative value certifies that R -> energy_radial_optimal(R) is
    non-decreasing on [1, inf), hence the indicator of the unit ball beats
    every radial profile (see :func:`calx.potentials.robin_bracket_sup`).
    """
    return gamma_ ** 2 - robin_bracket_sup(n, beta)[1]
