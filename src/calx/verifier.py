"""Grid verification of the calibration axioms.

Every check works on deterministic tensor grids over
``pos_range x [0, t_max]`` and reports signed margins: a positive worst
margin means the axiom holds with room to spare on the sampled points,
a violation is recorded whenever the margin drops below the negated
tolerance.  Divergence is checked region by region.  Regions that carry
an analytic spatial derivative of ``phi_x`` use it by default because
several constructions contain factors like ``1/(r^(n-1) Gamma(r))``
whose finite differences are hopeless near ``r = 1``; pass
``divergence_mode='fd'`` to force finite differences everywhere.  The
time derivative of ``phi_t`` is always a central difference, which is
exact here since every region is polynomial of degree at most two
in ``t``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from calx.calibration_fields import radial_shell_profile

_AXIOMS = ("a", "b", "graph", "divflux")


@dataclass(frozen=True)
class VerifyConfig:
    """Grid resolutions, tolerances and mode switches for verification.

    ``pos_res`` and ``t_res`` control the pointwise grids, ``pair_res``
    the number of ``t`` nodes used for the pairwise axiom (b) scan.
    ``axioms`` selects which groups run.  ``threads`` is accepted and
    validated for compatibility and has no effect: the axiom (b) scan
    sorts each fibre once, and a thread pool around it does not pay.
    """

    pos_res: int = 128
    t_res: int = 128
    pair_res: int = 128
    tol_a: float = 1e-9
    tol_b: float = 1e-9
    tol_div: float = 1e-5
    tol_flux: float = 1e-5
    tol_graph: float = 1e-9
    fd_step: float = 1e-3
    axioms: tuple = _AXIOMS
    divergence_mode: str = "auto"
    threads: int = 1
    max_recorded: int = 10000

    def __post_init__(self):
        for name in ("pos_res", "t_res", "pair_res"):
            if int(getattr(self, name)) < 16:
                raise ValueError("{} must be at least 16".format(name))
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("tol_a", "tol_b", "tol_div", "tol_flux", "tol_graph", "fd_step"):
            if float(getattr(self, name)) <= 0.0:
                raise ValueError("{} must be positive".format(name))
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.divergence_mode not in ("auto", "fd"):
            raise ValueError("divergence_mode must be 'auto' or 'fd'")
        if int(self.threads) < 1:
            raise ValueError("threads must be at least 1")
        object.__setattr__(self, "threads", int(self.threads))
        unknown = set(self.axioms) - set(_AXIOMS)
        if unknown:
            raise ValueError("unknown axiom ids: {}".format(sorted(unknown)))
        object.__setattr__(self, "axioms", tuple(self.axioms))


@dataclass(frozen=True)
class Violation:
    """A single sampled point where an axiom fails its tolerance."""

    axiom: str
    location: tuple
    residual: float
    tol: float


@dataclass
class AxiomResult:
    """Outcome of one axiom group: status, margins and violations."""

    axiom: str
    status: str
    violations: list
    n_violations: int
    worst_margin: Optional[float]
    meta: dict

    def to_dict(self):
        return {
            "axiom": self.axiom,
            "status": self.status,
            "n_violations": self.n_violations,
            "worst_margin": self.worst_margin,
            "violations": [
                {"location": [float(v) if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in viol.location],
                 "residual": viol.residual,
                 "tol": viol.tol}
                for viol in self.violations[:50]
            ],
            "meta": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                     for k, v in self.meta.items()},
        }


@dataclass(frozen=True)
class CalibratedFunction:
    """The function a field is supposed to calibrate.

    ``value`` and ``grad`` are vectorized callables of the position
    (``grad`` is the signed component along the field direction).
    ``jumps`` lists jump fibers as ``(pos, lo, hi, nu_sign)`` with
    ``lo < hi`` and ``nu_sign`` the component of the jump normal along
    the field direction.  ``gamma_sq`` is the ``gamma^2`` entering the
    graph condition on ``phi_t`` (zero for Dirichlet-type problems).
    """

    value: Callable
    grad: Callable
    jumps: tuple = ()
    gamma_sq: float = 0.0


def calibrated_function_for(field):
    """Canonical calibrated function for fields built by this package.

    Returns ``None`` when the field kind carries no canonical profile.
    """

    kind = field.kind
    params = field.params
    if kind in ("1d", "harmonic"):
        profile = field.profile
        if profile is None:
            return None
        return CalibratedFunction(
            value=profile.value,
            grad=profile.grad_component,
            jumps=(),
            gamma_sq=0.0,
        )
    if kind in ("indicator-const", "indicator-two-piece"):
        def value(pos):
            return np.zeros_like(np.asarray(pos, dtype=float))

        def grad(pos):
            return np.zeros_like(np.asarray(pos, dtype=float))

        return CalibratedFunction(
            value=value,
            grad=grad,
            jumps=((1.0, 0.0, 1.0, -1.0),),
            gamma_sq=field.gamma_sq_term,
        )
    if kind == "ball-harmonic":
        R = params["R"]
        profile = radial_shell_profile(int(params["n"]), params["beta"], R)

        def grad(pos):
            pos = np.asarray(pos, dtype=float)
            return np.where((pos >= 1.0) & (pos <= R), profile.grad_component(pos), 0.0)

        return CalibratedFunction(
            value=profile.value,
            grad=grad,
            jumps=((R, 0.0, profile.m, -1.0),),
            gamma_sq=field.gamma_sq_term,
        )
    return None


def _grids(field, config):
    pos = np.linspace(field.pos_range[0], field.pos_range[1], config.pos_res)
    t = np.linspace(0.0, field.t_max, config.t_res)
    return pos, t


def check_condition_a(field, gamma_sq_term, config=None):
    """Pointwise axiom (a): ``phi_t >= |phi_x|^2/4 - gamma^2 1_{(0,1]}(t)``."""

    config = config or VerifyConfig()
    pos, t = _grids(field, config)
    P, T = np.meshgrid(pos, t, indexing="ij")
    psi, phit = field.evaluate(P, T)
    residual = phit - 0.25 * psi ** 2 + gamma_sq_term * (T > 0.0)
    finite = np.isfinite(residual)
    bad = (~finite) | (residual < -config.tol_a)
    violations = []
    idx = np.argwhere(bad)
    for i, j in idx[: config.max_recorded]:
        violations.append(Violation(
            axiom="a",
            location=(float(P[i, j]), float(T[i, j])),
            residual=float(residual[i, j]) if finite[i, j] else float("nan"),
            tol=config.tol_a,
        ))
    worst = float(np.min(residual)) if finite.all() else float("nan")
    status = "pass" if not bad.any() else "fail"
    return AxiomResult(
        axiom="a",
        status=status,
        violations=violations,
        n_violations=int(bad.sum()),
        worst_margin=worst,
        meta={"pos_res": config.pos_res, "t_res": config.t_res,
              "gamma_sq_term": float(gamma_sq_term)},
    )


# The sort proposes pairs and the exact pair expression decides every
# pair whose sorted margin lies within this slack of -tol or of the worst
# margin.  The slack is relative to the fibre scale max|Psi| + beta t_max^2
# (plus tol); rounding moves a sorted margin by about 20 units of 2^-53 of
# that scale at most, so 2^-46 leaves a wide safety factor.
_B_SLACK = 2.0 ** -46


def _b_pairs(order, start, stop):
    """Unordered pairs ``(fibre, r, c)``, ``r < c``, read off sorted rows.

    Node ``i`` of fibre ``f`` pairs with ``order[f, start[f, i]:stop[f, i]]``;
    the pair of a node with itself is dropped.
    """

    counts = (stop - start).ravel()
    cell = np.flatnonzero(counts)
    counts = counts[cell]
    cell = np.repeat(cell, counts)
    step = np.arange(cell.size) - np.repeat(np.cumsum(counts) - counts, counts)
    f, i = np.divmod(cell, order.shape[1])
    j = order[f, start.ravel()[cell] + step]
    keep = i != j
    f, i, j = f[keep], i[keep], j[keep]
    return f, np.minimum(i, j), np.maximum(i, j)


def check_condition_b(field, beta, config=None):
    """Pairwise axiom (b): ``|Psi(pos, s) - Psi(pos, r)| <= beta (r^2 + s^2)``.

    The scan covers the full triangular grid of ``t`` pairs.  For fields
    directed along a fixed direction it also records the reduced margin
    ``beta s^2 - |Psi(pos, s)|`` (the ``r = 0`` slice), which is how the
    sharp cases are proved.  ``Psi`` is sampled once on the whole
    ``pos x t`` pair grid.

    Each fibre costs one sort instead of an ``N x N`` pair matrix.  With
    ``a = Psi - beta t^2`` and ``b = Psi + beta t^2`` the margin of the
    pair ``i < j`` is ``min(b_j - a_i, b_i - a_j)``, and for ``beta >= 0``
    the two one-sided failures never happen together.  So a fibre has
    ``sum_i #{j : b_j < a_i - tol}`` violations, counted by one
    ``argsort`` of ``b`` and one ``searchsorted``, and its worst margin
    pairs the smallest ``b`` with the largest ``a`` (or a runner-up when
    both sit at the same node).  The sort only proposes pairs: every pair
    whose sorted margin lies within a few ulps of ``max|Psi| + beta
    t_max^2`` of ``-tol`` or of the worst margin is decided by the exact
    expression ``beta (t_r^2 + t_c^2) - |Psi_c - Psi_r|``, which also
    gives every recorded residual, so counts and margins are those of the
    full pair scan bit for bit.  Each fibre records its violations worst
    first.  A fibre with a non-finite sample counts as one violation and
    makes the worst margin NaN.
    """

    config = config or VerifyConfig()
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    tol = config.tol_b
    pos = np.linspace(field.pos_range[0], field.pos_range[1], config.pos_res)
    tg = np.linspace(0.0, field.t_max, config.pair_res)
    tg2 = tg ** 2
    Psi = field.Psi(*np.meshgrid(pos, tg, indexing="ij"))
    w = beta * tg2
    scale = np.max(np.abs(Psi), axis=1) + w[-1]
    # false for NaN and inf; the thresholds below stay within 3 scales
    ok = scale <= np.finfo(float).max / 4.0
    psi = Psi[ok]
    reduced = beta * (tg2 + tg2[0]) - np.abs(psi - psi[:, :1])
    reduced = float(np.min(reduced[:, 1:])) if psi.size else np.inf

    N = tg.size
    a, b = psi - w, psi + w
    slack = _B_SLACK * (scale[ok] + tol)
    order = np.argsort(b, axis=1)
    fibres = np.arange(psi.shape[0])
    top = np.argmax(a, axis=1)
    b1, b2 = b[fibres, order[:, 0]], b[fibres, order[:, 1]]
    a1, a2 = a[fibres, top], np.partition(a, -2, axis=1)[:, -2]
    lowest = np.where(top == order[:, 0], np.minimum(b2 - a1, b1 - a2), b1 - a1)

    # ranks in sorted b below a_i + offset: the worst-margin candidates,
    # the certain violations, and the end of the band left to the exact
    # expression
    offsets = np.stack([lowest + 2.0 * slack, -tol - slack, -tol + slack])
    ranks = np.empty((3,) + a.shape, dtype=np.int32)
    for f in fibres:
        ranks[:, f] = np.searchsorted(b[f, order[f]], a[f] + offsets[:, f, None])
    near, sure, band_end = ranks

    def exact(f, r, c):
        return beta * (tg2[c] + tg2[r]) - np.abs(psi[f, c] - psi[f, r])

    worst = np.min(exact(*_b_pairs(order, np.zeros_like(near), near)), initial=np.inf)

    # both orientations of a pair can fall in the band, so merge them; a
    # pair certain in one orientation is in neither the band nor the
    # certain set in the other, because b >= a at every node and rounding
    # is monotone
    f, r, c = _b_pairs(order, sure, band_end)
    f, r = np.divmod(np.unique((f * N + r) * N + c), N * N)
    r, c = np.divmod(r, N)
    bad = exact(f, r, c) < -tol
    band_f, band_r, band_c = f[bad], r[bad], c[bad]

    # per position: its violations, or one for a non-finite fibre; the
    # recorded list follows positions in order, each fibre worst first
    entries = np.ones(pos.size, dtype=np.int64)
    entries[ok] = sure.sum(axis=1) + np.bincount(band_f, minlength=psi.shape[0])
    fibre_of = np.cumsum(ok) - 1
    band_at = np.searchsorted(band_f, np.arange(psi.shape[0] + 1))
    violations = []
    for p in np.flatnonzero(entries):
        room = config.max_recorded - len(violations)
        if room <= 0:
            break
        if not ok[p]:
            violations.append(Violation("b", (float(pos[p]), float("nan"), float("nan")),
                                        float("nan"), tol))
            continue
        f = fibre_of[p]
        _, r, c = _b_pairs(order[f:f + 1], np.zeros_like(sure[f:f + 1]), sure[f:f + 1])
        r = np.concatenate([r, band_r[band_at[f]:band_at[f + 1]]])
        c = np.concatenate([c, band_c[band_at[f]:band_at[f + 1]]])
        triu = np.argsort(r * N + c)
        r, c = r[triu], c[triu]
        margin = exact(f, r, c)
        for k in np.argsort(margin)[:room]:
            violations.append(Violation("b", (float(pos[p]), float(tg[r[k]]), float(tg[c[k]])),
                                        float(-margin[k]), tol))

    count = int(entries.sum())
    return AxiomResult(
        axiom="b",
        status="pass" if count == 0 else "fail",
        violations=violations,
        n_violations=count,
        worst_margin=float(worst) if ok.all() else float("nan"),
        meta={"pos_res": config.pos_res, "pair_res": config.pair_res,
              "beta": float(beta),
              "reduced_margin": float(reduced) if np.isfinite(reduced) else None},
    )


def check_graph_conditions(field, calibrated, config=None):
    """Graph matching conditions of the calibrated function.

    On the graph: ``phi_x(pos, u) = 2 grad u`` and ``phi_t(pos, u) =
    |grad u|^2 - gamma^2 1_{(0,1]}(u)``.  Across each jump fiber:
    ``Psi(pos, hi) - Psi(pos, lo) = beta (lo^2 + hi^2) nu_sign``.
    Returns a pair of results, one for the pointwise graph conditions
    and one for the jump fibers.
    """

    config = config or VerifyConfig()
    beta = float(field.params["beta"])
    gamma_sq = float(calibrated.gamma_sq)
    span = field.pos_range[1] - field.pos_range[0]
    # keep away from the extreme fibers, where a competing minimizer can
    # touch the graph of the calibrated profile and the field value at
    # the contact corner depends on the approach direction
    margin = 1e-4 * span
    pos = np.linspace(field.pos_range[0] + margin,
                      field.pos_range[1] - margin, config.pos_res)
    keep = np.ones(pos.shape, dtype=bool)
    for jpos, _, _, _ in calibrated.jumps:
        keep &= np.abs(pos - jpos) > 1e-9 * max(1.0, span)
    pos = pos[keep]
    u = np.asarray(calibrated.value(pos), dtype=float)
    g = np.asarray(calibrated.grad(pos), dtype=float)
    psi, phit = field.evaluate(pos, u)
    res_x = psi - 2.0 * g
    res_t = phit - (g ** 2 - gamma_sq * (u > 0.0))
    bad = (np.abs(res_x) > config.tol_graph) | (np.abs(res_t) > config.tol_graph)
    bad |= ~np.isfinite(res_x) | ~np.isfinite(res_t)
    violations = []
    for k in np.nonzero(bad)[0][: config.max_recorded]:
        residual = max(abs(float(res_x[k])), abs(float(res_t[k])))
        violations.append(Violation("a_prime", (float(pos[k]), float(u[k])),
                                    residual, config.tol_graph))
    margin_x = float(np.max(np.abs(res_x))) if res_x.size else 0.0
    margin_t = float(np.max(np.abs(res_t))) if res_t.size else 0.0
    a_prime = AxiomResult(
        axiom="a_prime",
        status="pass" if not bad.any() else "fail",
        violations=violations,
        n_violations=int(bad.sum()),
        worst_margin=config.tol_graph - max(margin_x, margin_t),
        meta={"max_phi_x_residual": margin_x, "max_phi_t_residual": margin_t,
              "samples": int(pos.size)},
    )

    jump_violations = []
    worst_jump = 0.0
    for jpos, lo, hi, nu in calibrated.jumps:
        dPsi = float(field.Psi(jpos, hi)) - float(field.Psi(jpos, lo))
        target = beta * (lo ** 2 + hi ** 2) * nu
        residual = abs(dPsi - target)
        worst_jump = max(worst_jump, residual)
        if residual > config.tol_graph or not np.isfinite(residual):
            jump_violations.append(Violation(
                "b_prime", (float(jpos), float(lo), float(hi)), residual,
                config.tol_graph))
    b_prime = AxiomResult(
        axiom="b_prime",
        status="pass" if not jump_violations else "fail",
        violations=jump_violations,
        n_violations=len(jump_violations),
        worst_margin=config.tol_graph - worst_jump,
        meta={"n_jumps": len(calibrated.jumps),
              "max_jump_residual": worst_jump},
    )
    return a_prime, b_prime


def _central_difference(field, P, T, ridx, h, axis, quantity):
    """Central difference of ``quantity`` along ``pos`` (axis 0) or ``t`` (axis 1).

    One sampling pass per stencil side.  Also returns where the stencil
    stays inside the domain and in the region ``ridx`` of its centre.
    """

    grid = [P, T]
    lo, hi = field.pos_range if axis == 0 else (0.0, field.t_max)
    X = grid[axis]
    ok = (X - h >= lo) & (X + h <= hi)
    sides = []
    for step in (h, -h):
        grid[axis] = np.clip(X + step, lo, hi)
        idx, values = field._sample(*grid, quantity)
        ok &= idx == ridx
        sides.append(values)
    return (sides[0] - sides[1]) / (2.0 * h), ok


def check_divergence_and_flux(field, config=None):
    """Interior divergence, interface flux continuity and boundedness.

    The divergence of a field directed along ``e_r`` is
    ``d(psi)/dr + (n-1) psi / r + d(phi_t)/dt`` (the middle term drops
    on an interval).  Interface flux continuity compares the two side
    limits of ``phi . normal`` along each declared interface.
    """

    config = config or VerifyConfig()
    h = config.fd_step
    pos, t = _grids(field, config)
    P, T = np.meshgrid(pos, t, indexing="ij")
    if config.divergence_mode == "auto":
        ridx, psi, phit, dpsi = field._sample(P, T, "psi", "phi_t", "dpsi_dpos")
        has_dpsi = np.array([r.dpsi_dpos is not None for r in field.regions])
        analytic = (ridx >= 0) & has_dpsi[ridx]
    else:
        ridx, psi, phit = field._sample(P, T, "psi", "phi_t")
        dpsi, analytic = np.full(P.shape, np.nan), np.zeros(P.shape, dtype=bool)

    violations = []
    finite = np.isfinite(psi) & np.isfinite(phit)
    for i, j in np.argwhere(~finite)[: config.max_recorded]:
        violations.append(Violation(
            "bounded", (float(P[i, j]), float(T[i, j])), float("nan"),
            config.tol_div))
    max_phi_x = float(np.max(np.abs(psi[finite]))) if finite.any() else float("nan")
    max_phi_t = float(np.max(np.abs(phit[finite]))) if finite.any() else float("nan")

    dphit, ok_t = _central_difference(field, P, T, ridx, h, 1, "phi_t")
    ok_pos = analytic
    if (~analytic & (ridx >= 0)).any():
        fd_dpsi, ok = _central_difference(field, P, T, ridx, h, 0, "psi")
        dpsi = np.where(analytic, dpsi, fd_dpsi)
        ok_pos = analytic | ok

    valid = ok_t & ok_pos & finite
    div = np.where(valid, dpsi + dphit, 0.0)
    if field.geometry == "radial":
        div = np.where(valid, div + (field.n - 1) * psi / P, 0.0)
    bad = valid & (np.abs(div) > config.tol_div)
    div_worst = float(np.max(np.abs(div[valid]))) if valid.any() else 0.0
    for i, j in np.argwhere(bad)[: config.max_recorded]:
        violations.append(Violation(
            "div", (float(P[i, j]), float(T[i, j])), float(abs(div[i, j])),
            config.tol_div))
    n_bad_div = int(bad.sum())

    flux_worst = 0.0
    n_bad_flux = 0
    shift = 1e-9 * max(1.0, field.t_max)
    for interface in field.interfaces:
        if interface.kind == "graph":
            lo, hi = interface.pos_range
            margin = 1e-4 * (hi - lo)
            coords = np.linspace(lo + margin, hi - margin, config.pos_res)
            curve = np.asarray(interface.g(coords), dtype=float)
            if interface.g_prime is not None:
                slope = np.asarray(interface.g_prime(coords), dtype=float)
            else:
                hg = 1e-6 * (hi - lo)
                slope = (np.asarray(interface.g(coords + hg), dtype=float)
                         - np.asarray(interface.g(coords - hg), dtype=float)) / (2.0 * hg)
            psi_lo, phit_lo = field.evaluate(coords, curve - shift)
            psi_hi, phit_hi = field.evaluate(coords, curve + shift)
            residual = np.abs((phit_hi - phit_lo) - slope * (psi_hi - psi_lo))
        else:
            r0 = interface.radius
            tmargin = 1e-6 * field.t_max
            coords = np.linspace(tmargin, field.t_max - tmargin, config.t_res)
            dr = 1e-9 * max(1.0, r0)
            psi_in = field.evaluate(np.full_like(coords, r0 - dr), coords)[0]
            psi_out = field.evaluate(np.full_like(coords, r0 + dr), coords)[0]
            residual = np.abs(psi_out - psi_in)
        residual = np.where(np.isfinite(residual), residual, np.inf)
        bad_f = residual > config.tol_flux
        flux_worst = max(flux_worst, float(np.max(residual)))
        n_bad_flux += int(bad_f.sum())
        for k in np.nonzero(bad_f)[0][: config.max_recorded]:
            violations.append(Violation(
                "flux", (interface.name, float(coords[k])),
                float(residual[k]), config.tol_flux))

    n_nonfinite = int((~finite).sum())
    status = "pass" if (n_bad_div == 0 and n_bad_flux == 0 and n_nonfinite == 0) else "fail"
    return AxiomResult(
        axiom="divflux",
        status=status,
        violations=violations[: config.max_recorded],
        n_violations=n_bad_div + n_bad_flux + n_nonfinite,
        worst_margin=min(config.tol_div - div_worst, config.tol_flux - flux_worst),
        meta={
            "divergence_mode": config.divergence_mode,
            "div_worst": div_worst,
            "flux_worst": flux_worst,
            "n_div_checked": int(valid.sum()),
            "n_div_skipped": int((~valid).sum()),
            "max_abs_phi_x": max_phi_x,
            "max_abs_phi_t": max_phi_t,
        },
    )


@dataclass
class VerificationReport:
    """Aggregated verification outcome.

    ``results`` maps axiom group ids (``a``, ``b``, ``a_prime``,
    ``b_prime``, ``divflux``) to :class:`AxiomResult`.  A report built
    from a failed construction carries the reason in
    ``construction_error`` and no results.
    """

    field_kind: str
    results: dict
    grid_meta: dict
    construction_error: Optional[str] = None

    @classmethod
    def infeasible(cls, reason, kind="unknown"):
        return cls(field_kind=kind, results={}, grid_meta={},
                   construction_error=str(reason))

    @property
    def passed(self):
        if self.construction_error is not None:
            return False
        return all(r.status != "fail" for r in self.results.values())

    def violation_count(self, axiom=None):
        if axiom is None:
            return sum(r.n_violations for r in self.results.values())
        return self.results[axiom].n_violations if axiom in self.results else 0

    def to_json(self, indent=2):
        payload = {
            "field_kind": self.field_kind,
            "passed": self.passed,
            "construction_error": self.construction_error,
            "grid": self.grid_meta,
            "results": {k: r.to_dict() for k, r in sorted(self.results.items())},
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def summary_table(self):
        lines = []
        if self.construction_error is not None:
            lines.append("construction failed: {}".format(self.construction_error))
            return "\n".join(lines)
        lines.append("{:<10} {:<8} {:>12} {:>14}".format(
            "axiom", "status", "violations", "worst margin"))
        for key in ("a", "b", "a_prime", "b_prime", "divflux"):
            if key not in self.results:
                continue
            r = self.results[key]
            margin = "-" if r.worst_margin is None else "{:+.3e}".format(r.worst_margin)
            lines.append("{:<10} {:<8} {:>12d} {:>14}".format(
                r.axiom, r.status, r.n_violations, margin))
        lines.append("overall: {}".format("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def verify_all(field, calibrated=None, config=None):
    """Run every selected axiom group and aggregate the outcome.

    ``calibrated`` defaults to the canonical calibrated function of the
    field kind; pass one explicitly to check a different minimizer
    against the same field.  Graph checks are skipped when no
    calibrated function is available.
    """

    config = config or VerifyConfig()
    results = {}
    if "a" in config.axioms:
        results["a"] = check_condition_a(field, field.gamma_sq_term, config)
    if "b" in config.axioms:
        results["b"] = check_condition_b(field, float(field.params["beta"]), config)
    if "graph" in config.axioms:
        if calibrated is None:
            calibrated = calibrated_function_for(field)
        if calibrated is None:
            skipped = AxiomResult("a_prime", "skipped", [], 0, None,
                                  {"reason": "no calibrated function"})
            results["a_prime"] = skipped
            results["b_prime"] = AxiomResult("b_prime", "skipped", [], 0, None,
                                             {"reason": "no calibrated function"})
        else:
            a_prime, b_prime = check_graph_conditions(field, calibrated, config)
            results["a_prime"] = a_prime
            results["b_prime"] = b_prime
    if "divflux" in config.axioms:
        results["divflux"] = check_divergence_and_flux(field, config)
    grid_meta = {
        "pos_range": [float(field.pos_range[0]), float(field.pos_range[1])],
        "t_max": float(field.t_max),
        "pos_res": config.pos_res,
        "t_res": config.t_res,
        "pair_res": config.pair_res,
        "divergence_mode": config.divergence_mode,
    }
    return VerificationReport(field_kind=field.kind, results=results,
                              grid_meta=grid_meta)


def perturb_phi_t(field, pos0, t0, amount, pos_halfwidth, t_halfwidth):
    """Copy of ``field`` with ``phi_t`` shifted by ``amount`` in a box.

    Used to confirm that the verifier localizes a planted defect: with
    a box small enough to contain a single grid node, the perturbed
    field must produce exactly one axiom (a) violation at that node.
    """

    bump = (float(pos0), float(t0), float(amount),
            float(pos_halfwidth), float(t_halfwidth))
    return dataclasses.replace(field, phi_t_bump=bump)
