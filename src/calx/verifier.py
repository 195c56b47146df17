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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from calx.potentials import delta_robin, u_radial

_AXIOMS = ("a", "b", "graph", "divflux")


@dataclass(frozen=True)
class VerifyConfig:
    """Grid resolutions, tolerances and mode switches for verification.

    ``pos_res`` and ``t_res`` control the pointwise grids, ``pair_res``
    the number of ``t`` nodes used for the pairwise axiom (b) scan.
    ``axioms`` selects which groups run.  ``threads`` caps the worker
    count for the pairwise axiom (b) scan, the only threaded step;
    results are merged in grid order, so the report does not depend on it.
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
        n = int(params["n"])
        beta = params["beta"]
        R = params["R"]
        dR = delta_robin(n, beta, R)
        amp = beta * dR * R ** (n - 1)

        def value(pos):
            return u_radial(n, beta, R, pos)[0]

        def grad(pos):
            pos = np.asarray(pos, dtype=float)
            out = np.where((pos >= 1.0) & (pos <= R), -amp * pos ** (1 - n), 0.0)
            return out

        return CalibratedFunction(
            value=value,
            grad=grad,
            jumps=((R, 0.0, dR, -1.0),),
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
    worst = float(np.min(residual[finite])) if finite.any() else float("nan")
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


def _b_scan_chunk(pos_chunk, Psi_rows, tg, bound, tol, max_keep):
    """Pairwise scan of the sampled ``Psi`` rows of one chunk of positions.

    Returns ``(worst, count, kept, reduced)``.
    """

    worst = np.inf
    reduced_worst = np.inf
    count = 0
    kept = []
    iu = np.triu_indices(tg.size, k=1)
    for p, vals in zip(pos_chunk, Psi_rows):
        if not np.isfinite(vals).all():
            count += 1
            kept.append(Violation("b", (float(p), float("nan"), float("nan")),
                                  float("nan"), tol))
            continue
        diff = np.abs(vals[None, :] - vals[:, None])
        margin = bound - diff
        tri = margin[iu]
        m = float(tri.min()) if tri.size else np.inf
        worst = min(worst, m)
        reduced = bound[0] - np.abs(vals - vals[0])
        reduced_worst = min(reduced_worst, float(reduced[1:].min()) if tg.size > 1 else np.inf)
        bad = tri < -tol
        if bad.any():
            count += int(bad.sum())
            ii = iu[0][bad]
            jj = iu[1][bad]
            order = np.argsort(tri[bad])
            for k in order[: max_keep - len(kept)]:
                kept.append(Violation(
                    "b",
                    (float(p), float(tg[ii[k]]), float(tg[jj[k]])),
                    float(-tri[bad][k]),
                    tol,
                ))
    return worst, count, kept, reduced_worst


def check_condition_b(field, beta, config=None):
    """Pairwise axiom (b): ``|Psi(pos, s) - Psi(pos, r)| <= beta (r^2 + s^2)``.

    The scan covers the full triangular grid of ``t`` pairs.  For fields
    directed along a fixed direction it also records the reduced margin
    ``beta s^2 - |Psi(pos, s)|`` (the ``r = 0`` slice), which is how the
    sharp cases are proved.  ``Psi`` is sampled once on the whole
    ``pos x t`` pair grid; each fibre then scans its row.
    """

    config = config or VerifyConfig()
    pos = np.linspace(field.pos_range[0], field.pos_range[1], config.pos_res)
    tg = np.linspace(0.0, field.t_max, config.pair_res)
    bound = beta * (tg[None, :] ** 2 + tg[:, None] ** 2)
    Psi = field.Psi(*np.meshgrid(pos, tg, indexing="ij"))
    chunks = list(zip(np.array_split(pos, config.threads), np.array_split(Psi, config.threads)))

    def scan(chunk):
        return _b_scan_chunk(*chunk, tg, bound, config.tol_b, config.max_recorded)

    if config.threads == 1:
        outs = [scan(chunks[0])]
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            outs = list(pool.map(scan, chunks))
    worst = min(o[0] for o in outs)
    count = sum(o[1] for o in outs)
    violations = []
    for o in outs:
        violations.extend(o[2])
    violations = violations[: config.max_recorded]
    reduced = min(o[3] for o in outs)
    status = "pass" if count == 0 else "fail"
    return AxiomResult(
        axiom="b",
        status=status,
        violations=violations,
        n_violations=count,
        worst_margin=float(worst) if np.isfinite(worst) else None,
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
            pgrid = np.linspace(lo + margin, hi - margin, config.pos_res)
            curve = np.asarray(interface.g(pgrid), dtype=float)
            if interface.g_prime is not None:
                slope = np.asarray(interface.g_prime(pgrid), dtype=float)
            else:
                hg = 1e-6 * (hi - lo)
                slope = (np.asarray(interface.g(pgrid + hg), dtype=float)
                         - np.asarray(interface.g(pgrid - hg), dtype=float)) / (2.0 * hg)
            psi_lo, phit_lo = field.evaluate(pgrid, curve - shift)
            psi_hi, phit_hi = field.evaluate(pgrid, curve + shift)
            residual = np.abs((phit_hi - phit_lo) - slope * (psi_hi - psi_lo))
            residual = np.where(np.isfinite(residual), residual, np.inf)
            bad_f = residual > config.tol_flux
            flux_worst = max(flux_worst, float(np.max(residual)))
            n_bad_flux += int(bad_f.sum())
            for k in np.nonzero(bad_f)[0][: config.max_recorded]:
                violations.append(Violation(
                    "flux", (interface.name, float(pgrid[k])),
                    float(residual[k]), config.tol_flux))
        else:
            r0 = interface.radius
            tmargin = 1e-6 * field.t_max
            tgrid = np.linspace(tmargin, field.t_max - tmargin, config.t_res)
            dr = 1e-9 * max(1.0, r0)
            psi_in = field.evaluate(np.full_like(tgrid, r0 - dr), tgrid)[0]
            psi_out = field.evaluate(np.full_like(tgrid, r0 + dr), tgrid)[0]
            residual = np.abs(psi_out - psi_in)
            residual = np.where(np.isfinite(residual), residual, np.inf)
            bad_f = residual > config.tol_flux
            flux_worst = max(flux_worst, float(np.max(residual)))
            n_bad_flux += int(bad_f.sum())
            for k in np.nonzero(bad_f)[0][: config.max_recorded]:
                violations.append(Violation(
                    "flux", (interface.name, float(tgrid[k])),
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
