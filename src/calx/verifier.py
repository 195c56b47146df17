"""Grid verification of the calibration axioms.

Every check works on deterministic tensor grids over
``pos_range x [0, t_max]`` and reports signed margins: a positive worst
margin means the axiom holds with room to spare on the sampled points.
Every pointwise check follows one verdict rule: a sample violates unless
its margin is finite and at least its floor, and any NaN or infinite
margin makes the worst margin NaN.  Axioms (a), (b), boundedness and the
divergence come from one table of the grid's fibres (fixed ``pos``, every
``t``) built once per pass: each region's run of ``t``, its stretch and
its coefficients, evaluated once.  Blocks of whole fibres are sampled
from it into the pass's one set of buffers and feed the tallies of every
selected group, which are merged in block order.  The divergence comes
from the polynomials in ``t`` each region declares, with no difference
quotient: ``d0 + d1 s`` is the analytic spatial derivative of ``phi_x``,
because several constructions contain factors like ``1/(r^(n-1)
Gamma(r))`` whose finite differences are hopeless near ``r = 1``, and
``c1 + 2 c2 s`` the time derivative of ``phi_t``.  It is affine in ``t``
on each region's stretch of a fibre, so it is checked at the two ends of
every stretch the table gives.  The flux check samples both sides of
every interface in one more pass.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from calx.calibration_fields import CalibratedFunction  # noqa: F401  (re-exported)
from calx.calibration_fields import _block, _poly

__all__ = [
    "VerifyConfig",
    "VerificationReport",
    "check_condition_a",
    "check_condition_b",
    "check_graph_conditions",
    "check_divergence_and_flux",
    "verify_all",
    "perturb_phi_t",
]

_AXIOMS = ("a", "b", "graph", "divflux")

PRINTED_VIOLATIONS = 50  # per axiom group in a report


def _whole(name, value):
    """``value`` as an int; a bool, a string or a number with a fraction raises ValueError."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer())):
        raise ValueError("{} must be an integer, got {!r}".format(name, value))
    return int(value)


@dataclass(frozen=True)
class VerifyConfig:
    """Grid resolutions and tolerances for verification.

    ``pos_res`` and ``t_res`` give the one ``pos x t`` grid of the pass,
    whose ``t`` nodes axiom (b) pairs on each fibre.  ``pair_res``, kept
    as given for compatibility, may only be ``None`` or ``t_res``, which
    reports give under its name.  The divergence is checked on the
    ``pos_res`` fibres at the two ends of each region's stretch, whatever
    ``t_res``.  ``axioms`` selects which groups run.  ``threads`` is
    accepted and validated for compatibility and has no effect: the axiom
    (b) scan reads each fibre's extremes and sorts only the fibres that can
    fail, and a thread pool around it does not pay.
    """

    pos_res: int = 128
    t_res: int = 128
    pair_res: Optional[int] = None
    tol_a: float = 1e-9
    tol_b: float = 1e-9
    tol_div: float = 1e-5
    tol_flux: float = 1e-5
    tol_graph: float = 1e-9
    axioms: tuple = _AXIOMS
    threads: int = 1
    max_recorded: int = 10000

    def __post_init__(self):
        for name, least in (("pos_res", 16), ("t_res", 16), ("threads", 1), ("max_recorded", 0)):
            value = _whole(name, getattr(self, name))
            if value < least:
                raise ValueError("{} must be at least {}".format(name, least))
            object.__setattr__(self, name, value)
        if self.pair_res is not None:
            _whole("pair_res", self.pair_res)
        if self.pair_res not in (None, self.t_res):
            raise ValueError("pair_res must equal t_res, got pair_res = {!r} and t_res = {}"
                             .format(self.pair_res, self.t_res))
        for name in ("tol_a", "tol_b", "tol_div", "tol_flux", "tol_graph"):
            if not 0.0 < float(getattr(self, name)) < np.inf:  # false for NaN
                raise ValueError("{} must be positive and finite".format(name))
            object.__setattr__(self, name, float(getattr(self, name)))
        if isinstance(self.axioms, str):
            raise ValueError("axioms must be a sequence of axiom ids, not the string {!r}"
                             .format(self.axioms))
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
                for viol in self.violations[:PRINTED_VIOLATIONS]
            ],
            "meta": {k: (v.item() if isinstance(v, np.generic) else v)  # ints stay ints
                     for k, v in self.meta.items()},
        }


def _tally(axiom, margin, locations, tol, cap, residual=None, floor=0.0):
    """The verdict rule of every pointwise check: ``(count, worst, recorded)``.

    A sample violates unless its margin is finite and ``margin >= floor``,
    so NaN and both infinities violate.  ``worst`` is the least margin,
    NaN when any margin is not finite, and ``floor + tol`` (the margin of
    a zero residual) when there are no samples.  The first ``cap``
    violations in C order are recorded at
    ``locations`` (arrays that broadcast to the shape of ``margin``) with
    their ``residual`` (default: the margin), NaN where the margin is not
    finite.  Two reductions settle a tally with no violation: its least
    margin is at least ``floor`` and its largest below inf, and NaN
    fails both tests.
    """

    shape = np.shape(margin)
    margin = np.ravel(margin)
    if margin.size:
        least = np.min(margin)
        if least >= floor and np.max(margin) < np.inf:
            return 0, float(least), []
    residual = margin if residual is None else np.ravel(residual)
    finite = np.isfinite(margin)
    bad = np.flatnonzero(~(finite & (margin >= floor)))
    first = bad[:max(cap, 0)]
    # index the few recorded points, not a full-grid copy of each location
    locations = [np.broadcast_to(loc, shape)[np.unravel_index(first, shape)] for loc in locations]
    recorded = [Violation(axiom, tuple(loc[i].item() for loc in locations),
                          float(residual[k]) if finite[k] else float("nan"), tol)
                for i, k in enumerate(first)]
    if not finite.all():
        worst = float("nan")
    else:
        worst = float(np.min(margin)) if margin.size else floor + tol
    return bad.size, worst, recorded


def _result(axiom, tallies, config, meta):
    """An axiom group from the tallies of its parts, recorded in part order.

    A part tallied block by block gives one tally per block, in block order.
    """

    count = sum(tally[0] for tally in tallies)
    recorded = [v for tally in tallies for v in tally[2]]
    return AxiomResult(
        axiom=axiom,
        status="pass" if count == 0 else "fail",
        violations=recorded[: config.max_recorded],
        n_violations=count,
        worst_margin=float(np.min([tally[1] for tally in tallies])),
        meta=meta,
    )


# Points per block of the grid pass: a block holds as many whole fibres as
# fit, and at least one.
_BLOCK_POINTS = 2 ** 15


def _blocks(count, width):
    """``(start, stop)`` of consecutive blocks of whole fibres of ``width`` points each."""
    step = max(1, _BLOCK_POINTS // width)
    return [(i, min(i + step, count)) for i in range(0, count, step)]


def _room(config, tallies):
    """How many violations a part may still record after its ``tallies``."""
    return config.max_recorded - sum(len(tally[2]) for tally in tallies)


def check_condition_a(field, config=None):
    """Pointwise axiom (a): ``phi_t >= |phi_x|^2/4 - gamma^2 1_{(0,1]}(t)``, with
    ``gamma^2`` the field's ``gamma_sq_term``."""

    return _grid_pass(field, config or VerifyConfig(), ("a",))["a"]


def check_condition_b(field, beta, config=None):
    """Pairwise axiom (b): ``|Psi(pos, s) - Psi(pos, r)| <= beta (r^2 + s^2)``.

    The scan covers the full triangular grid of ``t`` pairs.  For fields
    directed along a fixed direction it also records the reduced margin
    ``beta s^2 - |Psi(pos, s)|`` (the ``r = 0`` slice), which is how the
    sharp cases are proved.  ``Psi`` is sampled block by block on whole
    fibres of the ``pos x t`` grid, in the pass of :func:`verify_all`, and
    each fibre is scanned on its own, so the blocks only split the work.

    With ``a = Psi - beta t^2`` and ``b = Psi + beta t^2`` the margin of
    the pair ``i < j`` is ``min(b_j - a_i, b_i - a_j)`` in floating point:
    in exact arithmetic it is ``beta (t_i^2 + t_j^2) - |Psi_j - Psi_i|``.
    No fibre forms its ``N x N`` pair matrix.  A rounded difference ``b_j -
    a_i`` rises with ``b_j`` and falls with ``a_i``, so a fibre's least
    margin pairs its smallest ``b`` with its largest ``a`` (or a runner-up
    when both sit at the same node), read in O(N) without a sort, and node
    ``i`` fails against exactly a prefix of the fibre's sorted ``b``.  Only
    a fibre whose least margin is below ``-tol`` can fail.  Those and the
    non-finite fibres are decided one by one, in position order: each
    finite one sorts its ``b`` once, places the end of every node's prefix
    by a binary search for ``a_i - tol``, checks the entries on both sides
    of that end by the margin itself and counts in full only the rows whose
    end rounding misplaced.  That counts its violations in O(N log N)
    however many there are, and its pairs are listed from the prefixes
    only while violations may still be recorded.  As ``a <= b`` at every
    node and ``tol > 0``, at most one orientation of a pair fails.  Counts,
    margins and recorded violations are those of the full pair scan bit
    for bit.  Each fibre records its violations worst first.  A fibre with
    a non-finite sample counts as one violation and makes the worst margin
    NaN.
    """

    return _grid_pass(field, config or VerifyConfig(), ("b",), beta=beta)["b"]


def _b_block(pos, tg, Psi, beta, tol, room, work):
    """Axiom (b) on the fibres at ``pos``, with ``Psi`` sampled on ``pos x tg``.

    Returns the block's tally ``(count, worst, recorded)``, at most
    ``room`` violations recorded, and its least reduced margin (inf when
    no fibre is finite), before any sort when no fibre can fail.  The
    fibres that can fail are decided in one loop, in position order.
    ``work`` holds three scratch arrays with as many columns as ``tg`` and
    at least as many rows as ``pos``.
    """

    tg2 = tg ** 2
    w = beta * tg2
    # no block-sized temporary: a fresh one costs more than the arithmetic,
    # so the reduced margins, a and b are formed in the rows of ``work``
    scale = np.maximum(np.max(Psi, axis=1), -np.min(Psi, axis=1)) + w[-1]
    # false for NaN and inf; a, b and their differences stay finite
    ok = scale <= np.finfo(float).max / 4.0
    psi = Psi if ok.all() else Psi[ok]
    reduced, a, b = work[:, :psi.shape[0]]
    np.subtract(psi, psi[:, :1], out=reduced)
    np.abs(reduced, out=reduced)
    np.subtract(beta * (tg2 + tg2[0]), reduced, out=reduced)
    reduced = float(np.min(reduced[:, 1:])) if psi.size else np.inf

    N = tg.size
    np.subtract(psi, w, out=a)
    np.add(psi, w, out=b)
    fibres = np.arange(psi.shape[0])
    low, top = np.argmin(b, axis=1), np.argmax(a, axis=1)
    b1, a1 = b[fibres, low], a[fibres, top]
    # the least b_j - a_i over i != j, the fibre's worst margin: where both
    # extremes sit at one node, one of them pairs with the other's
    # runner-up, read with that node set aside
    one = np.flatnonzero(low == top)
    b[one, low[one]], a[one, low[one]] = np.inf, -np.inf
    lowest = np.minimum(np.min(b, axis=1) - a1, b1 - np.max(a, axis=1))
    b[one, low[one]], a[one, low[one]] = b1[one], a1[one]

    can = ~ok
    can[np.flatnonzero(ok)[lowest < -tol]] = True
    count, violations = 0, []
    for p in np.flatnonzero(can):
        left = max(room - len(violations), 0)
        if not ok[p]:
            count += 1
            violations += [Violation("b", (float(pos[p]), float("nan"), float("nan")),
                                     float("nan"), tol)][:left]
            continue
        # node i fails against the first ends[i] entries of the sorted b:
        # the search for a_i - tol places that end up to rounding, so the
        # margin decides the entries on both sides of it (infinite past the
        # ends), and a row whose end it misplaced is counted in full
        f = np.count_nonzero(ok[:p])  # the row of psi: the finite fibres before p
        order = np.argsort(b[f])
        edge = np.concatenate(([-np.inf], b[f, order], [np.inf]))
        ends = np.searchsorted(edge[1:-1], a[f] - tol)
        wrong = np.flatnonzero(~((edge[ends] - a[f] < -tol) & (edge[ends + 1] - a[f] >= -tol)))
        ends[wrong] = np.count_nonzero(b[f] - a[f, wrong, None] < -tol, axis=1)
        count += int(ends.sum())
        if left == 0:
            continue
        # node i pairs with order[:ends[i]], listed in the order of the
        # triangular scan and recorded worst first
        i = np.repeat(np.arange(N), ends)
        j = order[np.arange(i.size) - np.repeat(np.cumsum(ends) - ends, ends)]
        r, c = np.minimum(i, j), np.maximum(i, j)
        scan = np.argsort(r * N + c)
        r, c, margin = r[scan], c[scan], (b[f, j] - a[f, i])[scan]
        for k in np.argsort(margin)[:left]:
            violations.append(Violation("b", (float(pos[p]), float(tg[r[k]]), float(tg[c[k]])),
                                        float(-margin[k]), tol))

    worst = float(np.min(lowest)) if ok.all() else float("nan")
    return (count, worst, violations), reduced


def check_graph_conditions(field, calibrated, config=None):
    """Graph matching conditions of the calibrated function.

    On the graph: ``phi_x(pos, u) = 2 grad u`` and ``phi_t(pos, u) =
    |grad u|^2 - gamma^2 1_{(0,1]}(u)``, with ``gamma^2`` the field's
    ``gamma_sq_term``.  Across each jump fiber:
    ``Psi(pos, hi) - Psi(pos, lo) = beta (lo^2 + hi^2) nu_sign``.
    Returns a pair of results, one for the pointwise graph conditions
    and one for the jump fibers.
    """

    config = config or VerifyConfig()
    beta = float(field.params["beta"])
    gamma_sq = float(field.gamma_sq_term)
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
    res_x = np.abs(psi - 2.0 * g)
    res_t = np.abs(phit - (g ** 2 - gamma_sq * (u > 0.0)))
    residual = np.maximum(res_x, res_t)
    tol = config.tol_graph
    a_prime = _result(
        "a_prime", [_tally("a_prime", tol - residual, (pos, u), tol, config.max_recorded,
                            residual)], config,
        {"max_phi_x_residual": float(np.max(res_x, initial=0.0)),
         "max_phi_t_residual": float(np.max(res_t, initial=0.0)),
         "samples": int(pos.size)})

    # one scalar residual per jump fibre, from its numbers as given and one call of Psi
    jumps = np.array(calibrated.jumps, dtype=float).reshape(-1, 4)
    ends = field.Psi(np.repeat(jumps[:, 0], 2), jumps[:, 1:3].ravel()).reshape(-1, 2)
    residual = np.array([abs(float(Psi_hi) - float(Psi_lo) - beta * (lo ** 2 + hi ** 2) * nu)
                         for (_, lo, hi, nu), (Psi_lo, Psi_hi) in zip(calibrated.jumps, ends)])
    b_prime = _result(
        "b_prime", [_tally("b_prime", tol - residual, jumps.T[:3], tol, config.max_recorded,
                            residual)], config,
        {"n_jumps": len(calibrated.jumps),
         "max_jump_residual": float(np.max(residual, initial=0.0))})
    return a_prime, b_prime


def check_divergence_and_flux(field, config=None):
    """Interior divergence, interface flux continuity and boundedness.

    The divergence of a field directed along ``e_r`` is
    ``d(psi)/dr + (n-1) psi / r + d(phi_t)/dt`` (the middle term drops on
    an interval).  In a region's coefficients in ``s = t - anchor`` it is
    ``d0 + c1 + (d1 + 2 c2) s``, with ``(n-1) p0 / r`` and ``(n-1) p1 / r``
    added to ``d0`` and ``d1`` on a radial field.  Affine in ``t``, its
    largest magnitude on a region's stretch lies at an end: it is checked
    at both ends of every stretch a region claims on each of the
    ``pos_res`` fibres, from the stretches and coefficients of the grid
    pass's table (``PiecewiseField._fibres``).  ``n_div_checked`` counts
    those ends and ``n_div_skipped`` the ends of the other stretches, two
    per fibre and region in all.  Boundedness asks for finite ``psi`` and
    ``phi_t`` at every grid point.  Interface flux continuity compares the
    two side limits of ``phi . normal`` along each declared interface.
    """

    return _grid_pass(field, config or VerifyConfig(), ("divflux",))["divflux"]


def _divergence(field, config, fibres):
    """The divergence tally at both ends of every region's stretch of the
    fibres of the pass's table ``fibres``, and its statistics ``(max |div|,
    ends checked, ends skipped)``.  A stretch is checked where the table has
    its region claim a point of ``[0, t_max]``, from the coefficients it
    holds there; an end of any other stretch scores divergence 0: margin
    ``tol_div``, which no checked end exceeds."""

    pos, stretches = fibres[0], fibres[4]
    ends = np.stack([np.hstack((lo, hi)) for lo, hi, _, _ in stretches], axis=1)
    div, checked = np.zeros_like(ends), 0
    for k, (region, (_, _, rows, coeffs)) in enumerate(zip(field.regions, stretches)):
        if rows.size:
            p, (p0, p1, _, c1, c2, d0, d1) = pos[rows], coeffs
            if field.geometry == "radial":
                d0, d1 = d0 + (field.n - 1) * p0 / p, d1 + (field.n - 1) * p1 / p
            div[rows, k] = np.abs(_poly((d0 + c1, d1 + 2.0 * c2), ends[rows, k] - region.anchor))
            checked += 2 * rows.size
    tally = _tally("div", config.tol_div - div, (pos[:, :, None], ends), config.tol_div,
                   config.max_recorded, div)
    return tally, (float(np.max(div)), checked, div.size - checked)


def _flux(field, config):
    """Flux continuity along each declared interface: its tally and its largest residual.

    A graph interface reads its curve and slope from the ``top`` and
    ``top_prime`` of the region it names.  The points on both sides of
    every interface are sampled in one pass.
    """

    coords, sides, slopes = [np.zeros(0)], [], []
    shift = 1e-9 * max(1.0, field.t_max)
    regions = {region.name: region for region in field.regions}
    for interface in field.interfaces:
        if interface.kind == "graph":
            lo, hi = interface.pos_range
            margin = 1e-4 * (hi - lo)
            at = np.linspace(lo + margin, hi - margin, config.pos_res)
            region = regions[interface.region]
            curve = np.asarray(region.top(at), dtype=float)
            slopes.append(np.asarray(region.top_prime(at), dtype=float))
            sides += [(at, curve - shift), (at, curve + shift)]
        else:
            r0 = interface.radius
            tmargin = 1e-6 * field.t_max
            at = np.linspace(tmargin, field.t_max - tmargin, config.t_res)
            dr = 1e-9 * max(1.0, r0)
            slopes.append(None)
            sides += [(np.full_like(at, r0 - dr), at), (np.full_like(at, r0 + dr), at)]
        coords.append(at)
    flux = [np.zeros(0)]
    if sides:
        psi, phit = field._sample(*(np.concatenate(points) for points in zip(*sides)),
                                  "psi", "phi_t")
        split = np.cumsum([side[0].size for side in sides])[:-1]
        psi, phit = np.split(psi, split), np.split(phit, split)
        for k, slope in enumerate(slopes):
            lo, hi = 2 * k, 2 * k + 1
            if slope is None:
                flux.append(np.abs(psi[hi] - psi[lo]))
            else:
                flux.append(np.abs((phit[hi] - phit[lo]) - slope * (psi[hi] - psi[lo])))
    flux = np.concatenate(flux)
    labels = np.repeat(np.array([interface.name for interface in field.interfaces], dtype=str),
                       [at.size for at in coords[1:]])
    tally = _tally("flux", config.tol_flux - flux, (labels, np.concatenate(coords)),
                   config.tol_flux, config.max_recorded, flux)
    return tally, float(np.max(flux, initial=0.0))


def _grid_pass(field, config, groups, beta=0.0):
    """The grid axiom groups among ``groups`` (``a``, ``b``, ``divflux``), by results id.

    One pass over blocks of whole fibres of the ``pos x t`` grid, at most
    ``_BLOCK_POINTS`` points a block: each block is sampled once, with
    ``Psi`` when axiom (b) runs, and feeds the tally of every selected
    group.  The tallies of each part are merged in block order, so counts,
    worst margins and recorded violations are those of a single whole-grid
    tally, ``max_recorded`` included.  The pass allocates the sampled
    arrays and the margins' scratch once, for its largest block, and builds
    the table of its fibres once (``PiecewiseField._fibres``: each top and
    each region's coefficients run once, and no region index is formed);
    each block samples its slice of the table into those buffers.  The
    divergence reads the table's stretches and its coefficients at their ends.
    """

    if "b" in groups and beta < 0.0:
        raise ValueError("beta must be nonnegative")
    pos = np.linspace(field.pos_range[0], field.pos_range[1], config.pos_res)
    t = np.linspace(0.0, field.t_max, config.t_res)
    T = t[None, :]
    names = ["psi", "phi_t"] if {"a", "divflux"} & set(groups) else []
    if "b" in groups:
        names.append("Psi")
    a, b, reduced, bounded, stats = [], [], [], [], []
    blocks = _blocks(pos.size, t.size) if names else []
    if blocks:
        # one set of block buffers, a shorter last block their leading rows
        grid = (blocks[0][1], t.size)
        out = tuple(np.empty(grid) for _ in names)
        work = np.empty((3,) + grid)
        fibres = field._fibres(pos[:, None], T, bool({"b", "divflux"} & set(groups)))
    for i, j in blocks:
        P = pos[i:j, None]
        got = dict(zip(names, field._sample(P, T, *names, out=out, fibres=_block(fibres, i, j))))
        if "a" in groups:
            # phi_t - 0.25 psi^2 + gamma^2 1_{t > 0}, in that order
            residual = np.square(got["psi"], out=work[0, :j - i])
            residual *= 0.25
            np.subtract(got["phi_t"], residual, out=residual)
            residual += field.gamma_sq_term * (T > 0.0)
            a.append(_tally("a", residual, (P, T), config.tol_a, _room(config, a),
                            floor=-config.tol_a))
        if "b" in groups:
            tally, least = _b_block(pos[i:j], t, got["Psi"], beta, config.tol_b, _room(config, b),
                                    work)
            b.append(tally)
            reduced.append(least)
        if "divflux" in groups:
            # boundedness has no graded margin: a finite sample scores the
            # full tolerance, which no divergence margin exceeds
            extremes = [(np.max(got[name]), np.min(got[name])) for name in ("psi", "phi_t")]
            if np.isfinite(extremes).all():  # the tally without a violation, as _tally settles it
                stats.append([max(most, -least) for most, least in extremes])
                bounded.append((0, config.tol_div, []))
                continue
            margin, valid = work[0, :j - i], np.isfinite(got["psi"]) & np.isfinite(got["phi_t"])
            stats.append([np.max(np.abs(got[name], out=margin), where=valid, initial=-np.inf)
                          for name in ("psi", "phi_t")])
            margin.fill(np.nan)
            np.copyto(margin, config.tol_div, where=valid)
            bounded.append(_tally("bounded", margin, (P, T), config.tol_div,
                                  _room(config, bounded)))

    results = {}
    if "a" in groups:
        results["a"] = _result("a", a, config, {
            "pos_res": config.pos_res, "t_res": config.t_res,
            "gamma_sq_term": float(field.gamma_sq_term)})
    if "b" in groups:
        least = min(reduced)
        results["b"] = _result("b", b, config, {
            "pos_res": config.pos_res, "pair_res": config.t_res, "beta": float(beta),
            "reduced_margin": float(least) if np.isfinite(least) else None})
    if "divflux" in groups:
        div_tally, (div_worst, checked, skipped) = _divergence(field, config, fibres)
        flux_tally, flux_worst = _flux(field, config)
        # a maximum is -inf when no block has a finite sample
        max_phi_x, max_phi_t = (float(m) if m >= 0.0 else float("nan")
                                for m in np.max(stats, axis=0))
        results["divflux"] = _result("divflux", bounded + [div_tally, flux_tally], config, {
            "div_worst": div_worst,
            "flux_worst": flux_worst,
            "n_div_checked": checked,
            "n_div_skipped": skipped,
            "max_abs_phi_x": max_phi_x,
            "max_abs_phi_t": max_phi_t,
        })
    return results


@dataclass
class VerificationReport:
    """Aggregated verification outcome.

    ``results`` maps axiom group ids (``a``, ``b``, ``a_prime``,
    ``b_prime``, ``divflux``) to :class:`AxiomResult`.  A report built
    from a failed construction carries the reason in
    ``construction_error``, where the hypothesis failed and its numbers
    in ``construction_location`` and ``construction_details`` (the
    ``location`` and ``details`` of a :class:`HypothesisViolation`), and
    no results.
    """

    field_kind: str
    results: dict
    grid_meta: dict
    construction_error: Optional[str] = None
    construction_location: Optional[float] = None
    construction_details: Optional[dict] = None

    @classmethod
    def infeasible(cls, reason, kind="unknown", location=None, details=None):
        return cls(field_kind=kind, results={}, grid_meta={}, construction_error=str(reason),
                   construction_location=location, construction_details=dict(details or {}))

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
        if self.construction_error is not None:
            payload.update(construction_location=self.construction_location,
                           construction_details=self.construction_details)
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

    Axioms (a), (b) and the divergence share one pass over blocks of whole
    fibres, each block sampled once; the graph and flux checks sample
    their own points.  ``calibrated`` defaults to ``field.calibrated``, the
    function the field's builder calibrates; pass one explicitly to check
    a different minimizer against the same field.  Graph checks are
    skipped when no calibrated function is available.
    """

    config = config or VerifyConfig()
    beta = float(field.params["beta"]) if "b" in config.axioms else 0.0
    grid = _grid_pass(field, config, config.axioms, beta)
    results = {key: grid[key] for key in ("a", "b") if key in grid}
    if "graph" in config.axioms:
        calibrated = calibrated or field.calibrated
        if calibrated is None:
            for key in ("a_prime", "b_prime"):
                results[key] = AxiomResult(key, "skipped", [], 0, None,
                                           {"reason": "no calibrated function"})
        else:
            results["a_prime"], results["b_prime"] = check_graph_conditions(
                field, calibrated, config)
    if "divflux" in grid:
        results["divflux"] = grid["divflux"]
    grid_meta = {
        "pos_range": [float(field.pos_range[0]), float(field.pos_range[1])],
        "t_max": float(field.t_max),
        "pos_res": config.pos_res,
        "t_res": config.t_res,
        "pair_res": config.t_res,
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
