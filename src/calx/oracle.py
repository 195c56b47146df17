"""Independent cross-checks for the closed-form results.

Nothing in this module reuses the closed-form expressions it is meant
to test.  The one-dimensional search minimizes over piecewise-affine
competitors with up to two jumps on explicit location and value grids;
its one-jump tables compare only the traces around the minimum of each
piece's convex quadratic cost, and equal the full scan bit for bit.
The Robin shooting oracle integrates the radial ODE with a plain RK4
scheme, whose steps it composes as running products and sums because
the ODE is linear, and solves the Robin condition, which is linear in the
unknown slope, for the outer trace.
The radial sweep tabulates the two-parameter family of profiles
(support radius, outer trace), as one table of radii by traces, so the
optimal trace and the indicator transition can be read off a table
instead of trusted from a formula.
"""

from __future__ import annotations

import csv
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from calx.energy import (Competitor1D, RadialProfile, energy_1d, energy_radial_general,
                         energy_radial_traces)

__all__ = [
    "JumpSearchSpace",
    "oracle_1d_best",
    "oracle_robin_shooting",
    "SweepRow",
    "SweepTable",
    "RadialSweepResult",
    "oracle_radial_sweep",
]


@dataclass(frozen=True)
class JumpSearchSpace:
    """Discrete grids the one-dimensional search runs over.

    ``locations`` are candidate jump positions in [0, 1] (the endpoints
    mean a jump against the boundary datum).  ``values`` are candidate
    one-sided traces, finite.  The number of jumps tried is capped by
    :func:`oracle_1d_best`.
    """

    locations: tuple
    values: tuple

    def __post_init__(self):
        locs = tuple(sorted(set(map(float, self.locations))))
        vals = tuple(sorted(set(map(float, self.values))))
        if not locs or not vals:
            raise ValueError("locations and values must be nonempty")
        if not np.isfinite(locs + vals).all():
            raise ValueError("locations and values must be finite")
        if locs[0] < 0.0 or locs[-1] > 1.0:
            raise ValueError("jump locations must lie in [0, 1]")
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, resolution=1000):
        """resolution + 1 equispaced nodes on [0, 1] for both grids."""
        grid = np.linspace(0.0, 1.0, resolution + 1).tolist()
        return cls(locations=grid, values=grid)


def _one_jump_tables(locs, vals, m, M, beta):
    """Left and right part costs of a single jump at each location.

    ``A[i]`` is the cheapest energy of the piece to the left of a jump
    at ``locs[i]`` plus the left-trace cost (the trace is the datum m
    when the jump sits on the boundary).  ``B[i]`` is the mirror image
    on the right with datum M.  Argmin trace indices use -1 when the
    trace is pinned to the datum, and are otherwise the first argmin of
    a scan over every trace, bit for bit.

    A piece of length L > 0 costs (v - datum)^2 / L + beta v^2, strictly convex
    in v and least at datum / (1 + beta L), with insertion index k in the sorted
    traces: traces k - 2 ... k + 1 are compared, and a row is scanned in full
    where k - 3 or k + 2 is within a relative 1e-9 of their minimum (a near tie).
    """

    def cost(v, L, datum):
        return (v - datum) ** 2 / L + beta * v ** 2

    datum = np.repeat([float(m), float(M)], locs.size)  # float tables for integer data too
    lengths = np.concatenate((locs, 1.0 - locs))
    rows = np.flatnonzero(lengths > 0.0)
    L, d = lengths[rows], datum[rows]
    k = np.searchsorted(vals, d / (1.0 + beta * L))
    padded = np.concatenate(([np.inf] * 3, vals, [np.inf] * 3))
    near_cost = cost(padded[k + np.arange(6)[:, None]], L, d)  # traces k - 3 ... k + 2
    window, lowest = near_cost[1:5], near_cost[1:5].min(axis=0)
    best = k - 2 + np.logical_and.accumulate(window > lowest, axis=0).sum(axis=0)  # first argmin
    near_tie = np.minimum(near_cost[0], near_cost[5]) <= lowest * (1.0 + 1e-9)
    best[near_tie] = cost(vals, L[near_tie, None], d[near_tie, None]).argmin(axis=1)
    cost_min, arg = beta * datum * datum, np.full(lengths.size, -1)
    cost_min[rows], arg[rows] = cost(vals[best], L, d), best
    return cost_min[:locs.size], arg[:locs.size], cost_min[locs.size:], arg[locs.size:]


def _prefix_minima(values):
    """The minimum of each prefix of ``values`` and the index of its first occurrence,
    which is the last place the running minimum fell."""
    prefix = np.minimum.accumulate(values)
    fell = np.r_[True, prefix[1:] < prefix[:-1]]
    return prefix, np.maximum.accumulate(np.where(fell, np.arange(values.size), 0))


def _piece_through(x0, y0, x1, y1):
    slope = (y1 - y0) / (x1 - x0)
    return (slope, y0 - slope * x0)


def _build_jump_competitor(m, M, stops):
    """Assemble a competitor from (location, right-of-jump trace) stops.

    Each stop ``(x, ell, q)`` is a jump at ``x`` from left trace ``ell``
    to right trace ``q``; ``ell`` / ``q`` equal to None means the trace
    is the boundary datum (jump on the boundary, no piece on that side).
    """

    breakpoints = []
    pieces = []
    cur_x, cur_y = 0.0, m
    for x, ell, q in stops:
        if x > 0.0:
            if x < 1.0 or ell is not None:
                pieces.append(_piece_through(cur_x, cur_y, x, ell))
            if x < 1.0:
                breakpoints.append(x)
        cur_x, cur_y = x, q
    if cur_x < 1.0 or not stops:
        pieces.append(_piece_through(cur_x, cur_y, 1.0, M))
    return Competitor1D(a=0.0, b=1.0, breakpoints=tuple(breakpoints),
                        pieces=tuple(pieces), left_data=m, right_data=M)


def _coupling_table(lengths, vals, beta):
    """Cheapest middle-piece cost per gap length when 0 is not a value.

    For a gap of length L between two jumps the middle piece runs from
    trace q to trace l and costs beta q^2 + (l - q)^2 / L + beta l^2.
    Returns per-length minima and the minimizing (q, l) index pairs.
    """

    nv = vals.size
    if lengths.size * nv * nv > 2e8:
        raise ValueError(
            "two-jump search space too large without 0 among the values; "
            "add 0 to the value grid or reduce the resolution")
    q = vals[:, None]
    l = vals[None, :]
    base = beta * (q ** 2 + l ** 2)
    cmin = np.empty(lengths.size)
    carg = np.empty((lengths.size, 2), dtype=int)
    for k, L in enumerate(lengths):
        cost = base + (l - q) ** 2 / L
        flat = int(cost.argmin())
        carg[k] = divmod(flat, nv)
        cmin[k] = cost.flat[flat]
    return cmin, carg


def oracle_1d_best(m, M, beta, max_jumps=2, resolution=1000, space=None):
    """Grid search over piecewise-affine competitors with jumps.

    Minimizes the one-dimensional energy with boundary data ``u(0) = m``
    and ``u(1) = M`` over all competitors with at most ``max_jumps``
    jumps whose locations and traces live on the search grids, ``space``
    or else ``JumpSearchSpace.uniform(resolution)``.  ``max_jumps``, the
    one cap, is the int 0, 1 or 2.  Ties prefer fewer jumps, then smaller
    locations.  Returns the winning competitor and its energy as
    recomputed by :func:`energy_1d`.
    """

    if not (0.0 <= m <= M <= 1.0):
        raise ValueError("need 0 <= m <= M <= 1, got m={}, M={}".format(m, M))
    if not 0.0 < beta < np.inf:
        raise ValueError("beta must be positive and finite, got {!r}".format(beta))
    if isinstance(max_jumps, bool) or not (isinstance(max_jumps, (int, np.integer))
                                           and max_jumps in (0, 1, 2)):
        raise ValueError("max_jumps must be the int 0, 1 or 2, got {!r}".format(max_jumps))
    if space is None:
        space = JumpSearchSpace.uniform(resolution=resolution)

    best = Competitor1D.affine(0.0, 1.0, m, M, left_data=m, right_data=M)
    best_energy = energy_1d(best, beta).total
    if max_jumps == 0:
        return best, best_energy

    locs = np.asarray(space.locations)
    vals = np.asarray(space.values)
    A, A_arg, B, B_arg = _one_jump_tables(locs, vals, m, M, beta)

    def trace(arg, datum):  # -1 in the one-jump tables stands for the boundary datum
        return datum if arg < 0 else float(vals[arg])

    E1 = A + B
    i1 = int(np.argmin(E1))
    if E1[i1] < best_energy:
        cand = _build_jump_competitor(m, M, [(locs[i1], trace(A_arg[i1], m), trace(B_arg[i1], M))])
        cand_energy = energy_1d(cand, beta).total
        if cand_energy < best_energy:
            best, best_energy = cand, cand_energy

    if max_jumps >= 2 and locs.size >= 2:
        if 0.0 in space.values:
            # The middle piece can sit at zero, so the two jumps decouple:
            # cheapest pair is a prefix minimum of A against B.
            prefix, prefix_arg = _prefix_minima(A)
            totals = prefix[:-1] + B[1:]
            j2 = int(np.argmin(totals)) + 1
            i2 = int(prefix_arg[j2 - 1])
            mid_q, mid_l = 0.0, 0.0
            E2 = float(totals[j2 - 1])
        else:
            Lmat = locs[None, :] - locs[:, None]
            valid = Lmat > 0.0
            uniq, inverse = np.unique(Lmat[valid], return_inverse=True)
            cmin, carg = _coupling_table(uniq, vals, beta)
            totals = np.full(Lmat.shape, np.inf)
            totals[valid] = (A[:, None] + B[None, :])[valid] + cmin[inverse]
            flat = int(totals.argmin())
            i2, j2 = divmod(flat, locs.size)
            k = int(np.searchsorted(uniq, Lmat[i2, j2]))
            mid_q = float(vals[carg[k, 0]])
            mid_l = float(vals[carg[k, 1]])
            E2 = float(totals[i2, j2])
        if E2 < best_energy:
            cand = _build_jump_competitor(m, M, [(float(locs[i2]), trace(A_arg[i2], m), mid_q),
                                                 (float(locs[j2]), mid_l, trace(B_arg[j2], M))])
            cand_energy = energy_1d(cand, beta).total
            if cand_energy < best_energy:
                best, best_energy = cand, cand_energy

    return best, best_energy


# (n, step) -> (v, w): the RK4 trajectory from r = 1 at nodes 1 + j step, one
# array("d") per component, extended in place by _basis_at
_BASIS_CACHE = {}

_FILL_BLOCK = 1 << 16  # nodes per block of the cache fill, which bounds its temporaries
_MAX_NODES = 1 << 24  # nodes per (n, step) trajectory: 256 MiB for its two arrays


def _rk4_step(k, r, h, v, w):
    """One RK4 step of size h from radius r for v' = w, w' = -k w / r."""

    dv1, dw1 = w, -k * w / r
    dv2 = w + 0.5 * h * dw1
    dw2 = -k * dv2 / (r + 0.5 * h)
    dv3 = w + 0.5 * h * dw2
    dw3 = -k * dv3 / (r + 0.5 * h)
    dv4 = w + h * dw3
    dw4 = -k * dv4 / (r + h)
    return (v + h * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4) / 6.0,
            w + h * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4) / 6.0)


def _basis_at(n, R, step):
    """(v(R), v'(R)) for the solution with v(1) = 0, v'(1) = 1.

    The ODE is linear, so the RK4 step from node r_j is the map
    w_{j+1} = b_j w_j, v_{j+1} = v_j + a_j w_j, with (a_j, b_j) the step
    from (0, 1).  A block of nodes is filled by a running product of the
    b_j and a running sum of the a_j w_j, both strictly in node order, so
    the cache does not depend on how its fills were split.  A radius whose
    trajectory would need more than ``_MAX_NODES`` nodes raises ValueError
    before anything is stored.
    """

    if not (R - 1.0) / step < _MAX_NODES:
        raise ValueError("R = {!r} needs more than {} RK4 nodes at step {!r}".format(
            R, _MAX_NODES, step))
    key = (int(n), float(step))
    vs, ws = _BASIS_CACHE.setdefault(key, (array("d", [0.0]), array("d", [1.0])))
    full = int((R - 1.0) / step)
    while len(vs) <= full:
        j = np.arange(len(vs) - 1, min(full, len(vs) - 1 + _FILL_BLOCK))
        a, b = _rk4_step(n - 1, 1.0 + j * step, step, 0.0, 1.0)
        w = np.multiply.accumulate(np.concatenate(([ws[-1]], b)))
        v = np.add.accumulate(np.concatenate(([vs[-1]], a * w[:-1])))
        vs.frombytes(v[1:].tobytes())
        ws.frombytes(w[1:].tobytes())
    v, w = vs[full], ws[full]
    rest = R - 1.0 - full * step
    if rest > 1e-15:
        v, w = _rk4_step(n - 1, 1.0 + full * step, rest, v, w)
    return v, w


def oracle_robin_shooting(n, beta, R, step=1e-4):
    """Outer trace of the Robin-optimal radial layer, by shooting.

    Integrates the radial Laplace equation u'' + (n-1) u'/r = 0 with
    u(1) = 1 as u = 1 + a v, where v solves the same ODE with v(1) = 0,
    v'(1) = 1, by RK4 steps applied as running products and sums (see
    ``_basis_at``; cached per (n, step)).  The Robin residual
    a v'(R) + beta (1 + a v(R)) is linear in the slope a, so the returned
    outer trace is u(R) = v'(R) / (v'(R) + beta v(R)), a float; v and v' are
    positive on (1, R], so the denominator is too.
    """

    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("dimension must be a positive integer")
    if not (0.0 < beta < np.inf and R > 1.0):
        raise ValueError("need beta > 0 and R > 1, beta finite")
    vR, wR = _basis_at(int(n), float(R), float(step))
    return wR / (wR + float(beta) * vR)


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One tabulated radial profile with its energy split."""

    R: float
    delta: float
    dirichlet: float
    jump: float
    volume: float
    total: float


class SweepTable(Sequence):
    """The sweep's rows, held by column and formed when read: row 0 is ``unit``
    (R = 1), row 1 + k len(deltas) + j is radius ``radii[k]`` at trace ``deltas[j]``,
    with ``volumes[k]`` and entry (k, j) of the read-only ``dirichlet``, ``jump`` and
    ``total`` arrays.  A slice is a tuple of its rows; iteration forms one radius at a time."""

    __slots__ = ("unit", "radii", "deltas", "volumes", "dirichlet", "jump", "total")

    def __init__(self, unit, radii, deltas, volumes, *columns):
        self.unit, self.radii, self.deltas, self.volumes = unit, radii, deltas, volumes
        self.dirichlet, self.jump, self.total = columns
        for column in columns:
            column.flags.writeable = False

    def __len__(self):
        return 1 + self.total.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        k, j = divmod(range(-1, self.total.size)[index], len(self.deltas))  # unit row: k = -1
        return self.unit if k < 0 else SweepRow(
            self.radii[k], self.deltas[j], self.dirichlet.item(k, j), self.jump.item(k, j),
            self.volumes[k], self.total.item(k, j))

    def __reduce__(self):  # through __init__, so a copy's columns are read-only too
        return SweepTable, tuple(map(getattr, repeat(self), self.__slots__))

    def __iter__(self):
        return chain((self.unit,), chain.from_iterable(map(self._block, range(len(self.radii)))))

    def _block(self, k):
        # bare rows, each field stored by its slot's descriptor as the frozen __init__ does
        block = list(map(object.__new__, repeat(SweepRow, len(self.deltas))))
        columns = (repeat(self.radii[k]), self.deltas, self.dirichlet[k].tolist(),
                   self.jump[k].tolist(), repeat(self.volumes[k]), self.total[k].tolist())
        for name, column in zip(SweepRow.__slots__, columns):
            deque(map(getattr(SweepRow, name).__set__, block, column), maxlen=0)
        return block


@dataclass(frozen=True)
class RadialSweepResult:
    """Energy table over (R, delta) with the scan-order minimizer."""

    n: int
    beta: float
    gamma: float
    rows: Sequence
    best_index: int

    @property
    def best(self):
        return self.rows[self.best_index]

    @property
    def is_indicator_best(self):
        return self.best_index == 0

    def write_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SweepRow.__slots__)
            for row in self.rows:
                writer.writerow(["%.17g" % getattr(row, name) for name in SweepRow.__slots__])


def oracle_radial_sweep(n, beta, gamma_, R_grid, delta_grid, threads=None):
    """Tabulate radial profile energies over a (R, delta) product grid.

    The degenerate radius R = 1 collapses every trace to the indicator
    of the unit ball, so the table always starts with that single row
    and any user-supplied R = 1 entries are folded into it.  Remaining
    rows are sorted by R then delta, computed as one (R, delta) table by
    :func:`calx.energy.energy_radial_traces`, which forms each trace's
    factors once and each radius's factors as Python floats, and checks
    the table once; the best row is the first minimum in scan order.
    ``threads`` is accepted and has no effect.  The rows are a
    :class:`SweepTable`.
    """

    Rs = sorted(set(float(R) for R in R_grid))
    deltas = sorted(set(float(d) for d in delta_grid))
    if not Rs or not deltas:
        raise ValueError("R_grid and delta_grid must be nonempty")
    if not np.isfinite(Rs + deltas).all():
        raise ValueError("R_grid and delta_grid must be finite")
    if Rs[0] < 1.0:
        raise ValueError("R grid must lie in [1, inf)")
    if deltas[0] <= 0.0 or deltas[-1] > 1.0:
        raise ValueError("delta grid must lie in (0, 1]")

    unit = energy_radial_general(RadialProfile(n=n, beta=beta, gamma=gamma_, R=1.0, delta=1.0))
    radii = tuple(R for R in Rs if R > 1.0)
    table = energy_radial_traces(n, beta, gamma_, np.array(radii), deltas)
    with np.errstate(over="ignore"):  # past the float range a total is inf, as a float sum
        total = table.dirichlet + table.jump
        total += table.volume  # EnergyBreakdown.total in place: one new table, not two
    rows = SweepTable(SweepRow(1.0, 1.0, unit.dirichlet, unit.jump, unit.volume, unit.total),
                      radii, tuple(deltas), tuple(table.volume.ravel().tolist()),
                      table.dirichlet, table.jump, total)
    # the first minimum in scan order, which starts at the R = 1 row
    i = int(total.argmin()) if total.size else 0
    best = 1 + i if total.size and total.flat[i] < unit.total else 0
    return RadialSweepResult(n=n, beta=beta, gamma=gamma_, rows=rows, best_index=best)
