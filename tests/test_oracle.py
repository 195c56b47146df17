"""Tests for the brute-force cross-check oracles."""

import copy
import dataclasses
import itertools
import math
import pickle
import tempfile
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calx import oracle
from calx.energy import (Competitor1D, RadialProfile, energy_1d, energy_radial_general,
                         energy_radial_optimal)
from calx.oracle import (
    JumpSearchSpace,
    SweepRow,
    SweepTable,
    oracle_1d_best,
    oracle_radial_sweep,
    oracle_robin_shooting,
)
from calx.potentials import delta_robin


def test_search_space_validation():
    space = JumpSearchSpace.uniform(resolution=10)
    assert space.locations[0] == 0.0 and space.locations[-1] == 1.0
    assert len(space.locations) == 11
    assert space.max_jumps == 2
    with pytest.raises(ValueError):
        JumpSearchSpace(locations=(-0.5, 1.0), values=(0.0, 1.0))
    with pytest.raises(ValueError):
        JumpSearchSpace(locations=(), values=(0.0, 1.0))
    with pytest.raises(ValueError):
        JumpSearchSpace(locations=(0.0, 1.0), values=(0.0, 1.0), max_jumps=3)
    for locations, values in [((0.5, math.nan, 1.0), (0.0, 0.5)), ((0.0, 1.0), (0.0, math.inf)),
                              ((0.0, 1.0), (-math.inf, 0.5)), ((0.0, 1.0), (math.nan,))]:
        with pytest.raises(ValueError, match="must be finite"):
            JumpSearchSpace(locations=locations, values=values)
    messy = JumpSearchSpace(locations=(1.0, 0.5, 0.5, 0.0),
                            values=(0.3, 0.3, 0.1))
    assert messy.locations == (0.0, 0.5, 1.0)
    assert messy.values == (0.1, 0.3)


def test_oracle_expensive_boundary_jump_case():
    best, energy = oracle_1d_best(0.0, 1.0, 1.0, resolution=1000)
    assert energy == 0.5
    assert energy_1d(best, 1.0).total == pytest.approx(0.5, abs=1e-15)
    # the winner jumps from the datum 0 to 1/2 at the left endpoint and
    # stays affine afterwards
    assert best.left_data == 0.0
    assert best.breakpoints == ()
    assert best.pieces == ((0.5, 0.5),)
    # strictly better than the best affine interpolant, which pays 1
    affine = Competitor1D.affine(0.0, 1.0, 0.0, 1.0,
                                 left_data=0.0, right_data=1.0)
    assert energy_1d(affine, 1.0).total == pytest.approx(1.0)


def test_oracle_prefers_affine_when_jumps_cost_too_much():
    best, energy = oracle_1d_best(0.8, 1.0, 3.0, resolution=400)
    assert energy == pytest.approx(0.2 ** 2, abs=1e-15)
    assert best.breakpoints == ()
    assert best.left_data == 0.8 and best.right_data == 1.0
    assert best.trace_at_a() == pytest.approx(0.8)


def test_oracle_reports_energy_of_returned_competitor():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = float(rng.uniform(0.0, 0.9))
        M = float(rng.uniform(m, 1.0))
        beta = float(rng.uniform(0.2, 3.0))
        best, energy = oracle_1d_best(m, M, beta, resolution=200)
        assert energy == pytest.approx(energy_1d(best, beta).total, abs=1e-13)
        affine = Competitor1D.affine(0.0, 1.0, m, M, left_data=m, right_data=M)
        assert energy <= energy_1d(affine, beta).total + 1e-13


def brute_force_best(m, M, beta, space):
    """Exhaustive search over zero-, one- and two-jump profiles.

    Pure nested loops over the candidate grids, deliberately naive so it
    shares nothing with the vectorized implementation.  A jump at x has
    independent one-sided traces drawn from the value grid (or pinned to
    the boundary datum when x sits on an endpoint), and the profile is
    affine between consecutive jump points.
    """

    locs = space.locations
    vals = space.values

    def dirichlet(v0, v1, length):
        if length > 0.0:
            return (v1 - v0) ** 2 / length
        return 0.0

    best = (M - m) ** 2
    for x0 in locs:
        left = (m,) if x0 == 0.0 else vals
        right = (M,) if x0 == 1.0 else vals
        for q in left:
            for l in right:
                e = (dirichlet(m, q, x0) + beta * (q ** 2 + l ** 2)
                     + dirichlet(l, M, 1.0 - x0))
                best = min(best, e)
    for i0, x0 in enumerate(locs):
        for x1 in locs[i0 + 1:]:
            left = (m,) if x0 == 0.0 else vals
            right = (M,) if x1 == 1.0 else vals
            for q0 in left:
                for l0 in vals:
                    for q1 in vals:
                        for l1 in right:
                            e = (dirichlet(m, q0, x0)
                                 + beta * (q0 ** 2 + l0 ** 2)
                                 + dirichlet(l0, q1, x1 - x0)
                                 + beta * (q1 ** 2 + l1 ** 2)
                                 + dirichlet(l1, M, 1.0 - x1))
                            best = min(best, e)
    return best


def test_oracle_matches_naive_exhaustive_search():
    # the naive scan covers exactly the candidate family the tables
    # enumerate, so the minima must agree to rounding
    space = JumpSearchSpace.uniform(resolution=8)
    for m, M, beta in [(0.0, 1.0, 1.0), (0.125, 0.875, 0.5),
                       (0.25, 1.0, 2.0)]:
        _, energy = oracle_1d_best(m, M, beta, space=space)
        naive = brute_force_best(m, M, beta, space)
        assert energy == pytest.approx(naive, abs=1e-12)


def test_oracle_handles_spaces_without_zero_value():
    space = JumpSearchSpace(
        locations=tuple(np.linspace(0.0, 1.0, 9)),
        values=tuple(np.linspace(0.05, 1.0, 8)),
    )
    best, energy = oracle_1d_best(0.0, 1.0, 0.05, space=space)
    assert energy == pytest.approx(energy_1d(best, 0.05).total, abs=1e-13)
    naive = brute_force_best(0.0, 1.0, 0.05, space)
    assert energy == pytest.approx(naive, abs=1e-12)


def full_scan_tables(locs, vals, m, M, beta):
    """The one-jump tables from every trace of every length, as the reference."""
    want = []
    for rise, lengths, datum in [((vals - m) ** 2, locs, m), ((M - vals) ** 2, 1.0 - locs, M)]:
        inside = lengths > 0.0
        cost = rise / lengths[inside, None] + beta * vals ** 2
        table, arg = np.full(locs.size, float(beta * datum * datum)), np.full(locs.size, -1)
        table[inside], arg[inside] = cost.min(axis=1), cost.argmin(axis=1)
        want += [table, arg]
    return want


def assert_tables_match_the_full_scan(locs, vals, m, M, beta):
    with np.errstate(over="ignore"):  # a tiny length overflows a cost to inf in both
        got = oracle._one_jump_tables(locs, vals, m, M, beta)
        want = full_scan_tables(locs, vals, m, M, beta)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("locs, vals", [
    (np.linspace(0.0, 1.0, 301), np.linspace(0.0, 1.0, 301)),
    (np.linspace(0.0, 1.0, 778), np.linspace(0.05, 1.0, 40)),
    (np.sort(np.random.default_rng(3).random(513)), np.linspace(0.0, 1.0, 17)),
])
def test_one_jump_tables_match_an_unblocked_scan(locs, vals):
    # integer data too, whose tables must still hold float costs
    for m, M, beta in [(0.0, 1.0, 1.0), (0.2, 0.7, 0.3), (0.4, 0.4, 5.0), (0, 1, 1)]:
        assert_tables_match_the_full_scan(locs, vals, m, M, beta)


@st.composite
def _jump_tables_case(draw):
    """Irregular sorted traces, with or without 0, and locations clustered at 0 and 1."""
    vals = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=40))
    if draw(st.booleans()):
        vals.append(0.0)
    locs = draw(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1e-6),
                                   st.floats(1.0 - 1e-6, 1.0), st.floats(0.0, 1.0)),
                         min_size=1, max_size=40))
    m = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    M = draw(st.one_of(st.just(m), st.just(1.0), st.floats(m, 1.0)))
    beta = draw(st.floats(1e-6, 1e6))
    return np.unique(locs), np.unique(vals), m, M, beta


@settings(max_examples=300, deadline=None)
@given(case=_jump_tables_case())
def test_one_jump_tables_match_the_full_scan_on_irregular_grids(case):
    # near ties in rounding, such as adjacent or subnormal traces, are where a
    # window around the convex minimum could miss the scan's first argmin
    assert_tables_match_the_full_scan(*case)


def test_prefix_minima_take_the_first_index_as_the_loop_did():
    rng = np.random.default_rng(7)
    for values in [rng.integers(0, 4, 300).astype(float), rng.random(257), np.ones(5),
                   np.arange(6.0), np.arange(6.0)[::-1], np.array([2.0])]:
        want = [0]  # the loop the scan replaced, as the reference
        for i in range(1, values.size):
            want.append(i if values[i] < values[want[-1]] else want[-1])
        prefix, arg = oracle._prefix_minima(values)
        assert np.array_equal(prefix, np.minimum.accumulate(values))
        assert arg.tolist() == want


def test_oracle_zero_jump_budget():
    best, energy = oracle_1d_best(0.0, 1.0, 0.01, max_jumps=0)
    assert best.breakpoints == ()
    assert energy == pytest.approx(1.0)


def test_oracle_rejects_bad_data():
    with pytest.raises(ValueError):
        oracle_1d_best(0.5, 0.4, 1.0)
    with pytest.raises(ValueError):
        oracle_1d_best(0.0, 1.2, 1.0)
    for beta in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            oracle_1d_best(0.0, 1.0, beta)


def test_shooting_reproduces_the_robin_trace():
    for n, beta, R in [(1, 2.0, 2.5), (2, 3.0, 2.0), (3, 0.7, 4.0),
                       (2, 1.3, 1.08)]:
        got = oracle_robin_shooting(n, beta, R)
        assert got == pytest.approx(delta_robin(n, beta, R), abs=1e-9)


def test_shooting_cache_holds_two_float_arrays():
    oracle._BASIS_CACHE.clear()
    # exact digits of the accumulated step maps, cold and warm, each next to
    # the digits of the one-step-at-a-time loop they replaced
    for args, want, loop in [((1, 2.0, 2.5), 0.2500000000000186, 0.25000000000001843),
                             ((2, 3.0, 2.0), 0.19384040766993946, 0.19384040766994026),
                             ((3, 0.7, 4.0), 0.10638297872340406, 0.10638297872340352),
                             ((2, 1.3, 1.08), 0.9024836606831361, 0.902483660683136),
                             ((2, 1.3, 1.00005), 0.9999350025999636, 0.9999350025999636)]:
        got = oracle_robin_shooting(*args)
        assert type(got) is float
        assert repr(got) == repr(want)
        assert abs(got - loop) <= 1e-14
    for (n, step), steps in {(1, 1e-4): 15001, (2, 1e-4): 10001, (3, 1e-4): 30001}.items():
        vs, ws = oracle._BASIS_CACHE[(n, step)]
        assert isinstance(vs, array) and isinstance(ws, array)
        assert vs.typecode == ws.typecode == "d"
        assert len(vs) == len(ws) == steps
        assert (vs[0], ws[0]) == (0.0, 1.0)


def _bisected_trace(n, beta, R, step=1e-4):
    """u(R) from bisection on the Robin residual, as the oracle once solved it."""
    vR, wR = oracle._basis_at(n, R, step)

    def residual(a):
        return a * wR + beta * (1.0 + a * vR)

    lo, hi = -1.0, 0.0
    while residual(lo) > 0.0:
        lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        lo, hi = (lo, mid) if residual(mid) > 0.0 else (mid, hi)
    return 1.0 + 0.5 * (lo + hi) * vR


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shooting_solves_the_robin_condition_as_bisection_did(n):
    rng = np.random.default_rng(n)
    draws = [(0.05, 1.0000001), (40.0, 4.9), (1e-3, 3.0)]
    draws += zip(rng.uniform(0.05, 5.0, 20), rng.uniform(1.001, 5.0, 20))
    for beta, R in draws:
        got = oracle_robin_shooting(n, float(beta), float(R))
        assert got == pytest.approx(_bisected_trace(n, float(beta), float(R)), rel=1e-12, abs=0.0)


def test_shooting_rejects_a_radius_past_the_node_cap():
    step = 1e-4
    oracle._BASIS_CACHE.pop((2, step), None)
    oracle_robin_shooting(2, 1.0, 1.5, step=step)
    vs, ws = oracle._BASIS_CACHE[(2, step)]
    before = (len(vs), len(ws))
    for R in (1e6, np.inf):
        with pytest.raises(ValueError, match="RK4 nodes"):
            oracle_robin_shooting(2, 1.0, R, step=step)
    assert (len(vs), len(ws)) == before
    oracle._BASIS_CACHE.pop((3, step), None)
    with pytest.raises(ValueError, match="RK4 nodes"):
        oracle_robin_shooting(3, 1.0, 1e6, step=step)
    assert (3, step) not in oracle._BASIS_CACHE


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shooting_cache_does_not_depend_on_fill_order_or_blocks(n, monkeypatch):
    step = 1e-3
    radii = [1.0005, 1.7, 2.25, 2.2501, 2.6, 3.0]

    def fill(order):
        oracle._BASIS_CACHE.pop((n, step), None)
        for R in order:
            oracle._basis_at(n, R, step)
        vs, ws = oracle._BASIS_CACHE.pop((n, step))
        return vs.tobytes(), ws.tobytes()

    cold = fill([max(radii)])
    assert len(cold[0]) == 8 * 2001
    shuffled = [radii[k] for k in (3, 0, 5, 1, 4, 2)]
    for block in (1, 7, 4096, 1 << 16):
        monkeypatch.setattr(oracle, "_FILL_BLOCK", block)
        assert fill([max(radii)]) == cold
        assert fill(radii) == cold
        assert fill(shuffled) == cold


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shooting_cache_follows_a_plain_rk4_loop(n):
    step, nodes = 1e-4, 30001
    oracle._BASIS_CACHE.pop((n, step), None)
    oracle._basis_at(n, 1.0 + (nodes - 1) * step, step)
    vs, ws = oracle._BASIS_CACHE.pop((n, step))
    k, h = n - 1, step
    v, w = 0.0, 1.0
    ref_v, ref_w = [v], [w]
    for j in range(len(vs) - 1):
        r = 1.0 + j * h
        dv1, dw1 = w, -k * w / r
        dv2 = w + 0.5 * h * dw1
        dw2 = -k * dv2 / (r + 0.5 * h)
        dv3 = w + 0.5 * h * dw2
        dw3 = -k * dv3 / (r + 0.5 * h)
        dv4 = w + h * dw3
        dw4 = -k * dv4 / (r + h)
        v, w = (v + h * (dv1 + 2.0 * dv2 + 2.0 * dv3 + dv4) / 6.0,
                w + h * (dw1 + 2.0 * dw2 + 2.0 * dw3 + dw4) / 6.0)
        ref_v.append(v)
        ref_w.append(w)
    assert len(vs) == len(ws) == nodes
    np.testing.assert_allclose(np.asarray(vs), ref_v, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(np.asarray(ws), ref_w, rtol=1e-13, atol=0.0)


def test_shooting_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oracle_robin_shooting(0, 1.0, 2.0)
    with pytest.raises(ValueError):
        oracle_robin_shooting(2, -1.0, 2.0)
    with pytest.raises(ValueError):
        oracle_robin_shooting(2, 1.0, 1.0)
    for beta, R in ((1.0, np.nan), (np.nan, 2.0)):
        with pytest.raises(ValueError, match="need beta > 0 and R > 1"):
            oracle_robin_shooting(2, beta, R)


def test_radial_sweep_layout_and_best_row():
    R_grid = np.linspace(1.2, 3.0, 16)
    delta_grid = np.linspace(0.05, 1.0, 20)
    sweep = oracle_radial_sweep(2, 1.0, 0.4, R_grid, delta_grid)
    assert sweep.rows[0].R == 1.0 and sweep.rows[0].delta == 1.0
    assert sweep.is_indicator_best
    # every scanned row with R > 1 loses to the indicator here
    others = [row.total for row in sweep.rows[1:]]
    assert min(others) >= sweep.best.total


def test_sweep_rows_stay_frozen_hashable_and_picklable_without_a_dict():
    row = oracle_radial_sweep(2, 1.0, 0.4, [2.0], [0.5]).rows[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.total = 0.0
    assert not hasattr(row, "__dict__")
    assert hash(row) == hash(dataclasses.replace(row)) and row == dataclasses.replace(row)
    moved = dataclasses.replace(row, total=row.total + 1.0)
    assert (moved.R, moved.delta, moved.total) == (row.R, row.delta, row.total + 1.0)
    assert pickle.loads(pickle.dumps(row)) == row


def test_radial_sweep_folds_explicit_unit_radius():
    sweep = oracle_radial_sweep(2, 1.0, 0.4, [1.0, 2.0], [0.3, 0.8])
    unit_rows = [row for row in sweep.rows if row.R == 1.0]
    assert len(unit_rows) == 1


def test_radial_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        oracle_radial_sweep(2, 1.0, 0.4, [0.5, 2.0], [0.5])
    with pytest.raises(ValueError):
        oracle_radial_sweep(2, 1.0, 0.4, [2.0], [0.0, 0.5])
    with pytest.raises(ValueError):
        oracle_radial_sweep(2, 1.0, 0.4, [], [0.5])
    for R_grid, delta_grid in [([2.0, math.nan], [0.5]), ([math.nan], [0.5]),
                               ([2.0, math.inf], [0.5]), ([2.0], [0.5, math.nan]),
                               ([2.0], [-math.inf, 0.5])]:
        with pytest.raises(ValueError, match="must be finite"):
            oracle_radial_sweep(2, 1.0, 0.4, R_grid, delta_grid)


def test_radial_sweep_tracks_the_closed_form_optimum():
    n, beta, gamma_ = 2, 3.0, 0.0
    delta_grid = np.linspace(1.0 / 4000.0, 1.0, 4000)
    sweep = oracle_radial_sweep(n, beta, gamma_, [2.0], delta_grid)
    rows_at_2 = [row for row in sweep.rows if row.R == 2.0]
    grid_min = min(row.total for row in rows_at_2)
    closed = energy_radial_optimal(n, beta, gamma_, 2.0)
    assert grid_min == pytest.approx(closed, rel=1e-6)
    assert grid_min >= closed - 1e-12


def test_radial_sweep_threads_and_csv(tmp_path):
    R_grid = np.linspace(1.1, 2.5, 8)
    delta_grid = np.linspace(0.1, 1.0, 9)
    sweep1 = oracle_radial_sweep(2, 1.0, 0.34, R_grid, delta_grid)
    sweep2 = oracle_radial_sweep(2, 1.0, 0.34, R_grid, delta_grid, threads=2)
    assert tuple(sweep1.rows) == tuple(sweep2.rows)
    assert sweep1.best_index == sweep2.best_index

    path = tmp_path / "sweep.csv"
    sweep1.write_csv(path)
    text = path.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "R,delta,dirichlet,jump,volume,total"
    assert len(lines) == len(sweep1.rows) + 1
    sweep1.write_csv(path)
    assert path.read_text() == text


def scalar_sweep(n, beta, gamma_, R_grid, delta_grid):
    """The sweep as one ``energy_radial_general`` call per row, in scan order."""
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
    rows = []
    for R, d in [(1.0, 1.0)] + [(R, d) for R in Rs if R > 1.0 for d in deltas]:
        e = energy_radial_general(RadialProfile(n=n, beta=beta, gamma=gamma_, R=R, delta=d))
        rows.append(SweepRow(R=R, delta=d, dirichlet=e.dirichlet, jump=e.jump,
                             volume=e.volume, total=e.total))
    best = 0
    for i, row in enumerate(rows):
        if row.total < rows[best].total:
            best = i
    return tuple(rows), best


def assert_same_rows(sweep, rows, best):
    """The sweep's rows are plain frozen ``SweepRow`` values that behave as the
    per-row ``rows`` do: equal, hashing alike, replaceable, picklable, and
    written to the same CSV bytes."""
    assert (repr(tuple(sweep.rows)), sweep.best_index) == (repr(rows), best)
    assert all(type(row) is SweepRow for row in sweep.rows)
    assert tuple(sweep.rows) == rows
    assert list(map(hash, sweep.rows)) == list(map(hash, rows))
    assert tuple(map(dataclasses.replace, sweep.rows)) == rows
    assert pickle.loads(pickle.dumps(tuple(sweep.rows))) == rows
    for row, name in zip(sweep.rows, itertools.cycle(SweepRow.__slots__)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, name, 0.0)
    want = dataclasses.replace(sweep, rows=rows, best_index=best)
    with tempfile.TemporaryDirectory() as folder:
        got_csv, want_csv = Path(folder, "got.csv"), Path(folder, "want.csv")
        sweep.write_csv(got_csv)
        want.write_csv(want_csv)
        assert got_csv.read_bytes() == want_csv.read_bytes()


def test_radial_sweep_table_indexes_slices_and_iterates_as_its_tuple():
    sweep = oracle_radial_sweep(2, 1.0, 0.4, [1.5, 2.0, 3.0], [0.2, 0.5, 1.0])
    table, rows = sweep.rows, tuple(sweep.rows)
    assert type(table) is SweepTable and len(table) == len(rows) == 10
    assert tuple(table[i] for i in range(len(table))) == rows
    assert tuple(table[i] for i in range(-len(table), 0)) == rows
    for i in (len(table), len(table) + 5, -len(table) - 1):
        with pytest.raises(IndexError):
            table[i]
    bounds = [None, 0, 1, 3, 4, 9, 10, -1, -3, -10, -11, 50]
    for start, stop, step in itertools.product(bounds, bounds, [None, 1, 2, 3, -1, -2, -4, 20]):
        assert table[start:stop:step] == rows[start:stop:step], (start, stop, step)
    assert all(type(row) is SweepRow for row in itertools.chain(
        table, map(table.__getitem__, range(-len(table), len(table))), table[::-1], table[1::3]))
    assert table.total.shape == (3, 3)
    for copied in (table, pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert tuple(copied) == rows
        for column in (copied.dirichlet, copied.jump, copied.total):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0, 0] = 0.0


@pytest.mark.parametrize("R_grid, delta_grid", [([1.0], [0.3, 0.7]), ([1.5, 1.0, 2.0], [0.5])])
def test_radial_sweep_table_on_a_unit_only_or_single_trace_grid(R_grid, delta_grid):
    sweep = oracle_radial_sweep(2, 1.0, 0.4, R_grid, delta_grid)
    assert_same_rows(sweep, *scalar_sweep(2, 1.0, 0.4, R_grid, delta_grid))
    table = sweep.rows
    assert len(table) == 1 + (len(R_grid) - 1) * len(delta_grid)
    assert table.total.shape == (len(R_grid) - 1, len(delta_grid))
    assert table[0] is table[-len(table)] is table.unit
    with pytest.raises(IndexError):
        table[len(table)]
    assert table[1:] == tuple(table)[1:] and table[::-1] == tuple(table)[::-1]


@pytest.mark.parametrize("beta, gamma_", [(1.0, 0.4), (3.0, 0.2)])
def test_radial_sweep_reads_the_same_with_its_rows_as_a_tuple(beta, gamma_, tmp_path):
    # the path the benchmark's self-test takes: a result whose rows are a plain tuple
    R_grid, delta_grid = np.linspace(1.0, 3.0, 7), np.linspace(0.1, 1.0, 6)
    sweep = oracle_radial_sweep(2, beta, gamma_, R_grid, delta_grid)
    plain = dataclasses.replace(sweep, rows=tuple(sweep.rows))
    assert sweep.is_indicator_best == (beta == 1.0)
    assert (plain.best, plain.best_index, plain.is_indicator_best) == (
        sweep.best, sweep.best_index, sweep.is_indicator_best)
    sweep.write_csv(tmp_path / "table.csv")
    plain.write_csv(tmp_path / "tuple.csv")
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "tuple.csv").read_bytes()


def _with_repeats(values):
    # unsorted, with the first entries repeated at the end
    return values + values[:2]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 10), beta=st.floats(0.05, 10.0), gamma_=st.floats(0.0, 2.0),
       R_grid=st.lists(st.one_of(st.just(1.0), st.just(1.0 + 1e-12), st.floats(1.0, 6.0)),
                       min_size=1, max_size=5).map(_with_repeats),
       delta_grid=st.lists(st.one_of(st.just(1.0), st.floats(1e-9, 1.0)),
                           min_size=1, max_size=12).map(_with_repeats),
       seed=st.integers(0, 2**32 - 1))
def test_radial_sweep_matches_the_scalar_loop(n, beta, gamma_, R_grid, delta_grid, seed):
    # 200 random traces besides the drawn ones: a last-ulp mismatch in the
    # squares shows on about one trace in 10^3
    delta_grid = delta_grid + (1.0 - np.random.default_rng(seed).random(200)).tolist()
    sweep = oracle_radial_sweep(n, beta, gamma_, R_grid, delta_grid)
    rows, best = scalar_sweep(n, beta, gamma_, R_grid, delta_grid)
    assert_same_rows(sweep, rows, best)


@pytest.mark.parametrize("n, beta, gamma_, R_grid, delta_grid", [
    (2, 1.0, 0.4, [0.5, 2.0], [0.5]),
    (2, 1.0, 0.4, [2.0], [0.0, 0.5]),
    (2, 1.0, 0.4, [2.0], [0.5, 1.5]),
    (2, 1.0, 0.4, [], [0.5]),
    (2, 1.0, 0.4, [2.0], []),
    (2, 1.0, 0.4, [2.0, math.inf], [0.5]),
    (2, 1.0, 0.4, [2.0, math.nan], [0.5]),
    (2, 1.0, 0.4, [2.0], [0.5, math.nan]),
    (0, 1.0, 0.4, [2.0], [0.5]),
    (11, 1.0, 0.4, [2.0], [0.5]),
    (2, math.nan, 0.4, [2.0], [0.5]),
    (3, 1.0, 0.4, [2.0, 1e200], [0.5, 1.0]),   # R^2 overflows
    (2, 1.0, 0.4, [2.0, 1e300], [0.5, 1.0]),   # R^2 in the volume overflows
    (2, 1.0, 1e200, [2.0], [0.5]),             # gamma^2 overflows
    (2, 1e308, 0.4, [2.0], [1e-200, 0.5]),     # infinite jump weight, and inf * 0
    (2, 1e307, 3e153, [2.0], [0.5, 1.0]),      # finite terms whose total is inf
])
def test_radial_sweep_edge_grids_match_the_scalar_loop(n, beta, gamma_, R_grid, delta_grid):
    # the same exception type, or the same rows; never a warning
    try:
        want = scalar_sweep(n, beta, gamma_, R_grid, delta_grid)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            oracle_radial_sweep(n, beta, gamma_, R_grid, delta_grid)
    else:
        sweep = oracle_radial_sweep(n, beta, gamma_, R_grid, delta_grid)
        assert_same_rows(sweep, *want)
        assert math.isinf(sweep.rows[-1].total) == (beta == 1e307)
