"""Unit tests for the grid verifier."""

import argparse
import dataclasses
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from calx.calibration_fields import (
    CalibParams1D,
    HypothesisViolation,
    PiecewiseField,
    affine_profile,
    build_field_1d,
    build_field_ball_harmonic,
    build_field_harmonic,
    build_field_indicator_const,
    build_field_indicator_two_piece,
    radial_shell_profile,
)
from calx import cli, verifier
from calx.potentials import delta_robin, robin_bracket
from calx.verifier import (
    CalibratedFunction,
    VerificationReport,
    Violation,
    VerifyConfig,
    check_condition_a,
    check_condition_b,
    check_divergence_and_flux,
    perturb_phi_t,
    verify_all,
)
from grid_reference import central_difference, grid_divergence, region_callables

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from workloads import CERTIFY_CELLS, REFUTE_CELLS  # noqa: E402

GAMMA_EL_SQ_2_2_2 = 0.21078627566065199313129689492651333031406165486519


def ball_field():
    return build_field_ball_harmonic(2, 2.0, math.sqrt(GAMMA_EL_SQ_2_2_2), 2.0)


def limit_field():
    return build_field_1d(CalibParams1D.from_traces(0.25, 1.0, 1.0))


def test_config_validation():
    with pytest.raises(ValueError):
        VerifyConfig(pos_res=4)
    with pytest.raises(ValueError):
        VerifyConfig(tol_a=0.0)
    # the divergence has one mode, exact at the stretch ends
    for removed in ({"divergence_mode": "fd"}, {"fd_step": 1e-3}):
        with pytest.raises(TypeError):
            VerifyConfig(**removed)
    with pytest.raises(ValueError):
        VerifyConfig(axioms=("a", "c"))
    with pytest.raises(ValueError):
        VerifyConfig(threads=0)
    cfg = VerifyConfig(pos_res=32.0)
    assert cfg.pos_res == 32 and isinstance(cfg.pos_res, int)


def test_pair_res_follows_t_res():
    # axiom (b) pairs the t nodes of the pass's one grid: pair_res names
    # their number and may not set another; it is kept as given, and the
    # reports read t_res under its name
    assert VerifyConfig(t_res=64).pair_res is None
    assert VerifyConfig(t_res=64, pair_res=64.0).pair_res == 64
    with pytest.raises(ValueError, match="^pair_res must equal t_res, got pair_res = 200 "
                                         "and t_res = 128$"):
        VerifyConfig(t_res=128, pair_res=200)
    for cfg in (VerifyConfig(pos_res=16, t_res=24, axioms=("b",)),
                VerifyConfig(pos_res=16, t_res=24, pair_res=24.0, axioms=("b",))):
        report = verify_all(ball_field(), config=cfg)
        assert report.grid_meta["pair_res"] == report.results["b"].meta["pair_res"] == 24
        assert json.loads(report.to_json())["grid"]["pair_res"] == 24


def test_a_config_takes_another_t_res_by_replace():
    # replace passes every field back to the constructor: a pair_res left
    # unset stays unset, and one the caller set must still match
    cfg = dataclasses.replace(VerifyConfig(), t_res=64)
    assert (cfg.t_res, cfg.pair_res) == (64, None)
    assert dataclasses.replace(VerifyConfig(t_res=64, pair_res=64), t_res=64).pair_res == 64
    with pytest.raises(ValueError, match="^pair_res must equal t_res, got pair_res = 128 "
                                         "and t_res = 64$"):
        dataclasses.replace(VerifyConfig(pair_res=128), t_res=64)


def test_config_rejects_tolerances_that_are_not_positive_and_finite():
    for name in ("tol_a", "tol_b", "tol_div", "tol_flux", "tol_graph"):
        for value in (float("nan"), float("inf"), -float("inf"), 0.0, -1e-9):
            with pytest.raises(ValueError, match="^{} must be positive and finite$".format(name)):
                VerifyConfig(**{name: value})
        assert getattr(VerifyConfig(**{name: 1e300}), name) == 1e300
    # a bare string is not a sequence of axiom ids, and no count is negative
    for axioms in ("divflux", "ab", "a"):
        with pytest.raises(ValueError, match="^axioms must be a sequence of axiom ids"):
            VerifyConfig(axioms=axioms)
    with pytest.raises(ValueError, match="^max_recorded must be at least 0$"):
        VerifyConfig(max_recorded=-5)
    assert VerifyConfig(max_recorded=0).max_recorded == 0


def test_calibrated_function_for_each_kind():
    field = limit_field()
    cal = field.calibrated
    assert cal.jumps == ()
    assert field.gamma_sq_term == 0.0
    assert cal.value(0.4) == pytest.approx(0.55)
    assert cal.grad(0.4) == pytest.approx(0.75)

    field = build_field_indicator_const(2, 0.3, 0.4)
    cal = field.calibrated
    assert cal.jumps == ((1.0, 0.0, 1.0, -1.0),)
    assert field.gamma_sq_term == pytest.approx(0.16)
    assert cal.value(2.0) == 0.0

    field = ball_field()
    cal = field.calibrated
    dR = delta_robin(2, 2.0, 2.0)
    assert len(cal.jumps) == 1
    jpos, lo, hi, nu = cal.jumps[0]
    assert jpos == 2.0 and lo == 0.0 and nu == -1.0
    assert hi == pytest.approx(dR, abs=1e-15)
    assert cal.value(1.0) == pytest.approx(1.0)
    assert cal.value(3.0) == 0.0
    assert cal.grad(3.0) == 0.0


def test_verify_all_runs_only_requested_axioms():
    field = limit_field()
    cfg = VerifyConfig(pos_res=32, t_res=32, pair_res=32, axioms=("a",))
    report = verify_all(field, config=cfg)
    assert set(report.results) == {"a"}
    assert report.passed


def test_condition_a_margin_is_tight_on_the_saturating_band():
    # the graph band realizes equality in the pointwise inequality, so
    # the worst margin sits at zero up to rounding
    field = limit_field()
    cfg = VerifyConfig(pos_res=64, t_res=64)
    result = check_condition_a(field, cfg)
    assert result.status == "pass"
    assert -1e-12 <= result.worst_margin <= 1e-12


def test_condition_b_threads_agree():
    field = ball_field()
    cfg1 = VerifyConfig(pos_res=48, t_res=48, pair_res=48, threads=1)
    cfg2 = VerifyConfig(pos_res=48, t_res=48, pair_res=48, threads=2)
    r1 = check_condition_b(field, 2.0, cfg1)
    r2 = check_condition_b(field, 2.0, cfg2)
    assert r1.status == r2.status == "pass"
    assert r1.worst_margin == r2.worst_margin
    assert r1.n_violations == r2.n_violations


def reference_condition_b(pos, Psi, tg, beta, tol, max_recorded):
    """Axiom (b) by the full O(N^2) pair matrix of every fibre.

    With ``a = Psi - beta t^2`` and ``b = Psi + beta t^2`` the margin of a
    pair ``r < c`` is ``min(b_c - a_r, b_r - a_c)``.  Returns
    ``(n_violations, worst_margin, reduced_margin, violations)``; a fibre
    with a non-finite sample counts once and makes the worst margin NaN.
    """

    worst = np.inf
    reduced_worst = np.inf
    count = 0
    kept = []
    w = beta * tg ** 2
    bound = beta * (tg[None, :] ** 2 + tg[:, None] ** 2)
    iu = np.triu_indices(tg.size, k=1)
    for p, vals in zip(pos, Psi):
        room = max(max_recorded - len(kept), 0)
        if not np.isfinite(vals).all():
            count += 1
            worst = np.nan
            kept += [Violation("b", (float(p), float("nan"), float("nan")),
                               float("nan"), tol)][:room]
            continue
        a, b = vals - w, vals + w
        margin = np.minimum(b[None, :] - a[:, None], b[:, None] - a[None, :])
        tri = margin[iu]
        worst = min(worst, float(tri.min()))
        reduced = bound[0] - np.abs(vals - vals[0])
        reduced_worst = min(reduced_worst, float(reduced[1:].min()))
        bad = tri < -tol
        count += int(bad.sum())
        ii, jj = iu[0][bad], iu[1][bad]
        for k in np.argsort(tri[bad])[:room]:
            kept.append(Violation("b", (float(p), float(tg[ii[k]]), float(tg[jj[k]])),
                                  float(-tri[bad][k]), tol))
    margins = [None if np.isinf(x) else x for x in (worst, reduced_worst)]
    return count, margins[0], margins[1], kept


class RowsField:
    """Stand-in field whose ``Psi`` on the ``pos x t`` grid is a given array.

    It answers the two calls of the grid pass: its table of fibres holds row
    numbers as positions, and no runs and no stretches, so each block of the
    table samples ``Psi`` as the block's rows.
    """

    def __init__(self, rows, t_max):
        self.rows = rows
        self.pos_range = (1.0, 2.0)
        self.t_max = t_max

    def _fibres(self, pos, t, stretches):
        assert stretches and (pos.size, t.size) == self.rows.shape
        rows = np.arange(pos.size)[:, None]
        return rows, t, np.zeros(pos.size, dtype=bool), [], None

    def _sample(self, pos, t, *quantities, out, fibres):
        assert quantities == ("Psi",) and np.array_equal(t, fibres[1])
        return (self.rows[fibres[0][:, 0]],)


@st.composite
def pair_scans(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P, N = draw(st.integers(16, 20)), draw(st.integers(16, 40))
    t_max = draw(st.sampled_from([0.5, 1.0, 3.0]))
    beta = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    tol = draw(st.sampled_from([1e-300, 1e-9, 1e-3, 0.2]))
    tg = np.linspace(0.0, t_max, N)
    rows = rng.normal(scale=draw(st.sampled_from([0.01, 1.0, 30.0])), size=(P, N))
    if draw(st.booleans()):
        # coarse values: many tied values and tied margins
        rows = np.round(rows * 2.0) / 2.0
    if draw(st.booleans()):
        rows += beta * tg ** 2 * rng.choice([-1.0, 0.0, 1.0], size=(P, 1))
    planted, nonfinite = draw(st.integers(0, 12)), draw(st.integers(0, 3))
    max_recorded = draw(st.sampled_from([0, 1, 3, 17, 60, 10000]))
    # some or all fibres shaped as in real fields: "flat run" makes b (or a)
    # flat over a run of nodes only, as in the two-piece and ball fields;
    # "sharp" gives a least margin of exactly 0, |Psi_j - Psi_0| = beta t_j^2
    # at some nodes j and at most that elsewhere; "constant" holds Psi fixed
    # along the fibre, as outside the ball's support
    shape = draw(st.sampled_from(["noise", "flat run", "sharp", "constant"]))
    share = draw(st.sampled_from([0.5, 1.0]))
    for f in np.flatnonzero(rng.random(P) < share) if shape != "noise" else ():
        if shape == "flat run":
            lo = rng.integers(N - 1)
            hi = rng.integers(lo + 2, N + 1)
            rows[f, lo:hi] = rows[f, lo] + rng.choice([-1.0, 1.0]) * beta * tg[lo:hi] ** 2
        elif shape == "sharp":
            scale = np.where(rng.random(N) < 0.3, 1.0, rng.random(N))
            scale[-1] = 1.0
            rows[f] = rng.choice([-1.0, 1.0]) * beta * tg ** 2 * scale
        else:
            rows[f] = rows[f, 0]
    # pairs planted a few ulps from b_j - a_i = -tol, with a = Psi - beta t^2
    # and b = Psi + beta t^2: there the search for a_i - tol can misplace the
    # end of node i's failing prefix of the sorted b
    w = beta * tg ** 2
    for _ in range(planted):
        f = rng.integers(P)
        i, j = rng.choice(N, size=2, replace=False)
        b = (rows[f, i] - w[i]) - tol
        for _ in range(abs(int(rng.integers(-4, 5)))):
            b = np.nextafter(b, np.inf if rng.integers(2) else -np.inf)
        rows[f, j] = b - w[j]
    # up to three non-finite fibres, so that the recorded list must follow
    # positions across them and the failing finite fibres
    for f in rng.choice(P, size=nonfinite, replace=False):
        rows[f, rng.integers(N)] = rng.choice([np.nan, np.inf, -np.inf])
    return rows, t_max, beta, tol, max_recorded


@settings(max_examples=150, deadline=None)
@given(pair_scans())
def test_condition_b_matches_the_full_pair_scan(scan):
    rows, t_max, beta, tol, max_recorded = scan
    cfg = VerifyConfig(pos_res=rows.shape[0], t_res=rows.shape[1], tol_b=tol,
                       max_recorded=max_recorded)
    got = check_condition_b(RowsField(rows, t_max), beta, cfg)
    pos = np.linspace(1.0, 2.0, rows.shape[0])
    tg = np.linspace(0.0, t_max, rows.shape[1])
    count, worst, reduced, kept = reference_condition_b(pos, rows, tg, beta, tol, max_recorded)
    assert got.n_violations == count
    assert got.status == ("pass" if count == 0 else "fail")
    assert repr(got.worst_margin) == repr(worst)
    assert repr(got.meta["reduced_margin"]) == repr(reduced)
    assert [repr(v) for v in got.violations] == [repr(v) for v in kept]


def test_condition_b_moves_a_prefix_end_that_the_search_misplaces():
    # beta = 0, so a = b = Psi.  Against a = 3 on fibre 3 the margin 2.3 - 3
    # rounds to -0.7000000000000002, below -tol, but 3 - tol rounds to 2.3
    # itself, so the search ends node 0's failing prefix of the sorted b
    # one entry early: the margin must move that end
    rows = np.full((16, 16), 2.65)
    rows[3, [0, 5, 9]] = 3.0, 2.3, 2.0
    tol, b = 0.7, np.sort(rows[3])
    assert np.searchsorted(b, 3.0 - tol) == 1
    assert np.count_nonzero(b - 3.0 < -tol) == 2
    cfg = VerifyConfig(pos_res=16, t_res=16, tol_b=tol)
    got = check_condition_b(RowsField(rows, 1.0), 0.0, cfg)
    count, worst, reduced, kept = reference_condition_b(
        np.linspace(1.0, 2.0, 16), rows, np.linspace(0.0, 1.0, 16), 0.0, tol, cfg.max_recorded)
    assert got.n_violations == count == 2
    assert repr(got.worst_margin) == repr(worst) == "-1.0"
    assert repr(got.meta["reduced_margin"]) == repr(reduced)
    assert [repr(v) for v in got.violations] == [repr(v) for v in kept]


def test_condition_b_at_zero_beta_on_a_constant_field_keeps_its_memory_small():
    # with beta = 0 and Psi = 0 every node ties both extremes of its fibre;
    # their least margin, 0, is read from the extremes, so no fibre can fail
    # and none of the 16 fibres forms its 256^2 node pairs
    cfg = VerifyConfig(pos_res=16, t_res=256)
    tracemalloc.start()
    try:
        got = check_condition_b(RowsField(np.zeros((16, 256)), 1.0), 0.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.status == "pass"
    assert repr(got.worst_margin) == repr(got.meta["reduced_margin"]) == "0.0"
    assert peak < 8 * 2 ** 20


def reference_tally(axiom, margin, locations, tol, cap, residual, floor):
    """The verdict rule, sample by sample: ``(count, worst, recorded)``."""

    shape = np.shape(margin)
    residual = margin if residual is None else residual
    count, recorded = 0, []
    for at in np.ndindex(*shape):
        m = float(margin[at])
        if math.isfinite(m) and m >= floor:
            continue
        count += 1
        if len(recorded) < cap:
            recorded.append(Violation(
                axiom, tuple(np.broadcast_to(loc, shape)[at].item() for loc in locations),
                float(residual[at]) if math.isfinite(m) else float("nan"), tol))
    values = [float(m) for m in np.ravel(margin)]
    if not all(math.isfinite(m) for m in values):
        worst = float("nan")
    else:
        worst = min(values) if values else floor + tol
    return count, worst, recorded


@st.composite
def tallies(draw):
    floor = draw(st.sampled_from([0.0, -1e-9, 1e-3]))
    shape = draw(st.sampled_from([(0,), (0, 5), (1, 1), (3, 4), (6, 7)]))
    # margins all finite and at least floor, the same with one inf planted, or any
    mode = draw(st.sampled_from(["at least floor", "one inf", "any"]))
    if mode == "any":
        values = st.one_of(
            st.sampled_from([np.nan, np.inf, -np.inf, floor, np.nextafter(floor, -np.inf),
                             np.nextafter(floor, np.inf)]),
            st.floats(-10.0, 10.0))
    else:
        values = st.one_of(st.just(floor), st.floats(floor, 1e300))
    size = int(np.prod(shape))
    # + 0.0 turns -0.0 into 0.0, whose least value min and np.min may pick apart
    margin = np.array(draw(st.lists(values, min_size=size, max_size=size)),
                      dtype=float).reshape(shape) + 0.0
    if mode == "one inf" and size:
        margin.flat[draw(st.integers(0, size - 1))] = np.inf
    locations = ((np.arange(shape[0], dtype=float),) if len(shape) == 1 else
                 (np.arange(shape[0], dtype=float)[:, None],
                  np.linspace(0.0, 1.0, shape[1])[None, :]))
    residual = -margin if draw(st.booleans()) else None
    cap = draw(st.sampled_from([0, 1, 10 ** 4]))
    tol = draw(st.sampled_from([1e-9, 1e-5]))
    return margin, locations, tol, cap, residual, floor


@settings(max_examples=300, deadline=None)
@given(tallies())
def test_tally_matches_the_verdict_rule(case):
    margin, locations, tol, cap, residual, floor = case
    got = verifier._tally("x", margin, locations, tol, cap, residual, floor)
    count, worst, recorded = reference_tally("x", margin, locations, tol, cap, residual, floor)
    assert got[0] == count
    assert repr(got[1]) == repr(worst)
    assert [repr(v) for v in got[2]] == [repr(v) for v in recorded]


@pytest.mark.parametrize("max_recorded", [0, 1, 7, 20, 52, 10000])
def test_condition_b_matches_the_full_pair_scan_on_a_failing_ball(max_recorded):
    # criterion 8: beta below n - 1/2 breaks axiom (b) on many fibres, 52
    # pairs on 8 of them; the room runs out before, inside or after them
    field = build_field_ball_harmonic(2, 1.3, 0.62934651086470002, 1.08,
                                      enforce_beta=False)
    cfg = VerifyConfig(pos_res=128, t_res=128, pair_res=128, max_recorded=max_recorded)
    got = check_condition_b(field, 1.3, cfg)
    pos = np.linspace(*field.pos_range, 128)
    tg = np.linspace(0.0, field.t_max, 128)
    Psi = field.Psi(*np.meshgrid(pos, tg, indexing="ij"))
    count, worst, reduced, kept = reference_condition_b(pos, Psi, tg, 1.3, cfg.tol_b,
                                                        max_recorded)
    assert got.n_violations == count == 52
    assert got.worst_margin == worst < 0.0
    assert got.meta["reduced_margin"] == reduced
    assert [repr(v) for v in got.violations] == [repr(v) for v in kept]
    assert len(got.violations) == min(max_recorded, 52)
    if max_recorded >= 52:
        assert len({v.location[0] for v in got.violations}) == 8


# the README cell of each `check` kind, and the criterion-8 ball
CHECK_FIELDS = {
    "1d": lambda: build_field_1d(CalibParams1D.from_traces(0.8, 1.0, 3.0)),
    "harmonic": lambda: build_field_harmonic(affine_profile(0.8, 1.0), 3.0),
    "harmonic radial shell": lambda: build_field_harmonic(radial_shell_profile(2, 2.0, 2.0), 2.0),
    "indicator-const": lambda: build_field_indicator_const(2, 0.3, 0.4),
    "indicator-two-piece": lambda: build_field_indicator_two_piece(2, 1.0, 0.4),
    "ball-harmonic": ball_field,
    "criterion-8 ball": lambda: build_field_ball_harmonic(2, 1.3, 0.62934651086470002, 1.08,
                                                          enforce_beta=False),
}


@pytest.mark.parametrize("case", sorted(CHECK_FIELDS))
def test_condition_b_matches_the_full_pair_scan_on_check_fields(case):
    # real fields hold the least margin at exactly 0 on runs of tied nodes,
    # which random rows rarely do
    field = CHECK_FIELDS[case]()
    beta = float(field.params["beta"])
    cfg = VerifyConfig(pos_res=64, t_res=64, pair_res=64)
    got = check_condition_b(field, beta, cfg)
    pos = np.linspace(*field.pos_range, 64)
    tg = np.linspace(0.0, field.t_max, 64)
    Psi = field.Psi(*np.meshgrid(pos, tg, indexing="ij"))
    count, worst, reduced, kept = reference_condition_b(pos, Psi, tg, beta, cfg.tol_b,
                                                        cfg.max_recorded)
    assert got.n_violations == count
    assert repr(got.worst_margin) == repr(worst)
    assert repr(got.meta["reduced_margin"]) == repr(reduced)
    assert [repr(v) for v in got.violations] == [repr(v) for v in kept]


def test_nonfinite_samples_fail_with_a_nan_margin():
    # R = 1e300 overflows the shell potentials on one fibre (`calx check`
    # rejects that radius as a usage error; the builder takes it)
    with np.errstate(all="ignore"):
        field = build_field_ball_harmonic(2, 2.0, math.sqrt(robin_bracket(2, 2.0, 1e300)), 1e300)
        report = verify_all(field, config=VerifyConfig(pos_res=64, t_res=64, pair_res=64))
    doc = json.loads(report.to_json())
    assert not report.passed
    b = doc["results"]["b"]
    assert b["status"] == "fail" and b["n_violations"] == 1
    assert math.isnan(b["worst_margin"])
    assert b["violations"][0]["location"][0] == 1.0
    for entry in doc["results"].values():
        if entry["status"] == "fail":
            assert not entry["worst_margin"] >= 0.0

    field = limit_field()
    bad = dataclasses.replace(field, phi_t_bump=(0.5, 0.5, np.nan, 0.01, 0.01))
    result = check_condition_a(bad, VerifyConfig(pos_res=64, t_res=64))
    assert result.status == "fail" and result.n_violations > 0
    assert math.isnan(result.worst_margin)


@pytest.mark.parametrize("case, axiom, part", [
    ("NaN at a grid node", "divflux", "bounded"),
    ("NaN d1 on one fibre", "divflux", "div"),
    ("NaN jump end", "b_prime", "b_prime"),
    ("+inf at a grid node", "a", "a"),
])
def test_nonfinite_divergence_and_jump_samples_fail_with_a_nan_margin(case, axiom, part):
    field = build_field_indicator_const(2, 0.3, 0.4)
    cfg = VerifyConfig(pos_res=32, t_res=32, pair_res=32)
    pos = np.linspace(*field.pos_range, 32)
    t = np.linspace(0.0, field.t_max, 32)
    calibrated = None
    if case == "NaN jump end":
        calibrated = dataclasses.replace(field.calibrated, jumps=((1.0, 0.0, np.nan, -1.0),))
    elif case == "NaN d1 on one fibre":
        # the grid samples psi and phi_t only: d0 + d1 s is read at the two
        # ends of the one region's stretch [0, t_max] of each fibre, and
        # NaN times s is NaN at both, s = 0 included
        region = field.regions[0]

        def coeffs(p):
            *rest, d1 = region.coeffs(p)
            return (*rest, np.where(p == pos[5], np.nan, d1))

        field = dataclasses.replace(field, regions=(dataclasses.replace(region, coeffs=coeffs),))
    else:
        # phi_t is bumped at one grid node
        amount = np.inf if case.startswith("+inf") else np.nan
        field = perturb_phi_t(field, pos[5], t[7], amount, 1e-6, 1e-6)
    report = verify_all(field, calibrated, cfg)
    result = report.results[axiom]
    count = 2 if case == "NaN d1 on one fibre" else 1
    assert result.status == "fail" and result.n_violations == count
    assert math.isnan(result.worst_margin)
    assert [v.axiom for v in result.violations] == [part] * count
    assert all(math.isnan(v.residual) for v in result.violations)
    if case == "NaN d1 on one fibre":
        assert [v.location for v in result.violations] == [(pos[5], 0.0), (pos[5], field.t_max)]
    assert report.passed is False


def test_psi_antiderivative_matches_quadrature():
    # Psi sums trapezoids of psi, which is exact only if psi is affine in t
    shell = radial_shell_profile(2, 0.5, 2.0)
    rng = np.random.default_rng(11)
    for field in (limit_field(), ball_field(), build_field_indicator_const(3, 0.6, 0.8),
                  build_field_indicator_two_piece(2, 1.0, 0.4),
                  build_field_harmonic(shell, 0.5)):
        lo, hi = field.pos_range
        for _ in range(12):
            pos = float(rng.uniform(lo + 1e-3, hi - 1e-3))
            t1, t2 = np.sort(rng.uniform(0.0, field.t_max, size=2))

            def integrand(t):
                psi, _ = field.evaluate(pos, t)
                return psi

            # psi may jump where the fibre changes region, and an unmarked
            # jump near an end of [t1, t2] can slip past the quadrature
            breaks = [b for b in (float(r.top(pos)) for r in field.regions) if t1 < b < t2]
            expected, err = integrate.quad(integrand, t1, t2, limit=200, points=breaks or None)
            got = field.Psi(pos, t2) - field.Psi(pos, t1)
            assert abs(got - expected) < 1e-9 + 10.0 * err


@pytest.mark.parametrize("case", sorted(CHECK_FIELDS))
def test_every_check_field_declares_the_derivative_of_its_psi(case):
    # each region's d0 + d1 s against a central difference of psi along pos,
    # wherever the stencil stays in the region of its centre
    field = CHECK_FIELDS[case]()
    P = np.linspace(*field.pos_range, 97)[:, None]
    T = np.linspace(0.0, field.t_max, 97)[None, :]
    P, T = np.broadcast_arrays(P, T)
    idx = field.region_index(P, T)
    fd, ok = central_difference(field, P, T, 1e-6)
    assert ok.sum() > 0.95 * ok.size
    for k, region in enumerate(field.regions):
        at = ok & (idx == k)
        _, _, _, _, _, d0, d1 = region.coeffs(P[at])
        exact = d0 + d1 * (T[at] - region.anchor)
        assert np.all(np.abs(fd[at] - exact) <= 1e-7 * (1.0 + np.abs(exact))), region.name


@pytest.mark.parametrize("case", sorted(CHECK_FIELDS) + ["n = 1 ball"])
def test_every_graph_interface_reads_the_slope_of_its_regions_top(case):
    # top_prime of the region an interface names against a central difference
    # of its top, inside the interface's range
    field = CHECK_FIELDS.get(case, lambda: build_field_ball_harmonic(
        1, 1.0, math.sqrt(robin_bracket(1, 1.0, 1.5)), 1.5))()
    regions = dict(zip(field.region_names(), field.regions))
    for interface in field.interfaces:
        if interface.kind == "graph":
            region = regions[interface.region]
            lo, hi = interface.pos_range
            at, h = np.linspace(lo, hi, 97)[1:-1], 1e-6 * (hi - lo)
            fd = (region.top(at + h) - region.top(at - h)) / (2.0 * h)
            exact = region.top_prime(at)
            assert np.all(np.abs(fd - exact) <= 1e-7 * (1.0 + np.abs(exact))), interface.name


def assert_coefficients_match_the_closed_forms(field, res=97):
    """``psi`` and ``phi_t`` as sampled, and ``d0 + d1 s``, against each region's
    closed-form callables at the grid points the region claims, to within a
    few ulps of the largest term of either side."""

    P = np.linspace(*field.pos_range, res)[:, None]
    T = np.linspace(0.0, field.t_max, res)[None, :]
    P, T = np.broadcast_arrays(P, T)
    idx = field.region_index(P, T)
    psi, phi_t = field.evaluate(P, T)
    for k, (region, closed) in enumerate(zip(field.regions, region_callables(field))):
        at = idx == k
        p, t = P[at], T[at]
        s = t - region.anchor
        p0, p1, c0, c1, c2, d0, d1 = region.coeffs(p)
        for name, got, terms, want in (
                ("psi", psi[at], (p0, p1 * s), closed[0](p, t)),
                ("phi_t", phi_t[at], (c0, c1 * s, c2 * s * s), closed[1](p, t)),
                ("dpsi_dpos", d0 + d1 * s, (d0, d1 * s), closed[2](p, t))):
            got, want, *terms = np.broadcast_arrays(got, want, *terms)
            scale = np.maximum(np.max(np.abs(terms), axis=0), np.abs(want))
            assert np.all(np.abs(got - want) <= 8.0 * np.finfo(float).eps * scale), (
                field.kind, region.name, name)


THIN_FIELDS = {
    "harmonic shell, R = 1.001":
        lambda: build_field_harmonic(radial_shell_profile(2, 2.0, 1.001), 2.0),
    "ball, R = 1.001": lambda: build_field_ball_harmonic(
        3, 3.0, math.sqrt(robin_bracket(3, 3.0, 1.001)), 1.001),
    "constant profile": lambda: build_field_1d(CalibParams1D.from_traces(1.0, 1.0, 2.0)),
}


@pytest.mark.parametrize("case", sorted(CHECK_FIELDS) + sorted(THIN_FIELDS))
def test_coefficients_match_the_closed_forms_on_check_fields(case):
    field = {**CHECK_FIELDS, **THIN_FIELDS}[case]()
    assert_coefficients_match_the_closed_forms(field, 1000 if "1.001" in case else 97)


BENCHMARK_CELLS = [(kind, cell) for kind, cells in sorted(CERTIFY_CELLS.items())
                   for cell in cells] + list(REFUTE_CELLS)


@st.composite
def divergence_fields(draw):
    """A field of a benchmark cell, or one built from random parameters."""
    source = draw(st.sampled_from(["benchmark", "1d", "shell", "indicator-const",
                                   "indicator-two-piece", "ball-harmonic"]))
    n, beta = draw(st.integers(1, 3)), draw(st.floats(0.2, 5.0))
    gamma_, R = draw(st.floats(0.0, 2.0)), draw(st.floats(1.05, 3.0))
    try:
        if source == "benchmark":
            kind, cell = draw(st.sampled_from(BENCHMARK_CELLS))
            return cli._FIELDS[kind](cli._Options("check", argparse.Namespace(**cell), {}), [])
        if source == "1d":
            return build_field_1d(CalibParams1D.from_traces(draw(st.floats(0.0, 0.95)), 1.0, beta))
        if source == "shell":
            return build_field_harmonic(radial_shell_profile(n, beta, R), beta)
        if source == "indicator-const":
            return build_field_indicator_const(n, beta, max(beta, gamma_))
        if source == "indicator-two-piece":
            return build_field_indicator_two_piece(n, beta, gamma_)
        bracket = robin_bracket(n, beta, R)
        assume(bracket >= 0.0)
        return build_field_ball_harmonic(n, beta, math.sqrt(bracket), R, enforce_beta=False)
    except HypothesisViolation:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(divergence_fields())
def test_coefficients_match_the_closed_forms_on_random_fields(field):
    assert_coefficients_match_the_closed_forms(field)


@settings(max_examples=60, deadline=None)
@given(divergence_fields(), st.sampled_from([16, 37, 64]), st.data())
def test_stretch_ends_bound_the_divergence_at_every_grid_point(field, res, data):
    # the divergence is affine in t on each region's stretch, so no grid
    # point of a fibre exceeds the larger of its region's two stretch ends
    cfg = VerifyConfig(pos_res=res, t_res=res, pair_res=res, axioms=("divflux",))
    result = check_divergence_and_flux(field, cfg)
    P = np.linspace(*field.pos_range, res)[:, None]
    T = np.linspace(0.0, field.t_max, res)[None, :]
    div, valid, scale = grid_divergence(field, P, T)
    assert valid.all()
    ulps = 64.0 * np.finfo(float).eps
    assert np.max(div) <= result.meta["div_worst"] + ulps * (1.0 + np.max(scale))

    # a d0 + d1 s off by shift (1 + slope t) in one region that owns a
    # stretch fails at both ends of each of its stretches, and its stretch
    # ends still bound the grid
    ridx = field.region_index(P, T)
    k = data.draw(st.sampled_from(sorted(set(ridx.ravel()) - {-1})))
    shift = data.draw(st.sampled_from([-0.5, 1e-4, 2e-3]))
    slope = data.draw(st.sampled_from([0.0, 1.0]))
    region = field.regions[k]

    def coeffs(p):
        *rest, d0, d1 = region.coeffs(p)
        return (*rest, d0 + shift * (1.0 + slope * region.anchor), d1 + shift * slope)

    mutated = dataclasses.replace(region, coeffs=coeffs)
    field = dataclasses.replace(field, regions=field.regions[:k] + (mutated,)
                                + field.regions[k + 1:])
    result = check_divergence_and_flux(field, cfg)
    assert result.status == "fail"
    assert result.n_violations >= 2 * np.count_nonzero((ridx == k).any(axis=1))
    assert "div" in {v.axiom for v in result.violations}
    div, _, scale = grid_divergence(field, P, T)
    assert np.max(div) <= result.meta["div_worst"] + ulps * (1.0 + np.max(scale))


def test_grid_doubling_keeps_the_verdict():
    field = ball_field()
    for res in (64, 128):
        cfg = VerifyConfig(pos_res=res, t_res=res, pair_res=res)
        report = verify_all(field, config=cfg)
        assert report.passed, report.summary_table()


def test_divergence_modes_agree_on_a_smooth_field():
    # the stretch-end check and the divergence at every grid point with a
    # central difference of psi along pos both pass
    field = build_field_indicator_const(2, 0.3, 0.4)
    cfg = VerifyConfig(pos_res=64, t_res=64, pair_res=64)
    report = verify_all(field, config=cfg)
    assert report.passed, report.summary_table()
    assert report.results["divflux"].meta["div_worst"] <= cfg.tol_div
    P, T = np.linspace(*field.pos_range, 64)[:, None], np.linspace(0.0, field.t_max, 64)[None, :]
    dpsi, ok = central_difference(field, P, T, 1e-3)
    div, valid, _ = grid_divergence(field, P, T, dpsi)
    assert ok.sum() == 62 * 64
    assert np.max(div, where=ok & valid, initial=0.0) <= cfg.tol_div


def test_axioms_classify_each_grid_once(monkeypatch):
    field = ball_field()
    cfg = VerifyConfig(pos_res=32, t_res=32, pair_res=32)
    grid = cfg.pos_res * cfg.t_res
    passes = []
    sample = PiecewiseField._sample

    def counting(self, pos, t, *quantities, **options):
        out = sample(self, pos, t, *quantities, **options)
        passes.append(out[0].size)
        return out

    monkeypatch.setattr(PiecewiseField, "_sample", counting)
    result = check_divergence_and_flux(field, cfg)
    # the divergence reads both ends of each region's stretch of every fibre
    ends = result.meta["n_div_checked"] + result.meta["n_div_skipped"]
    assert ends == 2 * cfg.pos_res * len(field.regions)
    assert 2 * cfg.pos_res <= result.meta["n_div_checked"] < ends
    # one pass for the one block, one for both sides of every interface
    flux_points = 2 * sum(cfg.pos_res if i.kind == "graph" else cfg.t_res
                          for i in field.interfaces)
    assert passes == [grid, flux_points]

    # axiom (b) samples Psi once on the pos x pair grid: each region top
    # runs once, on the positions only
    seen = []

    def counted(region):
        def top(pos):
            seen.append((region.name, np.size(pos)))
            return region.top(pos)
        return dataclasses.replace(region, top=top)

    field = dataclasses.replace(field, regions=tuple(counted(r) for r in field.regions))
    passes.clear()
    check_condition_b(field, 2.0, cfg)
    assert passes == [grid]
    assert seen == [(r.name, cfg.pos_res) for r in field.regions]

    # and still once per pass, on every position, when the pass takes
    # blocks of 8 fibres
    monkeypatch.setattr(verifier, "_BLOCK_POINTS", 8 * cfg.t_res)
    for check in (lambda: check_condition_b(field, 2.0, cfg),
                  lambda: check_condition_a(field, cfg)):
        passes.clear()
        seen.clear()
        check()
        assert passes == [8 * cfg.t_res] * 4
        assert seen == [(r.name, cfg.pos_res) for r in field.regions]


def test_each_region_runs_its_coefficients_once_a_grid_pass(monkeypatch):
    # the pass's table gives the runs, the Psi trapezoids and the stretches
    # the divergence reads their coefficients from one call a region, in one
    # block or in several; the flux check samples its own points
    calls = []

    def counted(region):
        def coeffs(pos):
            calls.append(region.name)
            return region.coeffs(pos)
        return dataclasses.replace(region, coeffs=coeffs)

    field = ball_field()
    field = dataclasses.replace(field, regions=tuple(counted(r) for r in field.regions))
    monkeypatch.setattr(verifier, "_flux", lambda field, config: ((0, config.tol_flux, []), 0.0))
    for axioms, fibres in ((("a", "b", "divflux"), 64), (("divflux",), 64), (("b",), 8),
                           (("a", "b", "divflux"), 8)):
        monkeypatch.setattr(verifier, "_BLOCK_POINTS", fibres * 64)
        calls.clear()
        verify_all(field, config=VerifyConfig(pos_res=64, t_res=64, axioms=axioms))
        assert sorted(calls) == sorted(r.name for r in field.regions), (axioms, fibres)


def criterion_8_ball():
    # beta = 1.3 < 3/2: 2,384 axiom (b) violations at 512 samples
    n, beta, R = 2, 1.3, 1.08
    return build_field_ball_harmonic(n, beta, math.sqrt(robin_bracket(n, beta, R)), R,
                                     enforce_beta=False)


def planted_box():
    # phi_t pushed down by 10 on a box of 11 x 3 nodes of the 96 x 96 grid
    field = ball_field()
    pos = np.linspace(*field.pos_range, 96)
    t = np.linspace(0.0, field.t_max, 96)
    return perturb_phi_t(field, pos[40], t[50], -10.0, 5.5 * (pos[1] - pos[0]),
                         1.5 * (t[1] - t[0]))


BLOCK_CASES = {
    "criterion-8 ball": lambda: (criterion_8_ball(),
                                 VerifyConfig(pos_res=512, t_res=512, pair_res=512)),
    "criterion-8 ball, capped": lambda: (criterion_8_ball(), VerifyConfig(
        pos_res=512, t_res=512, pair_res=512, axioms=("b",), max_recorded=1000)),
    "planted (a) defect": lambda: (planted_box(), VerifyConfig(
        pos_res=96, t_res=96, pair_res=96, axioms=("a",), max_recorded=20)),
    "divflux": lambda: (ball_field(), VerifyConfig(
        pos_res=96, t_res=96, pair_res=96, axioms=("divflux",))),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_blocks_of_fibres_leave_the_report_unchanged(case, monkeypatch):
    field, cfg = BLOCK_CASES[case]()

    def outcome():
        report = verify_all(field, config=cfg)
        return report.to_json(), {key: [repr(v) for v in result.violations]
                                  for key, result in report.results.items()}

    expected = outcome()
    counted = {key: r["n_violations"] for key, r in json.loads(expected[0])["results"].items()}
    recorded = {key: len(v) for key, v in expected[1].items()}
    if case == "criterion-8 ball":
        assert recorded["b"] == counted["b"] == 2384
    elif case == "criterion-8 ball, capped":
        assert recorded["b"] == 1000 < counted["b"]
    elif case == "planted (a) defect":
        assert recorded["a"] == 20 < counted["a"] == 33
    # one fibre a block, then three and seven, which divide no resolution here
    for fibres in (1, 3, 7):
        monkeypatch.setattr(verifier, "_BLOCK_POINTS", fibres * cfg.t_res)
        assert outcome() == expected, fibres


def test_verify_all_samples_each_block_once(monkeypatch):
    field = ball_field()
    cfg = VerifyConfig(pos_res=40, t_res=32, pair_res=32)
    passes = []
    sample = PiecewiseField._sample

    def counting(self, pos, t, *quantities, **options):
        out = sample(self, pos, t, *quantities, **options)
        passes.append((np.shape(pos), np.shape(t), quantities))
        return out

    monkeypatch.setattr(PiecewiseField, "_sample", counting)
    monkeypatch.setattr(verifier, "_BLOCK_POINTS", 16 * cfg.t_res)
    verify_all(field, config=cfg)
    grid = [p for p in passes if p[1] == (1, cfg.t_res)]
    assert [p[0] for p in grid] == [(16, 1), (16, 1), (8, 1)]
    assert all(set(p[2]) == {"psi", "phi_t", "Psi"} for p in grid)


def test_perturbation_is_localized_to_one_node():
    field = ball_field()
    cfg = VerifyConfig(pos_res=128, t_res=128, axioms=("a",))
    assert verify_all(field, config=cfg).passed

    pos_nodes = np.linspace(1.0, 4.0, 128)
    t_nodes = np.linspace(0.0, 1.0, 128)
    pos0, t0 = float(pos_nodes[8]), float(t_nodes[89])
    bad = perturb_phi_t(field, pos0, t0, -2e-9,
                        pos_halfwidth=0.005, t_halfwidth=0.002)
    report = verify_all(bad, config=cfg)
    assert not report.passed
    violations = report.results["a"].violations
    assert len(violations) == 1
    assert violations[0].location == (pos0, t0)
    assert violations[0].residual == pytest.approx(-2e-9, rel=1e-3)


def test_perturbation_below_tolerance_stays_quiet():
    field = ball_field()
    cfg = VerifyConfig(pos_res=64, t_res=64, axioms=("a",), tol_a=1e-6)
    bad = perturb_phi_t(field, 1.2, 0.7, -2e-9, 0.05, 0.05)
    assert verify_all(bad, config=cfg).passed


def test_report_serialization_and_summary():
    field = limit_field()
    report = verify_all(field, config=VerifyConfig(pos_res=32, t_res=32,
                                                   pair_res=32))
    doc = json.loads(report.to_json())
    assert doc["field_kind"] == "1d"
    assert doc["passed"] is True
    assert set(doc["results"]) == {"a", "b", "a_prime", "b_prime", "divflux"}
    for entry in doc["results"].values():
        assert entry["status"] == "pass"
    table = report.summary_table()
    assert "overall: pass" in table
    for name in ("a", "b", "a_prime", "b_prime", "divflux"):
        assert name in table


def test_infeasible_report():
    report = VerificationReport.infeasible("certificate needs beta >= n - 1/2",
                                           kind="ball-harmonic")
    assert not report.passed
    assert report.violation_count() == 0
    assert "construction failed" in report.summary_table()
    doc = json.loads(report.to_json())
    assert doc["construction_error"].startswith("certificate needs")


def test_explicit_calibrated_function_overrides_default():
    field = limit_field()
    wrong = CalibratedFunction(
        value=lambda x: np.full_like(np.asarray(x, dtype=float), 0.9),
        grad=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        jumps=())
    cfg = VerifyConfig(pos_res=32, t_res=32, pair_res=32, axioms=("graph",))
    report = verify_all(field, calibrated=wrong, config=cfg)
    assert report.results["a_prime"].status == "fail"
    assert report.results["b_prime"].status == "pass"


def test_violation_listing_is_capped_in_json():
    field = build_field_ball_harmonic(2, 1.3, 0.62934651086470002, 1.08,
                                      enforce_beta=False)
    cfg = VerifyConfig(pos_res=128, t_res=128, pair_res=128, axioms=("b",))
    report = verify_all(field, config=cfg)
    assert not report.passed
    n = report.violation_count("b")
    assert n > 0
    doc = json.loads(report.to_json())
    assert doc["results"]["b"]["n_violations"] == n
    assert len(doc["results"]["b"]["violations"]) <= 50


@pytest.mark.xfail(strict=True, reason="known defect: the fixed offset 1e-9 in t misreads "
                   "the graph flux by (1e-9 K(r))^2 near r = 1, where K(r) ~ 1/(r - 1)")
def test_ball_flux_checks_out_near_the_unit_sphere():
    # R - 1 = 2e-4: the first graph point lies 2e-8 from r = 1, where K(r) ~ 5e7;
    # the flux residual there reads 2.6e-3 against tol_flux = 1e-5
    field = build_field_ball_harmonic(3, 2.921875, 1.640625, 1.0001973974490945)
    cfg = VerifyConfig(pos_res=64, t_res=64, pair_res=64)
    assert check_divergence_and_flux(field, cfg).status == "pass"
