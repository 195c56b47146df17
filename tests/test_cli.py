"""End-to-end tests of the command line interface."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from calx.cli import main
from calx.energy import critical_radii
from calx.potentials import gamma
from calx.verifier import VerifyConfig

FROZEN_CRITICAL_RADII = (1.21447196960909539611985, 1.67947004206913789542485)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_energy_curve_csv_with_sidecar(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    argv = ["energy-curve", "--n", "2", "--beta", "1", "--gamma", "0.34",
            "--rmax", "10", "--samples", "64", "--out", str(out)]
    code, _, err = run(capsys, argv)
    assert code == 0 and err == ""
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "R,E,dE_dR"
    assert len(lines) == 65
    first = lines[1].split(",")
    assert float(first[0]) == 1.0

    meta = json.loads((tmp_path / "curve.csv.json").read_text())
    assert meta["n"] == 2 and meta["beta"] == 1.0
    assert len(meta["critical_radii"]) == 2
    for got, want in zip(meta["critical_radii"], FROZEN_CRITICAL_RADII):
        assert got == pytest.approx(want, abs=1e-8)
    assert meta["grid_best_R"] == 1.0

    # reruns are reproducible byte for byte
    text = out.read_text()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_text() == text


def test_energy_curve_json_stdout(capsys):
    code, out, err = run(capsys, ["energy-curve", "--n", "1", "--beta", "2",
                                  "--gamma", "0.5", "--rmax", "4",
                                  "--samples", "31", "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["columns"] == ["R", "E", "dE_dR"]
    assert len(doc["rows"]) == 31
    assert doc["rows"][0][0] == 1.0
    assert doc["critical_radii"] == [pytest.approx(2.5, abs=1e-9)]


def test_energy_curve_lists_the_roots_within_the_float_range(capsys):
    # the root past the bracket's peak lies past the float range; R = 20 does not
    code, out, err = run(capsys, ["energy-curve", "--n", "3", "--beta", "0.1",
                                  "--gamma", "1e-320", "--rmax", "30", "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["critical_radii"] == [pytest.approx(20.0, abs=1e-12)]


def test_usage_errors_exit_with_two(capsys):
    code, _, err = run(capsys, ["energy-curve", "--n", "2", "--gamma", "0.4"])
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, ["energy-curve", "--n", "2", "--beta", "1",
                                "--gamma", "0.4", "--rmax", "0.5"])
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_check_certifies_the_ball_field(capsys):
    code, out, err = run(capsys, ["check", "ball-harmonic", "--n", "2",
                                  "--beta", "2", "--R", "2",
                                  "--samples", "48"])
    assert code == 0, err
    assert "gamma =" in out
    assert "critical-radius identity" in out
    assert "overall: pass" in out


def test_check_reports_infeasible_construction(capsys):
    code, out, _ = run(capsys, ["check", "ball-harmonic", "--n", "2",
                                "--beta", "2", "--gamma", "0.3", "--R", "2"])
    assert code == 1
    assert "construction failed" in out

    code, out, _ = run(capsys, ["check", "harmonic", "--m", "0",
                                "--M", "1", "--beta", "1"])
    assert code == 1
    assert "jump-energy test violated" in out


def test_check_flags_uncertified_grid_runs(capsys):
    # beta below the monotonicity threshold: the construction is built
    # and scanned, a violation shows up, and the run is not a certificate
    code, out, _ = run(capsys, ["check", "ball-harmonic", "--n", "2",
                                "--beta", "1.3", "--R", "1.08",
                                "--samples", "64"])
    assert code == 1
    assert "below n - 1/2" in out


def test_check_json_format(capsys):
    code, out, _ = run(capsys, ["check", "harmonic", "--m", "0.8", "--M", "1",
                                "--beta", "3", "--samples", "32",
                                "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert set(doc["results"]) == {"a", "b", "a_prime", "b_prime", "divflux"}
    assert doc["grid"]["certified"] is True
    assert doc["grid"]["notes"] == []


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "beta": 0.3, "gamma": 0.4,
                               "samples": 32}))
    code, out, _ = run(capsys, ["check", "indicator-const",
                                "--config", str(cfg)])
    assert code == 0
    assert "overall: pass" in out

    # a flag beats the config file: dropping gamma below beta breaks
    # the construction hypothesis
    code, out, _ = run(capsys, ["check", "indicator-const",
                                "--config", str(cfg), "--gamma", "0.2"])
    assert code == 1
    assert "construction failed" in out


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run(capsys, ["check", "indicator-const",
                                "--config", str(bad)])
    assert code == 2
    assert "JSON object" in err
    code, _, err = run(capsys, ["check", "indicator-const",
                                "--config", str(tmp_path / "missing.json")])
    assert code == 2


DESCRIBE_CASES = {
    "1d": ["--m", "0.8", "--M", "1", "--beta", "3"],
    "harmonic": ["--n", "2", "--beta", "0.5", "--R", "2"],
    "indicator-const": ["--n", "2", "--beta", "0.3", "--gamma", "0.4"],
    "indicator-two-piece": ["--n", "2", "--beta", "1", "--gamma", "0.4"],
    "ball-harmonic": ["--n", "2", "--beta", "2", "--R", "2"],
}


@pytest.mark.parametrize("kind", sorted(DESCRIBE_CASES))
def test_describe_emits_field_json(kind, capsys):
    # region names, conditions, formulas and interfaces as calx 0.1.0 printed them
    with open(Path(__file__).with_name("describe_expected.json")) as handle:
        expected = json.load(handle)[kind]
    code, out, _ = run(capsys, ["describe", kind] + DESCRIBE_CASES[kind])
    assert code == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_describe_reports_infeasible_construction(capsys):
    code, _, err = run(capsys, ["describe", "1d", "--m", "0", "--M", "1",
                                "--beta", "1"])
    assert code == 1
    assert err.startswith("infeasible:")

    # the same wording as `check` when no gamma fits the critical-radius identity
    code, _, err = run(capsys, ["describe", "ball-harmonic", "--n", "3",
                                "--beta", "1", "--R", "1.5"])
    assert code == 1
    assert "(beta^2 - (n-1) beta / R = -0.333333 < 0)" in err


def test_phase_diagram_regimes(tmp_path, capsys):
    out = tmp_path / "phases.csv"
    code, _, _ = run(capsys, ["phase-diagram", "--n", "2",
                              "--beta", "0.3:1.5:3", "--gamma", "0.2:0.5:2",
                              "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "beta,gamma,regime"
    assert len(lines) == 7
    cells = {}
    for line in lines[1:]:
        b, g, regime = line.split(",")
        cells[(round(float(b), 9), round(float(g), 9))] = regime
    assert cells[(0.3, 0.2)] == "indicator-by-monotonicity"
    assert cells[(0.3, 0.5)] == "indicator-by-beta-le-gamma"
    assert cells[(0.9, 0.2)] == "undetermined"
    assert cells[(1.5, 0.2)] == "harmonic-certified"
    allowed = {"indicator-by-monotonicity", "indicator-by-beta-le-gamma",
               "harmonic-certified", "undetermined"}
    assert set(cells.values()) <= allowed


def test_phase_diagram_scalar_specs(tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, _, _ = run(capsys, ["phase-diagram", "--n", "2", "--beta", "0.3",
                              "--gamma", "0.5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith("indicator-by-beta-le-gamma")


def test_threads_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("CALX_THREADS", "2")
    code, out, _ = run(capsys, ["check", "harmonic", "--m", "0.8", "--M", "1",
                                "--beta", "3", "--samples", "32"])
    assert code == 0
    assert "overall: pass" in out

    monkeypatch.setenv("CALX_THREADS", "many")
    code, _, err = run(capsys, ["check", "harmonic", "--m", "0.8", "--M", "1",
                                "--beta", "3"])
    assert code == 2
    assert "CALX_THREADS" in err


@pytest.mark.parametrize("argv", [
    ["check", "indicator-const", "--n", "2", "--beta", "nan", "--gamma", "0.4"],
    ["check", "indicator-two-piece", "--n", "2", "--beta", "1", "--gamma", "inf"],
    ["check", "ball-harmonic", "--n", "2", "--beta", "2", "--R", "2", "--gamma=-inf"],
    ["check", "harmonic", "--m", "0.8", "--M", "nan", "--beta", "3"],
    ["energy-curve", "--n", "2", "--beta", "nan", "--gamma", "0.4"],
    ["energy-curve", "--n", "2", "--beta", "1", "--gamma", "0.4", "--rmax", "inf"],
    ["phase-diagram", "--n", "2", "--beta", "nan:1:3", "--gamma", "0.4"],
    ["phase-diagram", "--n", "2", "--beta", "1", "--gamma", "0:inf:3"],
    ["phase-diagram", "--n", "2", "--beta", "inf", "--gamma", "0.4"],
    ["describe", "indicator-const", "--n", "2", "--beta", "0.3", "--gamma", "nan"],
])
def test_non_finite_numbers_are_usage_errors(argv, capsys):
    code, out, err = run(capsys, argv + ["--samples", "16"] if argv[0] == "check" else argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("argv", [
    ["check", "ball-harmonic", "--n", "3", "--beta", "3", "--R", "1e200", "--samples", "16"],
    ["describe", "ball-harmonic", "--n", "3", "--beta", "3", "--R", "1e200"],
    ["check", "indicator-two-piece", "--n", "2", "--beta", "1e308", "--gamma", "0.5",
     "--samples", "16"],
    ["phase-diagram", "--n", "2", "--beta", "1e200", "--gamma", "0.5"],
    ["phase-diagram", "--n", "0", "--beta", "1", "--gamma", "0.5"],
    ["energy-curve", "--n", "0", "--beta", "1", "--gamma", "0.5"],
    ["energy-curve", "--n", "11", "--beta", "1", "--gamma", "0.5"],
    ["check", "ball-harmonic", "--n", "2", "--beta", "2", "--R", "1e300", "--samples", "16"],
])
def test_out_of_range_dimensions_and_overflowing_numbers_are_usage_errors(argv, capsys):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    # `check` and `describe` name the option that overflows, with its value
    huge = [(flag, float(value)) for flag, value in zip(argv, argv[1:])
            if flag in ("--R", "--beta") and float(value) > 1e100]
    if argv[0] != "phase-diagram" and huge:
        assert err.startswith("error: {} {!r} is out of range".format(*huge[0])), err


@pytest.mark.parametrize("n, R", [(1, "1e200"), (2, "1e90")])
def test_huge_radii_whose_terms_stay_in_float_range_are_checked(n, R, capsys):
    # the ball field forms 2R for n = 1 and R^(2n-2) gamma(R) for n >= 2
    code, out, err = run(capsys, ["check", "ball-harmonic", "--n", str(n), "--beta", str(n),
                                  "--R", R, "--samples", "64", "--format", "json"])
    assert code == 0 and err == ""
    assert json.loads(out)["passed"]


def test_non_finite_config_values_are_usage_errors(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 2, "beta": NaN, "gamma": 0.4}')
    code, _, err = run(capsys, ["check", "indicator-const", "--config", str(cfg)])
    assert code == 2 and "finite" in err


@pytest.mark.parametrize("rmax", ["2", "100"])
def test_phase_diagram_label_does_not_depend_on_rmax(rmax, capsys):
    # phase-diagram takes no search range
    with pytest.raises(SystemExit) as exc:
        main(["phase-diagram", "--n", "3", "--beta", "0.1", "--gamma", "0", "--rmax", rmax])
    assert exc.value.code == 2
    capsys.readouterr()
    # the bracket is positive only past r = (n-1)/beta = 20
    code, out, _ = run(capsys, ["phase-diagram", "--n", "3", "--beta", "0.1", "--gamma", "0"])
    assert code == 0
    assert out == "beta,gamma,regime\n0.10000000000000001,0,undetermined\n"
    code, _, _ = run(capsys, ["check", "indicator-two-piece", "--n", "3",
                              "--beta", "0.1", "--gamma", "0", "--samples", "16"])
    assert code == 1
    # the only critical radius is R = 19.46, past the scan range [1, 10] of earlier versions
    code, out, _ = run(capsys, ["phase-diagram", "--n", "1", "--beta", "0.65", "--gamma", "0.05"])
    assert code == 0
    assert out == "beta,gamma,regime\n0.65000000000000002,0.050000000000000003,harmonic-certified\n"


# `check` kind that reproduces each indicator label of `phase-diagram`
_LABEL_CHECKS = {"indicator-by-beta-le-gamma": "indicator-const",
                 "indicator-by-monotonicity": "indicator-two-piece"}


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_ball_at_the_largest_critical_radius(n, beta, gamma_):
    args = ["--n", str(n), "--beta", repr(beta), "--gamma", repr(gamma_)]
    # only a gamma this small puts the radius, or the terms in it the field
    # forms, past the float range
    beyond_floats = gamma_ < 1e-60
    roots = critical_radii(n, beta, gamma_)
    if not roots:
        assert beyond_floats
        return
    R = roots[-1]
    argv = ["check", "ball-harmonic", "--R", repr(R)] + args + ["--samples", "64", "--format", "json"]
    # Known defect: the flux check's offset 1e-9 in t misreads the graph flux by
    # (1e-9 K)^2, K = 1/(r^(n-1) gamma(r)) ~ 1/(r - 1), at its first point
    # r1 = 1 + 1e-4 (R - 1).  Where that exceeds tol_flux the check must fail:
    # divflux fails, numpy warns where r1 rounds to 1, the support-sphere flux
    # steps inside r = 1 (exit 2) for R within about 1e-9 of 1, and R = 1 is
    # the two-piece construction.
    r1 = 1.0 + 1e-4 * (R - 1.0)
    scale = r1 ** (n - 1) * gamma(n, r1)
    if scale == 0.0 or (1e-9 / scale) ** 2 > VerifyConfig().tol_flux:
        with np.errstate(all="ignore"):
            code, out, _ = _main_output(argv)
        assert code != 0, (R, out)
        return
    code, out, err = _main_output(argv)
    if code == 2:
        assert beyond_floats and err.startswith("error: --R {!r} is out of range".format(R))
    else:
        assert code == 0 and json.loads(out)["passed"], (R, out)


# the largest critical radius lies 5.5e-5, 5e-14 and 0 past r = 1, and past
# the float range
@example(n=2, beta=1.9, gamma_=1.3075723188279345)
@example(n=4, beta=4.0, gamma_=1.9999999999998)
@example(n=4, beta=4.0, gamma_=1.9999999999999998)
@example(n=1, beta=0.65, gamma_=1e-320)
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 4), beta=st.floats(0.02, 4.0), gamma_=st.floats(0.0, 2.0))
def test_phase_diagram_labels_are_reproduced_by_check(n, beta, gamma_):
    args = ["--n", str(n), "--beta", repr(beta), "--gamma", repr(gamma_)]
    code, out, _ = _main_output(["phase-diagram"] + args)
    assert code == 0
    label = out.splitlines()[1].split(",")[2]
    kind = _LABEL_CHECKS.get(label, "indicator-two-piece")
    code, out, _ = _main_output(["check", kind] + args + ["--samples", "64", "--format", "json"])
    report = json.loads(out)
    if label in _LABEL_CHECKS:
        assert code == 0 and report["passed"], (label, report)
    else:
        # beta > gamma, and the bracket exceeds gamma^2 somewhere on [1, inf)
        assert beta > gamma_
        assert code == 1 and report["construction_error"], (label, report)
    if label == "harmonic-certified":
        _check_ball_at_the_largest_critical_radius(n, beta, gamma_)
