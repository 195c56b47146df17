"""End-to-end tests of the command line interface."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import calx
from calx import cli, verifier
from calx.cli import main
from calx.energy import critical_radii
from calx.potentials import gamma
from calx.verifier import VerifyConfig

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))
from workloads import REFUTE_CELLS, check_argv  # noqa: E402

FROZEN_CRITICAL_RADII = (1.21447196960909539611985, 1.67947004206913789542485)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_calx_and_its_cli_import_no_scipy():
    code = "import sys, calx, calx.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    env = dict(os.environ, PYTHONPATH=str(Path(calx.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout == "[]\n"


def test_a_check_does_not_load_numpy_ma():
    # importing numpy.ma is a cost every fresh `calx check` process would pay
    code = ("import sys, contextlib, io; from calx.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['check', 'ball-harmonic', '--n', '2', '--beta', '1.3', '--R', '1.08',"
            " '--samples', '64', '--format', 'json'])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(calx.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout == "1 False\n"


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
    assert out == "construction failed: jump-energy test violated: 0.75 > 0.25\n"

    # the JSON report keeps where the hypothesis failed and its numbers
    code, out, _ = run(capsys, ["check", "indicator-two-piece", "--n", "2", "--beta", "1",
                                "--gamma", "0.34", "--format", "json"])
    doc = json.loads(out)
    assert code == 1 and doc["construction_error"].startswith("monotonicity certificate fails")
    assert doc["construction_location"] > 1.0
    assert set(doc["construction_details"]) == {"excess", "gamma"}
    assert doc["construction_details"]["gamma"] == 0.34
    assert doc["construction_details"]["excess"] > 0.0
    # a violation raised without them
    code, out, _ = run(capsys, ["check", "ball-harmonic", "--n", "3", "--beta", "1", "--R", "1.5",
                                "--format", "json"])
    doc = json.loads(out)
    assert (code, doc["construction_location"], doc["construction_details"]) == (1, None, {})


def test_check_flags_uncertified_grid_runs(capsys):
    # beta below the monotonicity threshold: the construction is built
    # and scanned, a violation shows up, and the run is not a certificate
    code, out, _ = run(capsys, ["check", "ball-harmonic", "--n", "2",
                                "--beta", "1.3", "--R", "1.08",
                                "--samples", "64"])
    assert code == 1
    assert "below n - 1/2" in out


def test_check_flags_an_uncertified_construction_whose_grid_checks_pass(capsys):
    # beta below n - 1/2 at a critical radius where every group passes: the run
    # exits 1, says why in text, and reads passed but not certified in JSON
    argv = ["check", "ball-harmonic", "--n", "2", "--beta", "1.2", "--R", "2.2411381602068765",
            "--samples", "64"]
    code, out, _ = run(capsys, argv)
    lines = out.splitlines()
    assert code == 1
    assert lines[1] == ("note: beta = 1.2 is below n - 1/2 = 1.5; the monotonicity hypothesis "
                        "fails, grid results are empirical only")
    assert lines[-2:] == ["overall: pass", "grid checks passed but the construction is "
                          "outside the certified hypotheses"]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    doc = json.loads(out)
    assert (code, doc["passed"], doc["grid"]["certified"]) == (1, True, False)


def test_divergence_mode_option_is_gone(capsys):
    # the divergence has one mode, exact at the stretch ends
    for mode in ("auto", "fd"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "indicator-const", "--n", "2", "--beta", "0.3", "--gamma", "0.4",
                  "--divergence-mode", mode])
        assert exc.value.code == 2
    assert "--divergence-mode" in capsys.readouterr().err


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


@pytest.mark.parametrize("key, value", [("sampels", 32), ("divergence_mode", "fd"),
                                        ("kind", "1d"), ("config", "other.json")])
def test_unknown_config_keys_are_usage_errors(key, value, tmp_path, capsys):
    # a key that no flag of the command reads, a misspelt or a removed one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "beta": 0.3, "gamma": 0.4, key: value}))
    code, out, err = run(capsys, ["check", "indicator-const", "--config", str(cfg)])
    assert (code, out, err) == (2, "", "error: unknown option in config: {}\n".format(key))


# every option of every subcommand with a value it accepts, by config key,
# after the subcommand's positional arguments
FLAG_VALUES = {
    "energy-curve": ([], {"n": 2, "beta": 1, "gamma": 0.34, "rmax": 3, "samples": 8,
                          "format": "json", "out": "curve.json"}),
    "check": (["1d"], {"m": 0.8, "M": 1, "beta": 3, "n": 2, "gamma": 0.4, "R": 2,
                       "samples": 16, "tol_a": 1e-9, "tol_b": 1e-9, "tol_div": 1e-5,
                       "tol_flux": 1e-5, "tol_graph": 1e-9, "format": "json"}),
    "describe": (["1d"], {"m": 0.8, "M": 1, "beta": 3, "n": 2, "gamma": 0.4, "R": 2}),
    "phase-diagram": ([], {"n": 2, "beta": "0.5:1:2", "gamma": "0.1:0.4:2", "out": "phase.csv"}),
}


def documented_flags():
    """``(command, key)`` for every flag of every subcommand but ``--config``."""
    subcommands = next(action.choices for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    return [(command, action.dest) for command, sub in sorted(subcommands.items())
            for action in sub._actions if action.option_strings
            and action.dest not in ("help", "config")]


@pytest.mark.parametrize("command, key", documented_flags())
def test_every_documented_flag_is_accepted_from_a_config_file(command, key, tmp_path, capsys):
    # the key moved from the command line into a config file gives the same run
    positional, values = FLAG_VALUES[command]
    values = {k: str(tmp_path / v) if k == "out" else v for k, v in values.items()}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: values[key]}))
    runs = []
    for config in ([], ["--config", str(cfg)]):
        argv = [command] + positional + config
        for name, value in values.items():
            if not (config and name == key):
                argv.append("--{}={}".format(name.replace("_", "-"), value))
        code, out, err = run(capsys, argv)
        written = Path(values["out"]).read_text() if "out" in values else None
        runs.append((code, out, err, written))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0]


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


# `check` of every registry kind, `harmonic` over both of its profiles, and an
# infeasible build
CHECK_CASES = {
    "1d": ["1d", "--m", "0.8", "--M", "1", "--beta", "3"],
    "harmonic-affine": ["harmonic", "--m", "0.8", "--M", "1", "--beta", "3"],
    "harmonic-radial-shell": ["harmonic", "--n", "2", "--beta", "2", "--R", "2"],
    "indicator-const": ["indicator-const", "--n", "2", "--beta", "0.3", "--gamma", "0.4"],
    "indicator-two-piece": ["indicator-two-piece", "--n", "2", "--beta", "1", "--gamma", "0.4"],
    "ball-harmonic": ["ball-harmonic", "--n", "2", "--beta", "2", "--R", "2"],
    "harmonic-infeasible": ["harmonic", "--m", "0", "--M", "1", "--beta", "1"],
}


@pytest.mark.parametrize("case", sorted(CHECK_CASES))
def test_check_emits_the_recorded_report(case, capsys):
    with open(Path(__file__).with_name("check_expected.json")) as handle:
        expected = json.load(handle)[case]
    code, out, err = run(capsys, ["check"] + CHECK_CASES[case] + ["--samples", "64",
                                                                  "--format", "json"])
    assert err == ""
    assert (code, json.loads(out)) == (expected["exit"], expected["report"])


def test_check_prints_integer_meta_as_json_integers(capsys):
    code, out, err = run(capsys, ["check"] + CHECK_CASES["ball-harmonic"] + ["--samples", "64",
                                                                          "--format", "json"])
    assert (code, err) == (0, "")
    kinds = {key: type(value) for result in json.loads(out)["results"].values()
             for key, value in result["meta"].items()}
    counts = {"pos_res", "t_res", "pair_res", "samples", "n_jumps", "n_div_checked",
              "n_div_skipped"}
    assert {key for key, kind in kinds.items() if kind is int} == counts
    assert {kinds[key] for key in kinds.keys() - counts} == {float}


def test_thin_shell_fails_on_its_flux_alone(capsys):
    # R = 1.001: next to the graph the exact slope of phi_t leaves the
    # divergence at rounding; the flux read 1e-9 off the graph still fails
    # there, the defect that the strict xfail in test_verifier pins
    code, out, err = run(capsys, ["check", "harmonic", "--n", "2", "--beta", "2", "--R", "1.001",
                                  "--samples", "1000", "--format", "json"])
    assert (code, err) == (1, "")
    results = json.loads(out)["results"]
    assert [key for key, result in results.items() if result["status"] != "pass"] == ["divflux"]
    divflux = results["divflux"]
    assert divflux["n_violations"] == 1
    assert [v["location"][0] for v in divflux["violations"]] == ["graph"]
    assert divflux["meta"]["div_worst"] <= 1e-9


# at 200 samples the grid splits into blocks of 163 and 37 fibres, which
# reuse the block buffers of the first
BLOCK_REUSE_CASES = {
    "ball-harmonic-200": CHECK_CASES["ball-harmonic"] + ["--samples", "200"],
    "indicator-two-piece-200": CHECK_CASES["indicator-two-piece"] + ["--samples", "200"],
}


@pytest.mark.parametrize("case", sorted(BLOCK_REUSE_CASES))
def test_check_reuses_block_buffers_without_changing_the_report(case, capsys):
    with open(Path(__file__).with_name("check_expected.json")) as handle:
        expected = json.load(handle)[case]
    code, out, err = run(capsys, ["check"] + BLOCK_REUSE_CASES[case] + ["--format", "json"])
    assert err == ""
    assert (code, json.loads(out)) == (expected["exit"], expected["report"])


@pytest.mark.parametrize("fibres", [1, 3, 5])
def test_check_reports_do_not_depend_on_the_block_size(fibres, monkeypatch, capsys):
    # at 64 samples: one fibre a block, then three and five, which do not divide 64
    monkeypatch.setattr(verifier, "_BLOCK_POINTS", 64 * fibres)
    with open(Path(__file__).with_name("check_expected.json")) as handle:
        expected = json.load(handle)
    for case, argv in sorted(CHECK_CASES.items()):
        code, out, err = run(capsys, ["check"] + argv + ["--samples", "64", "--format", "json"])
        assert err == ""
        assert (code, json.loads(out)) == (expected[case]["exit"], expected[case]["report"]), case


def test_a_large_check_keeps_its_peak_memory_small():
    # the grid pass samples blocks of at most 2^15 points, so the peak does
    # not grow with the 2048 x 2048 grid; sampling it whole peaks near 356 MB.
    # The child reads its own high-water mark, VmHWM: on Linux its ru_maxrss
    # starts at the peak of the process it was forked from
    code = ("import contextlib, io\n"
            "from calx.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['check', 'ball-harmonic', '--n', '2', '--beta', '2', '--R', '2',\n"
            "                 '--samples', '2048'])\n"
            "with open('/proc/self/status') as status:\n"
            "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
            "print(code, peak)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(calx.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    exit_code, peak_kb = done.stdout.split()
    assert exit_code == "0"
    assert int(peak_kb) / 1024.0 < 150.0


@pytest.mark.parametrize("kind, cell", REFUTE_CELLS)
def test_check_records_only_the_violations_it_prints(kind, cell, monkeypatch, capsys):
    # each group's recorded list is a prefix of its full one, so recording
    # every violation prints the same report
    argv = check_argv(kind, cell)
    want = run(capsys, argv)
    monkeypatch.setattr(cli, "VerifyConfig",
                        lambda **options: VerifyConfig(**{**options, "max_recorded": 10000}))
    assert run(capsys, argv) == want
    report = json.loads(want[1])
    if report["construction_error"] is None:  # the criterion-8 ball
        assert report["results"]["b"]["n_violations"] > verifier.PRINTED_VIOLATIONS


def test_the_parser_carries_no_state_between_calls(tmp_path, capsys):
    # the parser is built once per process: each call gives what a fresh
    # process gives, whatever ran before it, and the help text stays
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"samples": 16, "format": "json"}')
    cell = ["indicator-const", "--n", "2", "--beta", "0.3", "--gamma", "0.4"]
    calls = [["check"] + cell + ["--config", str(cfg)], ["describe"] + cell,
             ["check"] + cell + ["--samples", "16"]]

    def helps():
        texts = []
        for argv in (["--help"], ["check", "--help"], ["describe", "--help"]):
            with pytest.raises(SystemExit):
                main(argv)
            texts.append(capsys.readouterr())
        return texts

    before = helps()
    got = [run(capsys, argv) for argv in calls]
    env = dict(os.environ, PYTHONPATH=str(Path(calx.__file__).parents[1]))
    fresh = [subprocess.run([sys.executable, "-m", "calx.cli"] + argv, env=env,
                            capture_output=True, text=True, timeout=120) for argv in calls]
    assert got == [(done.returncode, done.stdout, done.stderr) for done in fresh]
    assert got[0][1] != got[2][1]  # the config's json format did not stay
    assert helps() == before
    assert cli._build_parser() is cli._build_parser()


_HELP = "show this help message and exit"
_CONFIG = "JSON file with default option values"
_FIELD_HELP = {"n": "space dimension", "beta": "jump weight", "gamma": "volume weight",
               "R": "support radius", "m": "lower boundary datum", "M": "upper boundary datum"}
# the help text of every flag, `--help` included, by (subcommand, dest); None
# stands for the parser itself, and a help of None for a flag without one
HELP_STRINGS = {
    (None, "help"): _HELP,
    ("energy-curve", "help"): _HELP, ("energy-curve", "config"): _CONFIG,
    ("energy-curve", "n"): None, ("energy-curve", "beta"): None, ("energy-curve", "gamma"): None,
    ("energy-curve", "rmax"): None, ("energy-curve", "samples"): None,
    ("energy-curve", "out"): None, ("energy-curve", "format"): None,
    ("check", "help"): _HELP, ("check", "config"): _CONFIG,
    **{("check", name): text for name, text in _FIELD_HELP.items()},
    ("check", "samples"): "grid resolution for every axis",
    ("check", "tol_a"): None, ("check", "tol_b"): None, ("check", "tol_div"): None,
    ("check", "tol_flux"): None, ("check", "tol_graph"): None, ("check", "format"): None,
    ("phase-diagram", "help"): _HELP, ("phase-diagram", "config"): _CONFIG,
    ("phase-diagram", "n"): None, ("phase-diagram", "beta"): "value or start:stop:count",
    ("phase-diagram", "gamma"): "value or start:stop:count", ("phase-diagram", "out"): None,
    ("describe", "help"): _HELP, ("describe", "config"): _CONFIG,
    **{("describe", name): text for name, text in _FIELD_HELP.items()},
}


def test_every_flag_keeps_its_help_text():
    parser = cli._build_parser()
    subcommands = next(action.choices for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    parsers = [(None, parser)] + sorted(subcommands.items())
    assert {(command, action.dest): action.help for command, sub in parsers
            for action in sub._actions if action.option_strings} == HELP_STRINGS


def test_check_and_describe_share_one_kind_registry(capsys):
    subcommands = next(action.choices for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    for command in ("check", "describe"):
        kind = next(a for a in subcommands[command]._actions if a.dest == "kind")
        assert tuple(kind.choices) == tuple(cli._FIELDS)
    # the gradient bound comes from the profile, not from an option
    with pytest.raises(SystemExit) as exc:
        main(["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3", "--sup-grad", "0.1"])
    assert exc.value.code == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("beta", ["1e-100", "1e-200"])
def test_phase_diagram_where_the_bracket_underflows(beta, capsys):
    # the bracket's supremum rounds to 0 here, so each gamma > 0 label is decided
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["phase-diagram", "--n", "3", "--beta", beta,
                                      "--gamma", "0.5"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",0.5,indicator-by-beta-le-gamma")


def test_energy_curve_where_the_bracket_peak_is_past_r_to_the_n_minus_1_overflow(capsys):
    # the bracket's supremum sits at r0 = 4e200 here, where r0^2 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, ["energy-curve", "--n", "3", "--beta", "1e-200",
                                      "--gamma", "0.5", "--samples", "4", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["critical_radii"] == []


def test_threads_env_variable(monkeypatch, capsys):
    # CALX_THREADS is no longer read: any value leaves the output alone
    argv = ["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3", "--samples", "32"]
    unset = run(capsys, argv)
    assert unset[0] == 0 and "overall: pass" in unset[1]
    for value in ("2", "many", "0"):
        monkeypatch.setenv("CALX_THREADS", value)
        assert run(capsys, argv) == unset


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
    # options the chosen kind does not read
    ["describe", "harmonic", "--m", "0", "--M", "2", "--beta", "1", "--R=-inf"],
    ["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3", "--gamma", "nan"],
    ["check", "harmonic", "--n", "2", "--beta", "2", "--R", "2", "--gamma", "inf"],
    ["check", "1d", "--m", "0.2", "--M", "0.9", "--beta", "1", "--R", "nan"],
    ["describe", "1d", "--m", "0.2", "--M", "0.9", "--beta", "1", "--gamma=-inf"],
    ["check", "indicator-const", "--n", "2", "--beta", "1", "--gamma", "0.4", "--R", "inf"],
    ["describe", "indicator-two-piece", "--n", "2", "--beta", "1", "--gamma", "0.4",
     "--m", "nan"],
    ["check", "indicator-two-piece", "--n", "2", "--beta", "1", "--gamma", "0.4", "--M=-inf"],
    ["check", "ball-harmonic", "--n", "2", "--beta", "2", "--R", "2", "--m", "inf"],
])
def test_non_finite_numbers_are_usage_errors(argv, capsys):
    code, out, err = run(capsys, argv + ["--samples", "16"] if argv[0] == "check" else argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err
    if argv[0] in ("check", "describe"):
        # the message names the option
        flags = [a.split("=") if "=" in a else [a, b] for a, b in zip(argv, argv[1:] + [""])
                 if a.startswith("--")]
        name = next(flag for flag, value in flags if not math.isfinite(float(value)))
        assert err.startswith("error: {} must be finite".format(name[2:])), err


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
    ["check", "ball-harmonic", "--n", "2", "--beta", "1e200", "--R", "2", "--samples", "16"],
    ["phase-diagram", "--n", "2", "--beta", "1:1e200:3", "--gamma", "0.5"],
    ["energy-curve", "--n", "2", "--beta", "1e200", "--gamma", "0.5"],
    ["energy-curve", "--n", "3", "--beta", "1", "--gamma", "0.3", "--rmax", "1e200",
     "--samples", "4", "--format", "json"],
    ["energy-curve", "--n", "3", "--beta", "1", "--gamma", "1e200"],
    ["energy-curve", "--n", "3", "--beta", "1", "--gamma", "1e90", "--rmax", "1e101"],
    ["energy-curve", "--n", "1", "--beta", "1e154", "--gamma", "0"],
    ["check", "harmonic", "--m", "0.8", "--M", "1e300", "--beta", "3"],
    ["describe", "1d", "--m", "0.8", "--M", "1e300", "--beta", "3"],
    ["check", "harmonic", "--beta", "1e200", "--m", "0", "--M", "1e150"],
    ["describe", "harmonic", "--beta", "1e200", "--m", "0", "--M", "1e150"],
    ["check", "1d", "--beta", "1e200", "--m", "0", "--M", "1e150"],
    ["check", "1d", "--beta", "1e100", "--m", "0", "--M", "1e150", "--samples", "16"],
])
def test_out_of_range_dimensions_and_overflowing_numbers_are_usage_errors(argv, capsys):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    # the option that overflows is named bare, with its value (a grid's largest)
    huge = [(flag[2:], float(value.split(":")[1] if ":" in value else value))
            for flag, value in zip(argv, argv[1:])
            if flag in ("--R", "--beta", "--rmax", "--gamma", "--M")]
    huge = [(name, value) for name, value in huge if value >= 1e100]
    if huge:
        name, value = huge[0]
        assert err.startswith("error: {} is out of range: ".format(name)), err
        assert err.endswith(" overflows a float, got {!r}\n".format(value)), err


@pytest.mark.parametrize("argv, name", [
    (["energy-curve", "--n", "2", "--gamma", "0.4"], "beta"),
    (["phase-diagram", "--n", "2", "--beta", "1"], "gamma"),
    (["check", "ball-harmonic", "--n", "2", "--beta", "2"], "R"),
    (["describe", "indicator-const", "--beta", "0.3", "--gamma", "0.4"], "n"),
])
def test_a_missing_option_is_a_usage_error_that_names_it_bare(argv, name, capsys):
    assert run(capsys, argv) == (2, "", "error: missing required option: {}\n".format(name))


@pytest.mark.parametrize("command", ["check", "describe"])
def test_reversed_traces_are_a_usage_error_that_says_so(command, capsys):
    for kind in ("1d", "harmonic"):
        code, out, err = run(capsys, [command, kind, "--m", "0.9", "--M", "0.5", "--beta", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: traces must satisfy") and err.endswith("m <= M\n"), err


def test_a_shell_trace_that_squares_to_zero_takes_no_multiplier(capsys):
    # the trace is about 2.5e-201, so m^2 underflows to 0
    code, out, err = run(capsys, ["describe", "harmonic", "--n", "1", "--beta", "2",
                                  "--R", "1e200"])
    assert code in (0, 1)
    assert "Traceback" not in err
    if code == 0:
        assert json.loads(out)["params"]["lambda"] == 0.0


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
    # also in an option the chosen kind does not read
    cfg.write_text('{"m": 0.8, "M": 1, "beta": 3, "R": -Infinity, "samples": 16}')
    code, out, err = run(capsys, ["check", "harmonic", "--config", str(cfg)])
    assert (code, out, err) == (2, "", "error: R must be finite, got -inf\n")


@pytest.mark.parametrize("argv, message", [
    # options the chosen kind does not read
    (["describe", "harmonic", "--m", "0", "--M", "0.5", "--beta", "1", "--gamma=-1"],
     "gamma must be nonnegative, got -1.0"),
    (["check", "1d", "--m", "0.2", "--M", "0.9", "--beta", "1", "--gamma=-1e-300"],
     "gamma must be nonnegative, got -1e-300"),
    # a zero beta, which the affine builders met only after their jump-energy test
    (["check", "harmonic", "--m", "0", "--M", "1", "--beta", "0"], "beta must be positive, got 0.0"),
    (["describe", "1d", "--m", "0.2", "--M", "0.9", "--beta=-0.0"],
     "beta must be positive, got -0.0"),
    (["energy-curve", "--n", "2", "--beta", "1", "--gamma=-0.5"],
     "gamma must be nonnegative, got -0.5"),
    # a dimension or a radius below 1, also where the chosen kind does not read it
    (["describe", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3", "--n", "0"],
     "n must be at least 1, got 0"),
    (["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3", "--n", "0"],
     "n must be at least 1, got 0"),
    (["describe", "indicator-const", "--n", "2", "--beta", "0.3", "--gamma", "0.4", "--R", "0.5"],
     "R must be at least 1, got 0.5"),
    (["check", "indicator-const", "--n", "2", "--beta", "0.3", "--gamma", "0.4", "--R", "0.5"],
     "R must be at least 1, got 0.5"),
])
def test_out_of_domain_signs_are_usage_errors(argv, message, capsys):
    code, out, err = run(capsys, argv + ["--samples", "16"] if argv[0] == "check" else argv)
    assert (code, out, err) == (2, "", "error: {}\n".format(message))


def test_sign_domains_in_config_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"m": 0.2, "M": 0.9, "beta": 0}')
    code, out, err = run(capsys, ["describe", "1d", "--config", str(cfg)])
    assert (code, out, err) == (2, "", "error: beta must be positive, got 0.0\n")
    # a signed zero gamma is zero, in domain
    code, want, _ = run(capsys, ["describe", "harmonic", "--n", "2", "--beta", "2", "--R", "1.5"])
    assert code == 0
    assert run(capsys, ["describe", "harmonic", "--n", "2", "--beta", "2", "--R", "1.5",
                        "--gamma=-0.0"]) == (0, want, "")


@pytest.mark.parametrize("argv, config, message", [
    # a fraction for an integer option, which its flag would not read
    (["describe", "indicator-const"], {"n": 2.5, "beta": 0.3, "gamma": 0.4},
     "invalid value for n: 2.5"),
    (["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3"], {"samples": 64.9},
     "invalid value for samples: 64.9"),
    # also where the chosen kind does not read it
    (["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3"], {"n": 1.5},
     "invalid value for n: 1.5"),
    # a boolean for an integer or a float option
    (["describe", "indicator-const"], {"n": True, "beta": 0.3, "gamma": 0.4},
     "invalid value for n: True"),
    (["check", "harmonic", "--m", "0.8", "--M", "1"], {"beta": True},
     "invalid value for beta: True"),
    (["describe", "1d", "--m", "0.8", "--M", "1", "--beta", "3"], {"gamma": False},
     "invalid value for gamma: False"),
    # the range errors of check name the option
    (["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3", "--samples", "8"], {},
     "samples must be at least 16, got 8"),
    (["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3", "--tol-a", "0"], {},
     "tol_a must be positive, got 0.0"),
    (["check", "harmonic", "--m", "0.8", "--M", "1", "--beta", "3"], {"tol_flux": -1e-9},
     "tol_flux must be positive, got -1e-09"),
])
def test_config_values_are_read_as_their_flags_read_text(argv, config, message, tmp_path,
                                                         capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, argv + ["--config", str(cfg)])
    assert (code, out, err) == (2, "", "error: {}\n".format(message))


# each subcommand with in-range values of the options a range case leaves alone
RANGE_BASES = {
    "energy-curve": ([], {"n": 2, "beta": 1, "gamma": 0.4, "samples": 4, "format": "json"}),
    "check": (["indicator-const"], {"n": 2, "beta": 0.3, "gamma": 0.4, "samples": 16}),
    "describe": (["ball-harmonic"], {"n": 2, "beta": 2, "R": 2}),
    "phase-diagram": ([], {"n": 2, "beta": 1, "gamma": 0.4}),
}
NAN = float("nan")
# every ranged option of every subcommand with a value out of its range, and
# the error line it gives
RANGE_CASES = [
    ("energy-curve", "n", 0, "n must be at least 1, got 0"),
    ("energy-curve", "beta", 0.0, "beta must be positive, got 0.0"),
    ("energy-curve", "gamma", -0.5, "gamma must be nonnegative, got -0.5"),
    ("energy-curve", "rmax", 0.5, "rmax must be greater than 1, got 0.5"),
    ("energy-curve", "samples", 1, "samples must be at least 2, got 1"),
    ("energy-curve", "format", "xml", "format must be csv or json, got 'xml'"),
    ("check", "n", 0, "n must be at least 1, got 0"),
    ("check", "beta", -1.0, "beta must be positive, got -1.0"),
    ("check", "gamma", -0.5, "gamma must be nonnegative, got -0.5"),
    ("check", "R", 0.5, "R must be at least 1, got 0.5"),  # which indicator-const does not read
    ("check", "samples", 8, "samples must be at least 16, got 8"),
    ("check", "tol_a", 0.0, "tol_a must be positive, got 0.0"),
    ("check", "tol_b", -1e-9, "tol_b must be positive, got -1e-09"),
    ("check", "tol_div", 0.0, "tol_div must be positive, got 0.0"),
    ("check", "tol_flux", -1.0, "tol_flux must be positive, got -1.0"),
    ("check", "tol_graph", 0.0, "tol_graph must be positive, got 0.0"),
    ("check", "format", "xml", "format must be text or json, got 'xml'"),
    ("describe", "n", 0, "n must be at least 1, got 0"),
    ("describe", "beta", 0.0, "beta must be positive, got 0.0"),
    ("describe", "gamma", -1.0, "gamma must be nonnegative, got -1.0"),
    ("describe", "R", 0.5, "R must be at least 1, got 0.5"),
    ("phase-diagram", "n", 0, "n must be at least 1, got 0"),
    ("phase-diagram", "beta", -1.0, "beta must be positive, got -1.0"),
    ("phase-diagram", "gamma", -0.5, "gamma must be nonnegative, got -0.5"),
    # each value of a grid
    ("phase-diagram", "beta", "0:1:3", "beta must be positive, got 0.0"),
    ("phase-diagram", "gamma", "-0.5:0.5:3", "gamma must be nonnegative, got -0.5"),
    # a NaN in an option the chosen kind does not read
    ("check", "R", NAN, "R must be finite, got nan"),
    ("check", "m", NAN, "m must be finite, got nan"),
    ("describe", "M", NAN, "M must be finite, got nan"),
]


@pytest.mark.parametrize("command, name, value, message", RANGE_CASES)
def test_range_rules_read_alike_from_a_flag_a_config_number_and_config_text(
        command, name, value, message, tmp_path, capsys):
    positional, base = RANGE_BASES[command]
    argv = [command] + positional + ["--{}={}".format(key.replace("_", "-"), v)
                                     for key, v in base.items() if key != name]
    cfg = tmp_path / "cfg.json"
    runs = [argv + ["--{}={}".format(name.replace("_", "-"), value)]]
    for config in ([value, str(value)] if isinstance(value, (int, float)) else [value]):
        cfg.write_text(json.dumps({name: config}))
        runs.append(argv + ["--config", str(cfg)])
    for run_argv in runs:
        assert run(capsys, run_argv) == (2, "", "error: {}\n".format(message)), run_argv


def test_integral_config_numbers_read_as_their_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 2.0, "samples": 64.0}')
    argv = ["check", "indicator-const", "--beta", "0.3", "--gamma", "0.4", "--format", "json"]
    want = run(capsys, argv + ["--n", "2", "--samples", "64"])
    assert want[0] == 0
    assert run(capsys, argv + ["--config", str(cfg)]) == want


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--n", "2", "--beta", "1", "--gamma", "0.4"],
    ["energy-curve", "--n", "2", "--beta", "1", "--gamma", "0.4", "--samples", "4"],
    ["energy-curve", "--n", "2", "--beta", "1", "--gamma", "0.4", "--samples", "4",
     "--format", "json"],
])
def test_an_output_path_that_cannot_be_written_is_a_usage_error(argv, tmp_path, capsys):
    missing = tmp_path / "missing" / "out.csv"
    code, out, err = run(capsys, argv + ["--out", str(missing)])
    assert (code, out, err) == (2, "", "error: cannot write {}: No such file or directory\n"
                                .format(missing))
    # a path given in a config file must be a string: not a descriptor, not a boolean
    cfg = tmp_path / "cfg.json"
    for value in (7, True, 1.5):
        cfg.write_text(json.dumps({"out": value}))
        code, out, err = run(capsys, argv + ["--config", str(cfg)])
        assert (code, out, err) == (2, "", "error: invalid value for out: {!r}\n".format(value))


def test_an_energy_curve_sidecar_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    (tmp_path / "curve.csv.json").mkdir()
    code, stdout, err = run(capsys, ["energy-curve", "--n", "2", "--beta", "1", "--gamma", "0.4",
                                     "--samples", "4", "--out", str(out)])
    assert (code, stdout) == (2, "")
    assert err == "error: cannot write {}.json: Is a directory\n".format(out)
    assert not out.exists()  # no table without its metadata


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
        assert beyond_floats and err.startswith("error: R is out of range: ")
        assert err.endswith(", got {!r}\n".format(R))
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


# numbers the argv fuzz draws from: non-finite, zero, negative, huge and tiny ones,
# and ordinary ones, drawn three times as often
_FUZZ_EDGES = ("nan", "inf", "-inf", "0", "-0.5", "-2", "1e300", "-1e300", "1e-300", "-1e-300")
_FUZZ_ORDINARY = ("0.3", "0.8", "1", "1.08", "1.5", "2", "3")


@st.composite
def _fuzz_argv(draw):
    ordinary = st.sampled_from(_FUZZ_ORDINARY)
    number = st.one_of(ordinary, ordinary, ordinary, st.sampled_from(_FUZZ_EDGES))
    dims = st.integers(1, 4)
    command = draw(st.sampled_from(["check", "describe", "phase-diagram", "energy-curve"]))
    argv = [command]
    if command in ("check", "describe"):
        argv.append(draw(st.sampled_from(sorted(cli._FIELDS))))
        names = ("n", "beta", "gamma", "R", "m", "M")
    elif command == "phase-diagram":
        names = ("n", "beta", "gamma")
    else:
        names = ("n", "beta", "gamma", "rmax")
    for name in names:
        if draw(st.integers(0, 9)) == 9:
            continue  # leave an option out now and then, which may make it missing
        if name == "n":
            value = str(draw(st.one_of(dims, dims, dims, st.sampled_from([-1, 0, 10, 11]))))
        elif command == "phase-diagram" and draw(st.booleans()):
            value = "{}:{}:{}".format(draw(number), draw(number), draw(st.integers(1, 3)))
        else:
            value = draw(number)
        argv.append("--{}={}".format(name, value))
    if command in ("check", "energy-curve"):
        argv.append("--samples=16")
    if command in ("check", "energy-curve") and draw(st.booleans()):
        argv.append("--format=json")
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argv=_fuzz_argv())
def test_fuzzed_argv_exits_cleanly(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _main_output(argv)
    assert code in (0, 1, 2), (argv, code)
    numbers = [value for arg in argv for value in arg.split("=")[-1].split(":")]
    if {"nan", "inf", "-inf"} & set(numbers):
        assert code == 2, argv
    # a beta <= 0 or gamma < 0 is out of every reader's domain, read or not
    signs = {"--beta": lambda v: v <= 0.0, "--gamma": lambda v: v < 0.0}
    for arg in argv:
        name, _, value = arg.partition("=")
        if name in signs and any(signs[name](float(v)) for v in value.split(":")):
            assert code == 2, argv
    if code == 2:
        assert out == "" and err.startswith("error:"), (argv, out, err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
    if argv[0] == "check" and "--format=json" in argv and code != 2:
        doc = json.loads(out)
        certified = doc["passed"] and doc["grid"].get("certified", False)
        assert (code == 0) == certified, (argv, code, doc["passed"], doc["grid"])
