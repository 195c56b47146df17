"""The ``calx`` command line tool.

Four subcommands:

* ``energy-curve``    tabulate the optimal radial energy and its
                      derivative in the support radius,
* ``check``           build a calibration field and verify the axioms
                      on a grid,
* ``phase-diagram``   classify (beta, gamma) cells by which certificate
                      applies,
* ``describe``        dump the piecewise structure of a field as JSON.

Exit codes: 0 when the requested computation succeeds (for ``check``:
the field is certified), 1 when a construction is infeasible or a
verification fails, 2 on usage errors: a NaN or infinite number, an
out-of-range dimension, or a number that overflows a float.  Options
may also be supplied through ``--config FILE`` (a flat JSON object
keyed by option name); explicit flags win over the file, the file wins
over defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from calx.calibration_fields import (
    CalibParams1D,
    HypothesisViolation,
    build_field_1d,
    build_field_ball_harmonic,
    build_field_harmonic,
    build_field_indicator_const,
    build_field_indicator_two_piece,
    radial_shell_profile,
)
from calx.energy import critical_radii, dE_dR, energy_radial_optimal
from calx.potentials import gamma, robin_bracket, robin_bracket_sup
from calx.verifier import VerificationReport, VerifyConfig, verify_all


class _UsageError(ValueError):
    pass


def _fmt(x):
    return "%.17g" % float(x)


def _load_config(path):
    if not path:
        return {}
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise _UsageError("cannot read config {}: {}".format(path, exc))
    if not isinstance(data, dict):
        raise _UsageError("config file must contain a JSON object")
    return data


class _Options:
    """Flag / config-file / default resolution by option name."""

    def __init__(self, args, config):
        self.args = args
        self.config = config

    def get(self, name, default=None, cast=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.config.get(name, default)
        if value is None or cast is None:
            return value
        try:
            value = cast(value)
        except (TypeError, ValueError):
            raise _UsageError("invalid value for {}: {!r}".format(name, value))
        if cast is float and not math.isfinite(value):
            raise _UsageError("{} must be finite, got {!r}".format(name, value))
        return value

    def require(self, name, cast=None):
        value = self.get(name, cast=cast)
        if value is None:
            raise _UsageError("missing required option --{}".format(
                name.replace("_", "-")))
        return value


def _in_float_range(name, value, term, form):
    """``value``, or a usage error naming the option when ``form(value)``, a
    term the fields form, overflows: raised before numpy warns about it."""
    try:
        if not math.isinf(form(value)):
            return value
    except OverflowError:
        pass
    raise _UsageError("--{} {!r} is out of range: {} overflows a float".format(
        name, value, term))


def _parse_grid(spec):
    """A float or 'start:stop:count' string into a 1-D array."""

    text = str(spec)
    parts = text.split(":") if ":" in text else [text, text, "1"]
    if len(parts) != 3:
        raise _UsageError("grid spec must be start:stop:count, got {!r}".format(spec))
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError("grid spec must be a number or start:stop:count, got {!r}".format(spec))
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageError("grid spec must be finite, got {!r}".format(spec))
    if count < 1 or stop < start:
        raise _UsageError("grid spec must be increasing with count >= 1")
    return np.linspace(start, stop, count)


def _env_threads():
    raw = os.environ.get("CALX_THREADS", "")
    if not raw:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise _UsageError("CALX_THREADS must be an integer, got {!r}".format(raw))
    if threads < 1:
        raise _UsageError("CALX_THREADS must be at least 1")
    return threads


def _write_text(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def _cmd_energy_curve(args, config):
    opt = _Options(args, config)
    n = opt.require("n", int)
    beta = opt.require("beta", float)
    gamma_ = opt.require("gamma", float)
    rmax = opt.get("rmax", 10.0, float)
    samples = opt.get("samples", 512, int)
    fmt = opt.get("format", "csv")
    out = opt.get("out")
    if rmax <= 1.0:
        raise _UsageError("--rmax must be greater than 1")
    if samples < 2:
        raise _UsageError("--samples must be at least 2")
    if fmt not in ("csv", "json"):
        raise _UsageError("--format must be csv or json")

    Rs = np.linspace(1.0, rmax, samples)
    Es = np.asarray(energy_radial_optimal(n, beta, gamma_, Rs))
    Ds = np.asarray(dE_dR(n, beta, gamma_, Rs))
    crit = critical_radii(n, beta, gamma_)
    best = int(np.argmin(Es))
    meta = {
        "n": n,
        "beta": beta,
        "gamma": gamma_,
        "rmax": rmax,
        "samples": samples,
        "critical_radii": crit,
        "energy_at_unit_radius": float(Es[0]),
        "grid_best_R": float(Rs[best]),
        "grid_best_energy": float(Es[best]),
    }

    if fmt == "json":
        doc = dict(meta)
        doc["columns"] = ["R", "E", "dE_dR"]
        doc["rows"] = [[float(r), float(e), float(d)]
                       for r, e, d in zip(Rs, Es, Ds)]
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if out:
            _write_text(out, text)
        else:
            sys.stdout.write(text)
        return 0

    lines = ["R,E,dE_dR"]
    for r, e, d in zip(Rs, Es, Ds):
        lines.append(",".join((_fmt(r), _fmt(e), _fmt(d))))
    text = "\n".join(lines) + "\n"
    if out:
        _write_text(out, text)
        _write_text(out + ".json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text)
    return 0


def _verify_config_from(opt):
    kwargs = {"threads": _env_threads()}
    samples = opt.get("samples", cast=int)
    if samples is not None:
        kwargs["pos_res"] = samples
        kwargs["t_res"] = samples
        kwargs["pair_res"] = samples
    for name in ("tol_a", "tol_b", "tol_div", "tol_flux", "tol_graph"):
        value = opt.get(name, cast=float)
        if value is not None:
            kwargs[name] = value
    mode = opt.get("divergence_mode")
    if mode is not None:
        kwargs["divergence_mode"] = mode
    return VerifyConfig(**kwargs)


def _affine_field(opt, notes):
    beta = opt.require("beta", float)
    params = CalibParams1D.from_traces(opt.require("m", float), opt.require("M", float),
                                       beta, sup_grad=opt.get("sup_grad", cast=float))
    return build_field_1d(params)


def _radial_args(opt):
    n, beta, R = opt.require("n", int), opt.require("beta", float), opt.require("R", float)
    # the largest term in R the ball field forms: its grid ends at 2R, and
    # for n >= 2 rho forms R^(2n-2) gamma(R) at r = 1
    if n == 1:
        _in_float_range("R", R, "2R", lambda r: 2.0 * r)
    elif R >= 1.0:
        _in_float_range("R", R, "R^{} gamma(R)".format(2 * n - 2),
                        lambda r: r ** (2 * n - 2) * gamma(n, r))
    return n, beta, R


def _radial_shell_field(opt, notes):
    n, beta, R = _radial_args(opt)
    profile = radial_shell_profile(n, beta, R)
    return build_field_harmonic(profile, profile.m, profile.M, beta)


def _indicator_args(opt):
    n = opt.require("n", int)
    # the Robin bracket forms beta^2
    beta = _in_float_range("beta", opt.require("beta", float), "beta^2", lambda b: b * b)
    return n, beta, opt.require("gamma", float)


def _ball_field(opt, notes):
    """Ball field; gamma defaults to the critical-radius identity, and
    below beta = n - 1/2 the field is built but marked uncertified."""

    n, beta, R = _radial_args(opt)
    gamma_ = opt.get("gamma", cast=float)
    if gamma_ is None:
        gsq = robin_bracket(n, beta, R)
        if gsq < 0.0:
            raise HypothesisViolation(
                "no nonnegative gamma satisfies the critical-radius identity "
                "at R = {:g} (beta^2 - (n-1) beta / R = {:g} < 0)".format(
                    R, beta ** 2 - (n - 1) * beta / R))
        gamma_ = math.sqrt(gsq)
        notes.append("gamma = {} (from the critical-radius identity)".format(_fmt(gamma_)))
    threshold = n - 0.5
    if beta < threshold:
        notes.append(
            "note: beta = {:g} is below n - 1/2 = {:g}; the monotonicity "
            "hypothesis fails, grid results are empirical only".format(beta, threshold))
    return build_field_ball_harmonic(n, beta, gamma_, R, enforce_beta=beta >= threshold)


# Field builders by `describe` kind: each reads its options and appends
# notes for the report.  Infeasible constructions raise
# HypothesisViolation, malformed options ValueError.
_FIELDS = {
    "1d": _affine_field,
    "harmonic": _radial_shell_field,
    "indicator-const": lambda opt, notes: build_field_indicator_const(*_indicator_args(opt)),
    "indicator-two-piece":
        lambda opt, notes: build_field_indicator_two_piece(*_indicator_args(opt)),
    "ball-harmonic": _ball_field,
}

# `check harmonic` certifies the affine profile on the interval.
_CHECK_FIELDS = {"harmonic": "1d", "indicator-const": "indicator-const",
                 "indicator-two-piece": "indicator-two-piece",
                 "ball-harmonic": "ball-harmonic"}


def _cmd_check(args, config):
    opt = _Options(args, config)
    kind = args.kind
    fmt = opt.get("format", "text")
    if fmt not in ("text", "json"):
        raise _UsageError("--format must be text or json")
    vconfig = _verify_config_from(opt)

    notes = []
    try:
        field = _FIELDS[_CHECK_FIELDS[kind]](opt, notes)
    except HypothesisViolation as exc:
        report = VerificationReport.infeasible(str(exc), kind=kind)
        if fmt == "json":
            sys.stdout.write(report.to_json() + "\n")
        else:
            sys.stdout.write(report.summary_table() + "\n")
        return 1

    report = verify_all(field, config=vconfig)
    certified = report.passed and not any(n.startswith("note:") for n in notes)
    if fmt == "json":
        report.grid_meta["notes"] = notes
        report.grid_meta["certified"] = certified
        sys.stdout.write(report.to_json() + "\n")
    else:
        for note in notes:
            sys.stdout.write(note + "\n")
        sys.stdout.write(report.summary_table() + "\n")
        if report.passed and not certified:
            sys.stdout.write("grid checks passed but the construction is "
                             "outside the certified hypotheses\n")
    return 0 if certified else 1


def _classify_cell(n, beta, gamma_, bracket_sup):
    """Regime of one cell; bracket_sup is robin_bracket_sup(n, beta)[1].

    Past the two indicator labels gamma^2 < bracket_sup.  The bracket is
    continuous on [1, inf) and at most beta^2 delta^2, which tends to 0, so
    for gamma > 0 it equals gamma^2 somewhere past its peak: a critical
    radius exists.  For gamma = 0 and beta >= n - 1/2 > n - 1 the bracket
    is positive on all of [1, inf), so there is none.  The ball certificate
    therefore applies exactly when beta >= n - 1/2 and gamma > 0.
    """
    if beta <= gamma_:
        return "indicator-by-beta-le-gamma"
    if gamma_ ** 2 - bracket_sup >= 0.0:
        return "indicator-by-monotonicity"
    if beta >= n - 0.5 and gamma_ > 0.0:
        return "harmonic-certified"
    return "undetermined"


def _cmd_phase_diagram(args, config):
    opt = _Options(args, config)
    n = opt.require("n", int)
    betas = _parse_grid(opt.require("beta"))
    gammas = _parse_grid(opt.require("gamma"))
    out = opt.get("out")
    if (betas <= 0.0).any():
        raise _UsageError("beta grid must be positive")
    if (gammas < 0.0).any():
        raise _UsageError("gamma grid must be nonnegative")

    lines = ["beta,gamma,regime"]
    for beta in betas:
        bracket_sup = robin_bracket_sup(n, float(beta))[1]
        for gamma_ in gammas:
            regime = _classify_cell(n, float(beta), float(gamma_), bracket_sup)
            lines.append(",".join((_fmt(beta), _fmt(gamma_), regime)))
    text = "\n".join(lines) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_describe(args, config):
    try:
        field = _FIELDS[args.kind](_Options(args, config), [])
    except HypothesisViolation as exc:
        sys.stderr.write("infeasible: {}\n".format(exc))
        return 1
    sys.stdout.write(json.dumps(field.to_description(), indent=2, sort_keys=True) + "\n")
    return 0


def _add_field_params(sub):
    sub.add_argument("--n", type=int, help="space dimension")
    sub.add_argument("--beta", type=float, help="jump weight")
    sub.add_argument("--gamma", type=float, help="volume weight")
    sub.add_argument("--R", type=float, help="support radius")
    sub.add_argument("--m", type=float, help="lower boundary datum")
    sub.add_argument("--M", type=float, help="upper boundary datum")
    sub.add_argument("--sup-grad", dest="sup_grad", type=float,
                     help="gradient bound used by the jump-energy test")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="calx",
        description="calibration certificates and energies for thermal insulation")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file with default option values")
    subs = parser.add_subparsers(dest="command", required=True)

    curve = subs.add_parser("energy-curve", parents=[shared],
                            help="tabulate the optimal radial energy over R")
    curve.add_argument("--n", type=int)
    curve.add_argument("--beta", type=float)
    curve.add_argument("--gamma", type=float)
    curve.add_argument("--rmax", type=float)
    curve.add_argument("--samples", type=int)
    curve.add_argument("--out")
    curve.add_argument("--format", choices=("csv", "json"))
    curve.set_defaults(handler=_cmd_energy_curve)

    check = subs.add_parser("check", parents=[shared], help="verify a calibration field on a grid")
    check.add_argument("kind", choices=tuple(_CHECK_FIELDS))
    _add_field_params(check)
    check.add_argument("--samples", type=int,
                       help="grid resolution for every axis")
    check.add_argument("--tol-a", dest="tol_a", type=float)
    check.add_argument("--tol-b", dest="tol_b", type=float)
    check.add_argument("--tol-div", dest="tol_div", type=float)
    check.add_argument("--tol-flux", dest="tol_flux", type=float)
    check.add_argument("--tol-graph", dest="tol_graph", type=float)
    check.add_argument("--divergence-mode", dest="divergence_mode",
                       choices=("auto", "fd"))
    check.add_argument("--format", choices=("text", "json"))
    check.set_defaults(handler=_cmd_check)

    phase = subs.add_parser("phase-diagram", parents=[shared],
                            help="classify (beta, gamma) cells by certificate")
    phase.add_argument("--n", type=int)
    phase.add_argument("--beta", help="value or start:stop:count")
    phase.add_argument("--gamma", help="value or start:stop:count")
    phase.add_argument("--out")
    phase.set_defaults(handler=_cmd_phase_diagram)

    desc = subs.add_parser("describe", parents=[shared], help="dump a field's piecewise structure")
    desc.add_argument("kind", choices=tuple(_FIELDS))
    _add_field_params(desc)
    desc.set_defaults(handler=_cmd_describe)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, _load_config(args.config))
    except OverflowError as exc:
        error = "number out of range ({})".format(exc)
    except ValueError as exc:
        error = exc
    sys.stderr.write("error: {}\n".format(error))
    return 2


if __name__ == "__main__":
    sys.exit(main())
