"""The ``calx`` command line tool.

Four subcommands:

* ``energy-curve``    tabulate the optimal radial energy and its
                      derivative in the support radius,
* ``check``           build a calibration field and verify the axioms
                      on a grid,
* ``phase-diagram``   classify (beta, gamma) cells by which certificate
                      applies,
* ``describe``        dump the piecewise structure of a field as JSON.

``check`` and ``describe`` take the same field kinds: ``1d``,
``harmonic``, ``indicator-const``, ``indicator-two-piece`` and
``ball-harmonic``.  ``harmonic`` calibrates the affine profile on
[0, 1] when ``--m`` or ``--M`` is given, and the Robin-optimal radial
shell 1 <= r <= R from ``--n --beta --R`` otherwise.

``check --format json`` of a construction whose hypothesis fails keeps
where it failed (``construction_location``) and the numbers behind it
(``construction_details``) next to ``construction_error``.

Exit codes: 0 when the requested computation succeeds (for ``check``:
the field is certified), 1 when a construction is infeasible or a
verification fails, 2 on usage errors.  Options may also be supplied
through ``--config FILE`` (a flat JSON object keyed by option name);
explicit flags win over the file, and the file wins over defaults.  Each
subcommand declares its options once (``_COMMANDS``): the flag, how it
reads text, the default and the help.  ``_Options`` resolves every
declared option once and reads a flag's text and a config value (a
number or numeric text) alike, so each usage error reads the same from
either: a key that names no option of the command, a value the flag
would not read (a boolean, a fraction for an integer, a number for a
path), a NaN or infinite number, a value outside the option's range
(``_RULES``, also for an option the chosen kind does not read), an
out-of-range dimension, a number that overflows a float, or an output
file that cannot be written.  A range error reads
``error: <name> must be <rule>, got <value>``.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import sys

import numpy as np

from calx.calibration_fields import (
    CalibParams1D,
    HypothesisViolation,
    affine_profile,
    build_field_1d,
    build_field_ball_harmonic,
    build_field_harmonic,
    build_field_indicator_const,
    build_field_indicator_two_piece,
    radial_shell_profile,
)
from calx.energy import critical_radii, dE_dR, energy_radial_optimal, unit_ball_volume
from calx.potentials import gamma, robin_bracket, robin_bracket_sup
from calx.verifier import PRINTED_VIOLATIONS, VerificationReport, VerifyConfig, verify_all


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


_TOLERANCES = ("tol_a", "tol_b", "tol_div", "tol_flux", "tol_graph")
_POSITIVE = ("positive", lambda value: value > 0.0)
_AT_LEAST_1 = ("at least 1", lambda value: value >= 1)

# The range rule of each option, (rule, test), by name or, where the commands
# differ, by (command, name).  It holds whether or not the chosen kind reads
# the option, and for each value of a grid.
_RULES = {
    "n": _AT_LEAST_1, "R": _AT_LEAST_1, "beta": _POSITIVE,
    "gamma": ("nonnegative", lambda value: value >= 0.0),
    "rmax": ("greater than 1", lambda value: value > 1.0),
    ("check", "samples"): ("at least 16", lambda value: value >= 16),  # VerifyConfig's least
    ("energy-curve", "samples"): ("at least 2", lambda value: value >= 2),
    **dict.fromkeys(_TOLERANCES, _POSITIVE),
}


def _read(command, name, read, value):
    """``value``, a flag's text or a config value, read as the flag reads text
    (``read``: int, float, str for a path, a grid parser or a tuple of
    choices), finite and within the range rule of ``name``."""
    if isinstance(read, tuple):
        if value not in read:
            raise _UsageError("{} must be {}, got {!r}".format(name, " or ".join(read), value))
        return value
    try:
        # no boolean, no number for a path and no fraction for an integer
        if isinstance(value, bool) or (read is str and not isinstance(value, str)):
            raise TypeError(value)
        if read is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        value = read(value)
    except _UsageError:
        raise
    except (TypeError, ValueError):
        raise _UsageError("invalid value for {}: {!r}".format(name, value))
    if isinstance(value, float) and not math.isfinite(value):
        raise _UsageError("{} must be finite, got {!r}".format(name, value))
    rule, holds = _RULES.get((command, name)) or _RULES.get(name) or (None, None)
    for item in value.tolist() if isinstance(value, np.ndarray) else [value]:
        if holds is not None and not holds(item):
            raise _UsageError("{} must be {}, got {!r}".format(name, rule, item))
    return value


class _Options:
    """Every option of ``command`` resolved once: the flag, else the config
    value, else the default; a flag or config value as ``_read`` reads it."""

    def __init__(self, command, args, config):
        declared = _COMMANDS[command].options
        unknown = set(config) - {option.name for option in declared}
        if unknown:
            raise _UsageError("unknown option in config: {}".format(", ".join(sorted(unknown))))
        self.kind = getattr(args, "kind", None)
        self.values = {}
        for option in declared:
            value = getattr(args, option.name, None)
            if value is None:
                value = config.get(option.name)
            self.values[option.name] = (option.default if value is None
                                        else _read(command, option.name, option.read, value))

    def get(self, name):
        return self.values.get(name)

    def require(self, name):
        value = self.get(name)
        if value is None:
            raise _UsageError("missing required option: {}".format(name))
        return value


def _in_float_range(name, value, term, form):
    """``value``, or a usage error naming the option when ``form(value)``, a
    term the fields form, overflows: raised before numpy warns about it."""
    try:
        if not math.isinf(form(value)):
            return value
    except OverflowError:
        pass
    raise _UsageError("{} is out of range: {} overflows a float, got {!r}".format(
        name, term, value))


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


def _write_text(path, text):
    """Write ``text`` to the file ``path``, or to stdout when there is no path."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError("cannot write {}: {}".format(path, exc.strerror or exc))


def _beta_in_range(beta):
    """``beta``, or a usage error when beta^2, which the Robin bracket forms, overflows."""
    return _in_float_range("beta", beta, "beta^2", lambda b: b * b)


def _curve_in_range(n, beta, gamma_, rmax):
    """A usage error naming the first term the energy curve and its derivative
    form that overflows: n omega_n beta^2 at R = 1, then each term that grows
    with R at R = rmax."""
    w = unit_ball_volume(n)  # names a dimension outside [1, 10] first
    _in_float_range("beta", beta, "n omega_n beta^2", lambda b: n * w * b * b)
    k = n - 1
    for term, form in (("R^{}".format(n), lambda r: r ** n),
                       ("beta R^{} gamma(R)".format(k), lambda r: beta * r ** k * gamma(n, r)),
                       ("n omega_n beta R^{}".format(k), lambda r: n * w * beta * r ** k),
                       ("omega_n gamma^2 R^{}".format(n), lambda r: w * gamma_ ** 2 * r ** n),
                       ("n omega_n gamma^2 R^{}".format(k),
                        lambda r: n * w * gamma_ ** 2 * r ** k)):
        _in_float_range("rmax", rmax, term, form)


def _cmd_energy_curve(opt):
    n = opt.require("n")
    beta = _beta_in_range(opt.require("beta"))
    gamma_ = _in_float_range("gamma", opt.require("gamma"), "gamma^2", lambda g: g * g)
    rmax, samples, out = opt.get("rmax"), opt.get("samples"), opt.get("out")
    _curve_in_range(n, beta, gamma_, rmax)

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

    if opt.get("format") == "json":
        doc = dict(meta)
        doc["columns"] = ["R", "E", "dE_dR"]
        doc["rows"] = [[float(r), float(e), float(d)]
                       for r, e, d in zip(Rs, Es, Ds)]
        _write_text(out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0

    lines = ["R,E,dE_dR"]
    for r, e, d in zip(Rs, Es, Ds):
        lines.append(",".join((_fmt(r), _fmt(e), _fmt(d))))
    _write_text(out, "\n".join(lines) + "\n")
    if out:
        try:
            _write_text(out + ".json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
        except _UsageError:
            os.remove(out)  # no table without its metadata
            raise
    return 0


def _verify_config_from(opt):
    tolerances = {name: opt.get(name) for name in _TOLERANCES}
    return VerifyConfig(pos_res=opt.get("samples"), t_res=opt.get("samples"), **tolerances,
                        max_recorded=PRINTED_VIOLATIONS)  # the report prints no more


def _affine_args(opt):
    """``(m, M, beta)``; a usage error names an ``--M`` whose square overflows,
    then a ``--beta`` whose reduced weight beta (M - m) or whose pair-scan
    scale beta M^2 overflows."""
    beta, m, M = opt.require("beta"), opt.require("m"), opt.require("M")
    _in_float_range("M", M, "M^2", lambda v: v * v)
    _in_float_range("beta", beta, "beta (M - m)", lambda b: b * (M - m))
    return m, M, _in_float_range("beta", beta, "beta M^2", lambda b: b * M * M)


def _radial_args(opt):
    n, beta, R = opt.require("n"), opt.require("beta"), opt.require("R")
    # the largest term in R the ball field forms: its grid ends at 2R, and
    # for n >= 2 rho forms R^(2n-2) gamma(R) at r = 1
    if n == 1:
        _in_float_range("R", R, "2R", lambda r: 2.0 * r)
    elif R >= 1.0:
        _in_float_range("R", R, "R^{} gamma(R)".format(2 * n - 2),
                        lambda r: r ** (2 * n - 2) * gamma(n, r))
    return n, beta, R


def _harmonic_field(opt, notes):
    """The template over the affine profile if --m or --M is given, else the radial shell."""
    if opt.get("m") is None and opt.get("M") is None:
        n, beta, R = _radial_args(opt)
        profile = radial_shell_profile(n, beta, R)
    else:
        m, M, beta = _affine_args(opt)
        profile = affine_profile(m, M)
    return build_field_harmonic(profile, beta)


def _indicator_args(opt):
    return opt.require("n"), _beta_in_range(opt.require("beta")), opt.require("gamma")


def _ball_field(opt, notes):
    """Ball field; gamma defaults to the critical-radius identity, and
    below beta = n - 1/2 the field is built but marked uncertified."""

    n, beta, R = _radial_args(opt)
    _beta_in_range(beta)
    gamma_ = opt.get("gamma")
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


# Field builders by the `check` and `describe` kind: each reads its options
# and appends notes for the report.  Infeasible constructions raise
# HypothesisViolation, malformed options ValueError.
_FIELDS = {
    "1d": lambda opt, notes: build_field_1d(CalibParams1D.from_traces(*_affine_args(opt))),
    "harmonic": _harmonic_field,
    "indicator-const": lambda opt, notes: build_field_indicator_const(*_indicator_args(opt)),
    "indicator-two-piece":
        lambda opt, notes: build_field_indicator_two_piece(*_indicator_args(opt)),
    "ball-harmonic": _ball_field,
}


def _cmd_check(opt):
    fmt = opt.get("format")
    vconfig = _verify_config_from(opt)

    notes = []
    try:
        field = _FIELDS[opt.kind](opt, notes)
    except HypothesisViolation as exc:
        report = VerificationReport.infeasible(exc, opt.kind, exc.location, exc.details)
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


def _cmd_phase_diagram(opt):
    n, betas, gammas = opt.require("n"), opt.require("beta"), opt.require("gamma")
    _beta_in_range(float(betas[-1]))

    lines = ["beta,gamma,regime"]
    for beta in betas:
        bracket_sup = robin_bracket_sup(n, float(beta))[1]
        for gamma_ in gammas:
            regime = _classify_cell(n, float(beta), float(gamma_), bracket_sup)
            lines.append(",".join((_fmt(beta), _fmt(gamma_), regime)))
    _write_text(opt.get("out"), "\n".join(lines) + "\n")
    return 0


def _cmd_describe(opt):
    try:
        field = _FIELDS[opt.kind](opt, [])
    except HypothesisViolation as exc:
        sys.stderr.write("infeasible: {}\n".format(exc))
        return 1
    sys.stdout.write(json.dumps(field.to_description(), indent=2, sort_keys=True) + "\n")
    return 0


# One declaration per option: its name (``--tol-a`` is ``tol_a``), how its flag
# reads text (see ``_read``), its default and its help
_Option = collections.namedtuple("_Option", "name read default help", defaults=(None, None))
_Command = collections.namedtuple("_Command", "help handler options kinds", defaults=(False,))

_FIELD_OPTIONS = (
    _Option("n", int, help="space dimension"), _Option("beta", float, help="jump weight"),
    _Option("gamma", float, help="volume weight"), _Option("R", float, help="support radius"),
    _Option("m", float, help="lower boundary datum"),
    _Option("M", float, help="upper boundary datum"))

_COMMANDS = {
    "energy-curve": _Command("tabulate the optimal radial energy over R", _cmd_energy_curve, (
        _Option("n", int), _Option("beta", float), _Option("gamma", float),
        _Option("rmax", float, 10.0), _Option("samples", int, 512), _Option("out", str),
        _Option("format", ("csv", "json"), "csv"))),
    "check": _Command("verify a calibration field on a grid", _cmd_check, _FIELD_OPTIONS + (
        _Option("samples", int, VerifyConfig.t_res, "grid resolution for every axis"),
        *(_Option(name, float, getattr(VerifyConfig, name)) for name in _TOLERANCES),
        _Option("format", ("text", "json"), "text")), True),
    "phase-diagram": _Command("classify (beta, gamma) cells by certificate", _cmd_phase_diagram, (
        _Option("n", int),
        _Option("beta", _parse_grid, help="value or start:stop:count"),
        _Option("gamma", _parse_grid, help="value or start:stop:count"),
        _Option("out", str))),
    "describe": _Command("dump a field's piecewise structure", _cmd_describe, _FIELD_OPTIONS, True),
}


@functools.lru_cache(maxsize=None)  # once per process: parsing leaves it as it was
def _build_parser():
    """Each flag keeps its text; ``_Options`` reads it as it reads a config value."""
    parser = argparse.ArgumentParser(
        prog="calx",
        description="calibration certificates and energies for thermal insulation")
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON file with default option values")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, spec in _COMMANDS.items():
        sub = subs.add_parser(command, parents=[shared], help=spec.help)
        if spec.kinds:
            sub.add_argument("kind", choices=tuple(_FIELDS))
        for option in spec.options:
            choices = "{%s}" % ",".join(option.read) if isinstance(option.read, tuple) else None
            sub.add_argument("--" + option.name.replace("_", "-"), dest=option.name,
                             metavar=choices, help=option.help)
        sub.set_defaults(handler=spec.handler)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(_Options(args.command, args, _load_config(args.config)))
    except OverflowError as exc:
        error = "number out of range ({})".format(exc)
    except ValueError as exc:
        error = exc
    sys.stderr.write("error: {}\n".format(error))
    return 2


if __name__ == "__main__":
    sys.exit(main())
