"""Expectations for every benchmark operation, and the mutations that test them.

Each checker takes an operation's output and returns a list of problems
(empty when the output is correct).  Reports are parsed by key and keys
the checker does not know are ignored, so fields a later version adds to
the JSON do not count as failures.  The closed forms used here are
written out independently of calx.

Tolerances: exit codes, statuses, violation counts, row counts, labels
and the planted node match exactly; worst margins match the recorded
values within ``MARGIN_ABS + MARGIN_REL * |recorded|``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math

import numpy as np

MARGIN_ABS = 1e-9
MARGIN_REL = 1e-6
SHOOTING_TOL = 1e-6
JUMP_TOL = 1e-12
CRITICAL_RADII_TOL = 1e-8

PHASE_LABELS = frozenset({"indicator-by-beta-le-gamma", "indicator-by-monotonicity",
                          "harmonic-certified", "undetermined"})


# ---------------------------------------------------------------- closed forms

def ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def potential(n, r):
    if n == 1:
        return r - 1.0
    if n == 2:
        return np.log(r)
    return (1.0 - r ** (2 - n)) / (n - 2)


def robin_trace(n, beta, r):
    return 1.0 / (1.0 + beta * r ** (n - 1) * potential(n, r))


def _close(got, want):
    if want is None or got is None:
        return got is None and want is None
    return abs(got - want) <= MARGIN_ABS + MARGIN_REL * abs(want)


# ---------------------------------------------------------------- check reports

def check_report(output, expect):
    """``output`` is ``(exit_code, stdout)`` of ``calx check --format json``."""

    code, text = output
    problems = []
    if code != expect["exit"]:
        problems.append("exit code {} != {}".format(code, expect["exit"]))
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return problems + ["report is not JSON: {}".format(exc)]
    if doc.get("passed") is not expect["passed"]:
        problems.append("passed = {!r}".format(doc.get("passed")))
    error = doc.get("construction_error")
    if expect["infeasible"] != (isinstance(error, str) and bool(error)):
        problems.append("construction_error = {!r}".format(error))
    if "certified" in expect and doc.get("grid", {}).get("certified") is not expect["certified"]:
        problems.append("certified = {!r}".format(doc.get("grid", {}).get("certified")))
    results = doc.get("results")
    if not isinstance(results, dict):
        return problems + ["results missing"]
    for axiom, want in expect["results"].items():
        got = results.get(axiom)
        if not isinstance(got, dict):
            problems.append("no result for axiom {}".format(axiom))
            continue
        for key in ("status", "n_violations"):
            if got.get(key) != want[key]:
                problems.append("{} {} = {!r} != {!r}".format(axiom, key, got.get(key), want[key]))
        if not _close(got.get("worst_margin"), want["worst_margin"]):
            problems.append("{} worst_margin {!r} != {!r}".format(
                axiom, got.get("worst_margin"), want["worst_margin"]))
        if "reduced_margin" in want and not _close(
                got.get("meta", {}).get("reduced_margin"), want["reduced_margin"]):
            problems.append("{} reduced_margin {!r}".format(axiom, got.get("meta", {}).get("reduced_margin")))
        if "violations" in want:
            problems += _check_violations(axiom, got.get("violations"), want["violations"])
    return problems


def _check_violations(axiom, got, want):
    """Recorded violations in order: same locations, residuals within tolerance."""
    if not isinstance(got, list) or len(got) != len(want):
        return ["{} recorded violations: {} listed, {} expected".format(
            axiom, len(got) if isinstance(got, list) else got, len(want))]
    for k, (g, w) in enumerate(zip(got, want)):
        loc = g.get("location")
        if (not isinstance(loc, list) or len(loc) != len(w["location"])
                or any(abs(a - b) > 1e-12 for a, b in zip(loc, w["location"]))
                or not _close(g.get("residual"), w["residual"])):
            return ["{} violation #{} is {!r}, expected {!r}".format(axiom, k, g, w)]
    return []


def check_planted(output, node):
    """``output`` is the JSON report of an axiom (a) scan of a field with one planted defect."""
    doc = json.loads(output)
    a = doc.get("results", {}).get("a", {})
    problems = []
    if doc.get("passed") is not False:
        problems.append("passed = {!r}".format(doc.get("passed")))
    if a.get("status") != "fail" or a.get("n_violations") != 1:
        problems.append("a: status {!r}, {!r} violations".format(a.get("status"), a.get("n_violations")))
    viols = a.get("violations") or [{}]
    if viols[0].get("location") != list(node) or len(viols) != 1:
        problems.append("violation at {!r}, planted at {!r}".format(viols[0].get("location"), node))
    return problems


def mutate_report(output):
    """Altered copies of a ``calx check`` output that the checker must reject."""
    code, text = output
    doc = json.loads(text)
    out = [(1 - code if code in (0, 1) else 0, text)]
    for key in sorted(doc.get("results", {})):
        bad = copy.deepcopy(doc)
        bad["results"][key]["n_violations"] += 1
        out.append((code, json.dumps(bad)))
        break
    bad = copy.deepcopy(doc)
    bad["passed"] = not doc["passed"]
    out.append((code, json.dumps(bad)))
    margins = [k for k, r in sorted(doc.get("results", {}).items()) if r.get("worst_margin") is not None]
    if margins:
        bad = copy.deepcopy(doc)
        bad["results"][margins[-1]]["worst_margin"] += 1e-6
        out.append((code, json.dumps(bad)))
    return out


def mutate_planted(output):
    doc = json.loads(output)
    bad = copy.deepcopy(doc)
    loc = bad["results"]["a"]["violations"][0]["location"]
    loc[1] = loc[1] + 1e-3
    count = copy.deepcopy(doc)
    count["results"]["a"]["n_violations"] += 1
    return [json.dumps(bad), json.dumps(count)]


# ---------------------------------------------------------------- survey

def check_phase_diagram(output, betas, gammas):
    """Invariants of ``calx phase-diagram`` (there is no recorded label table)."""
    code, text = output
    problems = [] if code == 0 else ["exit code {}".format(code)]
    lines = text.strip().splitlines()
    if not lines or lines[0] != "beta,gamma,regime":
        return problems + ["bad header"]
    rows = [line.split(",") for line in lines[1:]]
    cells = [(b, g) for b in betas for g in gammas]
    if len(rows) != len(cells):
        return problems + ["{} rows for {} cells".format(len(rows), len(cells))]
    for row, (beta, gamma_) in zip(rows, cells):
        if len(row) != 3 or row[2] not in PHASE_LABELS:
            problems.append("bad row {!r}".format(row))
            break
        b, g = float(row[0]), float(row[1])
        if abs(b - beta) > 1e-12 or abs(g - gamma_) > 1e-12:
            problems.append("row {!r} is not cell ({!r}, {!r})".format(row, beta, gamma_))
            break
        if (row[2] == "indicator-by-beta-le-gamma") != (b <= g):
            problems.append("label {} at beta={} gamma={}".format(row[2], b, g))
            break
    return problems


def mutate_phase_diagram(output):
    code, text = output
    lines = text.splitlines()
    relabel = lines[:]
    for i, line in enumerate(lines[1:], start=1):
        beta, gamma_, label = line.split(",")
        if label == "indicator-by-beta-le-gamma":
            relabel[i] = ",".join((beta, gamma_, "indicator-by-monotonicity"))
            break
    else:
        beta, gamma_, label = lines[1].split(",")
        relabel[1] = ",".join((beta, gamma_, "indicator-by-beta-le-gamma"))
    return [(code, "\n".join(relabel) + "\n"), (code, "\n".join(lines[:-1]) + "\n"), (1, text)]


def check_energy_curve(output, expect):
    code, text = output
    problems = [] if code == 0 else ["exit code {}".format(code)]
    doc = json.loads(text)
    rows = doc.get("rows", [])
    if len(rows) != expect["samples"] or not rows or rows[0][0] != 1.0:
        problems.append("{} rows".format(len(rows)))
    radii = doc.get("critical_radii", [])
    if len(radii) != len(expect["critical_radii"]) or any(
            abs(a - b) > CRITICAL_RADII_TOL for a, b in zip(radii, expect["critical_radii"])):
        problems.append("critical radii {!r}".format(radii))
    return problems


def mutate_energy_curve(output):
    code, text = output
    doc = json.loads(text)
    doc["critical_radii"][0] += 1e-6
    return [(code, json.dumps(doc))]


def check_shooting(output, draws):
    worst = max(abs(got - robin_trace(n, beta, R)) for got, (n, beta, R) in zip(output, draws))
    problems = [] if len(output) == len(draws) else ["{} results".format(len(output))]
    if not worst < SHOOTING_TOL:
        problems.append("max |shooting - delta| = {:.3e}".format(worst))
    return problems


def mutate_shooting(output):
    return [[output[0] + 2 * SHOOTING_TOL] + list(output[1:])]


def check_jump_search(output, expected):
    return ["energy {!r} != {!r}".format(got, want)
            for got, want in zip(output, expected) if not abs(got - want) <= JUMP_TOL]


def mutate_jump_search(output):
    return [[output[0] + 1e-9] + list(output[1:])]


def check_radial_sweep(result, n, beta, gamma_, Rs, deltas):
    """Row count, the R = 1 row, and the per-R minimum against the Robin closed form.

    Along a fixed R the energy is a parabola in delta with curvature
    ``c = n omega (1/Gamma(R) + beta R^(n-1))``, so the grid minimum sits
    at most ``c (spacing / 2)^2`` above the optimum and never below it.
    """

    interior = [R for R in Rs if R > 1.0]
    want_rows = 1 + len(interior) * len(deltas)
    rows = result.rows
    if len(rows) != want_rows:
        return ["{} rows, expected {}".format(len(rows), want_rows)]
    w = ball_volume(n)
    problems = []
    first = rows[0]
    if first.R != 1.0 or abs(first.total - (beta * n * w + w * gamma_ ** 2)) > 1e-12:
        problems.append("R = 1 row {!r}".format(first))
    totals = np.array([row.total for row in rows[1:]]).reshape(len(interior), len(deltas))
    R = np.array(interior)
    d = robin_trace(n, beta, R)
    e_opt = n * w * beta * R ** (n - 1) * d + w * gamma_ ** 2 * R ** n
    curvature = n * w * (1.0 / potential(n, R) + beta * R ** (n - 1))
    spacing = float(np.max(np.diff(deltas)))
    got = totals.min(axis=1)
    low = got < e_opt * (1.0 - 1e-12)
    high = got > e_opt + curvature * (spacing / 2.0) ** 2 * (1.0 + 1e-9)
    if low.any() or high.any():
        problems.append("grid minimum off the closed form at R = {!r}".format(
            R[low | high][:3].tolist()))
    best = min(range(len(rows)), key=lambda i: rows[i].total)
    if result.best_index != best:
        problems.append("best_index {} != {}".format(result.best_index, best))
    return problems


def mutate_radial_sweep(result):
    rows = list(result.rows)
    # the cheapest trace at the first R > 1, pushed 1% below the optimum
    k = min((i for i, row in enumerate(rows) if row.R == rows[1].R), key=lambda i: rows[i].total)
    rows[k] = dataclasses.replace(rows[k], total=rows[k].total * 0.99)
    return [dataclasses.replace(result, rows=tuple(rows)), dataclasses.replace(result, rows=tuple(rows[:-1]))]
