"""The three benchmark workloads, generated from a seed.

An operation calls ``calx.cli.main(argv)`` in-process with stdout
captured, or a public library function, and is timed on its own.  Each
operation carries the checker for its output and the mutations that the
checker must reject (the benchmark's self-test).

Seed 0 uses the README and acceptance-battery cells.  Other seeds draw
from lists of cells confirmed to certify at 512 samples; a cell's cost
depends on the grid, not on its parameters, so draws move the work very
little.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

SAMPLES = 512

# Cells that certify at SAMPLES for each `calx check` kind; the first is the
# README / acceptance cell.  Two-piece cells have a Robin bracket below
# gamma^2 on all of [1, 1e5], not only on the range the constructor scans.
CERTIFY_CELLS = {
    "harmonic": ({"m": 0.8, "M": 1, "beta": 3}, {"m": 0.7, "M": 1, "beta": 3},
                 {"m": 0.8, "M": 1, "beta": 4}, {"m": 0.9, "M": 1, "beta": 2},
                 {"m": 0.6, "M": 1, "beta": 5}),
    "indicator-const": ({"n": 2, "beta": 0.3, "gamma": 0.4}, {"n": 3, "beta": 0.3, "gamma": 0.4},
                        {"n": 2, "beta": 0.5, "gamma": 0.7}, {"n": 3, "beta": 0.6, "gamma": 0.8},
                        {"n": 2, "beta": 0.8, "gamma": 0.8}),
    "indicator-two-piece": ({"n": 2, "beta": 1, "gamma": 0.4}, {"n": 2, "beta": 1, "gamma": 0.5},
                            {"n": 3, "beta": 1.2, "gamma": 0.6}, {"n": 3, "beta": 2, "gamma": 0.9},
                            {"n": 2, "beta": 0.6, "gamma": 0.3}),
    "ball-harmonic": ({"n": 2, "beta": 2, "R": 2}, {"n": 3, "beta": 2.5, "R": 2},
                      {"n": 2, "beta": 2.5, "R": 1.8}, {"n": 2, "beta": 3, "R": 1.5},
                      {"n": 3, "beta": 3, "R": 1.5}),
}

# Checks that must fail.  The ball is criterion 8 (beta below n - 1/2);
# the other three stop in the constructor with a hypothesis violation.
REFUTE_CELLS = (
    ("ball-harmonic", {"n": 2, "beta": 1.3, "R": 1.08}),
    ("indicator-two-piece", {"n": 2, "beta": 1, "gamma": 0.34}),
    ("indicator-two-piece", {"n": 3, "beta": 0.1, "gamma": 0}),
    ("harmonic", {"m": 0, "M": 1, "beta": 1}),
)

# Field the planted defect goes into (the README ball), and the defect depth:
# far below the smallest axiom (a) margin anywhere on that field's grid.
PLANTED_CELL = {"n": 2, "beta": 2.0, "R": 2.0}
PLANTED_AMOUNT = -10.0

README_PHASE = ("2", "0.2:2.0:19", "0.1:0.8:15")
ENERGY_CURVE = {"argv": ["--n", "2", "--beta", "1", "--gamma", "0.34", "--rmax", "10"],
                "samples": 512,
                "critical_radii": [1.21447196960909539611985, 1.67947004206913789542485]}
JUMP_SEARCH = (((0.0, 1.0, 1.0), 0.5), ((0.8, 1.0, 3.0), 0.04))

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")) as _handle:
    EXPECTED = json.load(_handle)


@dataclass
class Op:
    """One timed operation with its output checker and self-test mutations.

    ``counts(output)`` gives per-layer counts computed from the inputs or
    the output rather than measured.
    """

    name: str
    group: str
    run: Callable
    check: Callable
    mutate: Callable
    counts: Callable = lambda out: {}


def cli(argv):
    from calx import cli as calx_cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = calx_cli.main(list(argv))
    return code, buf.getvalue()


def check_argv(kind, cell):
    argv = ["check", kind]
    for key, value in cell.items():
        argv += ["--" + key, repr(float(value)) if key != "n" else str(value)]
    return argv + ["--samples", str(SAMPLES), "--format", "json"]


def argv_key(argv):
    return " ".join(argv)


def _check_op(kind, cell, group):
    argv = check_argv(kind, cell)
    expect = EXPECTED[argv_key(argv)]
    return Op(name=argv_key(argv[:-4]), group=group, run=lambda: cli(argv),
              check=lambda out: checks.check_report(out, expect),
              mutate=checks.mutate_report)


def certify(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for kind, cells in CERTIFY_CELLS.items():
        cell = cells[0] if seed == 0 else cells[int(rng.integers(len(cells)))]
        ops.append(_check_op(kind, cell, "check"))
    return ops


def _planted_run(node):
    from calx import build_field_ball_harmonic, perturb_phi_t, verify_all, VerifyConfig

    i, j = node
    n, beta, R = PLANTED_CELL["n"], PLANTED_CELL["beta"], PLANTED_CELL["R"]
    gamma_ = critical_gamma(n, beta, R)
    field_ = build_field_ball_harmonic(n, beta, gamma_, R)
    pos = np.linspace(field_.pos_range[0], field_.pos_range[1], SAMPLES)
    t = np.linspace(0.0, field_.t_max, SAMPLES)
    dpos = 0.4 * (pos[1] - pos[0])
    dt = 0.4 * (t[1] - t[0])
    corrupted = perturb_phi_t(field_, pos[i], t[j], PLANTED_AMOUNT, dpos, dt)
    config = VerifyConfig(pos_res=SAMPLES, t_res=SAMPLES, pair_res=SAMPLES, axioms=("a",))
    return verify_all(corrupted, config=config).to_json(), [float(pos[i]), float(t[j])]


def critical_gamma(n, beta, R):
    """gamma from the critical-radius identity, from the closed forms in ``checks``."""
    d = checks.robin_trace(n, beta, R)
    return float(np.sqrt((beta ** 2 - (n - 1) * beta / R) * d ** 2))


def refute(seed):
    rng = np.random.default_rng(seed)
    kind, cell = REFUTE_CELLS[0]
    ops = [_check_op(kind, cell, "check")]
    # node away from the domain edges so the defect box holds one node
    node = (int(rng.integers(1, SAMPLES - 1)), int(rng.integers(1, SAMPLES - 1)))
    state = {}

    def run():
        report, state["location"] = _planted_run(node)
        return report

    ops.append(Op(name="planted defect at node {}".format(node), group="planted", run=run,
                  check=lambda out: checks.check_planted(out, state["location"]),
                  mutate=checks.mutate_planted))
    ops += [_check_op(kind, cell, "infeasible") for kind, cell in REFUTE_CELLS[1:]]
    return ops


def _phase_op(n, beta_spec, gamma_spec):
    argv = ["phase-diagram", "--n", n, "--beta", beta_spec, "--gamma", gamma_spec]

    def grid(spec):
        start, stop, count = spec.split(":")
        return np.linspace(float(start), float(stop), int(count)).tolist()

    betas, gammas = grid(beta_spec), grid(gamma_spec)
    return Op(name=argv_key(argv), group="phase_diagram", run=lambda: cli(argv),
              check=lambda out: checks.check_phase_diagram(out, betas, gammas),
              mutate=checks.mutate_phase_diagram)


def survey(seed):
    rng = np.random.default_rng(seed)
    ops = [_phase_op(*README_PHASE)]
    # n = 3 grid whose corners move by at most 2% of the span between seeds
    b0, b1 = 0.5 + 0.06 * rng.random(), 3.5 + 0.06 * rng.random()
    g0, g1 = 0.1 + 0.014 * rng.random(), 0.8 + 0.014 * rng.random()
    ops.append(_phase_op("3", "{!r}:{!r}:19".format(b0, b1), "{!r}:{!r}:15".format(g0, g1)))

    curve_argv = ["energy-curve"] + ENERGY_CURVE["argv"] + [
        "--samples", str(ENERGY_CURVE["samples"]), "--format", "json"]
    ops.append(Op(name=argv_key(curve_argv), group="energy_curve", run=lambda: cli(curve_argv),
                  check=lambda out: checks.check_energy_curve(out, ENERGY_CURVE),
                  mutate=checks.mutate_energy_curve))

    draws = []
    for _ in range(100):
        n = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.5, 5.0))
        R = 1.0 + float(rng.uniform(1e-3, 4.0))
        draws.append((n, beta, R))

    def shooting():
        from calx import oracle_robin_shooting
        return [oracle_robin_shooting(n, beta, R) for n, beta, R in draws]

    ops.append(Op(name="oracle_robin_shooting x100 (cold)", group="oracle", run=shooting,
                  check=lambda out: checks.check_shooting(out, draws),
                  mutate=checks.mutate_shooting,
                  counts=lambda out: {"oracle.rk4_steps": rk4_steps(draws, 1e-4)}))

    def jump_search():
        from calx import oracle_1d_best
        return [oracle_1d_best(*data, resolution=1000)[1] for data, _ in JUMP_SEARCH]

    ops.append(Op(name="oracle_1d_best resolution 1000 x2", group="oracle", run=jump_search,
                  check=lambda out: checks.check_jump_search(out, [e for _, e in JUMP_SEARCH]),
                  mutate=checks.mutate_jump_search))

    sweep = sweep_inputs(rng)

    def radial_sweep():
        from calx import oracle_radial_sweep
        return oracle_radial_sweep(sweep["n"], sweep["beta"], sweep["gamma"], sweep["R"], sweep["delta"])

    ops.append(Op(name="oracle_radial_sweep 100x500", group="oracle", run=radial_sweep,
                  check=lambda out: checks.check_radial_sweep(
                      out, sweep["n"], sweep["beta"], sweep["gamma"], sweep["R"], sweep["delta"]),
                  mutate=checks.mutate_radial_sweep,
                  counts=lambda out: {"oracle.radial_sweep_rows": len(out.rows)}))
    return ops


def sweep_inputs(rng):
    """A 100 x 500 (R, delta) table: 49,501 scalar energy calls."""
    return {"n": int(rng.integers(1, 4)), "beta": float(rng.uniform(0.5, 3.0)),
            "gamma": float(rng.uniform(0.1, 0.6)),
            "R": np.linspace(1.0, 2.5 + rng.random(), 100).tolist(),
            "delta": np.linspace(0.002, 1.0, 500).tolist()}


def rk4_steps(draws, step):
    """RK4 steps a cold cache takes: one trajectory per dimension to the
    largest radius drawn, plus one partial step per draw (computed)."""
    full = {}
    partial = 0
    for n, _, R in draws:
        k = int((R - 1.0) / step)
        full[n] = max(full.get(n, 0), k)
        partial += (R - 1.0 - k * step) > 1e-15
    return sum(full.values()) + partial


WORKLOADS = {"certify": certify, "refute": refute, "survey": survey}
