"""Spans around calls into the six calx modules, installed from outside.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces each
public calx function with a wrapper, in the module that defines it and in
every calx module that imported it by name, and wraps the
``PiecewiseField`` sampling methods, the verification report
serialisers and the constructor classmethods.  A wrapper records a span only
while ``Tracer.active`` is set, so the benchmark's own output checks run
untraced.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

import numpy as np

MODULES = ("potentials", "energy", "calibration_fields", "verifier", "oracle", "cli")

# methods wrapped in addition to the public functions: (module, class, name)
METHODS = (
    ("calibration_fields", "PiecewiseField", "evaluate"),
    ("calibration_fields", "PiecewiseField", "Psi"),
    ("calibration_fields", "PiecewiseField", "region_index"),
    ("calibration_fields", "CalibParams1D", "from_traces"),
    ("verifier", "VerificationReport", "to_json"),
    ("verifier", "VerificationReport", "summary_table"),
    ("verifier", "VerificationReport", "infeasible"),
)

CONSTRUCTORS = ("calibration_fields.CalibParams1D.from_traces",
            "calibration_fields.build_field_1d",
            "calibration_fields.build_field_harmonic",
            "calibration_fields.build_field_indicator_const",
            "calibration_fields.build_field_indicator_two_piece",
            "calibration_fields.build_field_ball_harmonic",
            "calibration_fields.radial_shell_profile",
            "calibration_fields.affine_profile")

AXIOM_SPANS = {"a": "verifier.check_condition_a",
               "b": "verifier.check_condition_b",
               "graph": "verifier.check_graph_conditions",
               "divflux": "verifier.check_divergence_and_flux"}


def _points(args, kwargs):
    """Largest array argument size; 0 when every argument is a scalar."""
    size = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray) and value.ndim:
            size = max(size, value.size)
    return size


class Tracer:
    """In-memory span recorder for one traced pass.

    A span is ``(name, start, end, parent, points)``; its id is its index
    in ``spans`` and ``parent`` is the id of the enclosing span or -1.
    All spans of the tracer share ``run_id``.  ``counters`` holds counts
    taken from return values at the same boundaries.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.counters = {"verifier.violations_counted": 0,
                         "verifier.violations_recorded": 0,
                         "verifier.b_pairs": 0}
        self.active = False
        self.origin = time.perf_counter()

    def span(self, name, fn, points=0):
        """Run ``fn()`` inside a span named ``name`` (for the benchmark's own steps)."""
        return self._call(name, fn, (), {}, points)

    def _call(self, name, fn, args, kwargs, points):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, points)

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            result = tracer._call(name, fn, args, kwargs, _points(args, kwargs))
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w") as handle:
            for i, (name, start, end, parent, points) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "run": self.run_id,
                    "start": start - self.origin, "end": end - self.origin,
                    "points": points}) + "\n")


def _count_violations(counters, args, kwargs, result):
    for res in result if isinstance(result, tuple) else (result,):
        counters["verifier.violations_counted"] += int(res.n_violations)
        counters["verifier.violations_recorded"] += len(res.violations)


def _count_b_pairs(counters, args, kwargs, result):
    _count_violations(counters, args, kwargs, result)
    config = args[2] if len(args) > 2 else kwargs.get("config")
    if config is None:
        from calx.verifier import VerifyConfig
        config = VerifyConfig()
    pairs = config.pair_res * (config.pair_res - 1) // 2
    counters["verifier.b_pairs"] += config.pos_res * pairs


HOOKS = {"verifier.check_condition_a": _count_violations,
         "verifier.check_condition_b": _count_b_pairs,
         "verifier.check_graph_conditions": _count_violations,
         "verifier.check_divergence_and_flux": _count_violations}


def install(tracer):
    """Wrap every public calx function and the methods listed in ``METHODS``."""

    import calx

    modules = {name: importlib.import_module("calx." + name) for name in MODULES}
    public = [getattr(calx, name) for name in calx.__all__] + [modules["cli"].main]
    wrappers = {}
    for fn in public:
        if not isinstance(fn, types.FunctionType) or not fn.__module__.startswith("calx."):
            continue
        name = fn.__module__[len("calx."):] + "." + fn.__name__
        wrappers[fn] = tracer.wrap(name, fn, HOOKS.get(name))
    for module in (calx, *modules.values()):
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
    for module_name, class_name, method in METHODS:
        cls = getattr(modules[module_name], class_name)
        raw = vars(cls)[method]
        span_name = "{}.{}.{}".format(module_name, class_name, method)
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(span_name, raw.__func__)))
        else:
            setattr(cls, method, tracer.wrap(span_name, raw))


def _module_of(name):
    return name.split(".", 1)[0]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer totals from the spans and counters of one traced pass.

    ``potentials.*`` counts calls into potentials from another module or
    the benchmark; calls potentials makes to itself sit inside those.  A
    constructor's time counts once, however constructors nest.  ``cli.self_s`` is
    the time in ``cli.main`` not covered by any span it caused.
    """

    spans = tracer.spans
    total, calls, points = {}, {}, {}
    child = [0.0] * len(spans)
    build_s = self_s = pot_scalar_s = 0.0
    pot_calls = pot_scalar = 0
    for name, start, end, parent, pts in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        points[name] = points.get(name, 0) + max(pts, 1)
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, parent, pts) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name in CONSTRUCTORS and parent_name not in CONSTRUCTORS:
            build_s += end - start
        if _module_of(name) == "potentials" and _module_of(parent_name) != "potentials":
            pot_calls += 1
            if pts == 0:
                pot_scalar += 1
                pot_scalar_s += end - start
        if name == "cli.main":
            self_s += (end - start) - child[i]

    def t(name):
        return total.get(name, 0.0)

    out = {"verifier.{}_s".format(axiom): t(name) for axiom, name in AXIOM_SPANS.items()}
    out["verifier.report_s"] = (t("verifier.VerificationReport.to_json")
                                + t("verifier.VerificationReport.summary_table"))
    out.update(tracer.counters)
    out["verifier.b_pairs_per_s"] = _ratio(out["verifier.b_pairs"], out["verifier.b_s"])
    out["calibration_fields.points_classified"] = 0
    for method in ("evaluate", "Psi", "region_index"):
        name = "calibration_fields.PiecewiseField." + method
        out["calibration_fields.{}_calls".format(method)] = calls.get(name, 0)
        out["calibration_fields.{}_points".format(method)] = points.get(name, 0)
        out["calibration_fields.{}_s".format(method)] = t(name)
        out["calibration_fields.points_classified"] += points.get(name, 0)
    out["calibration_fields.build_s"] = build_s
    for metric, name in (("monotonicity_margin", "energy.indicator_monotonicity_margin"),
                         ("critical_radii", "energy.critical_radii")):
        out["energy.{}_calls".format(metric)] = calls.get(name, 0)
        out["energy.{}_s".format(metric)] = t(name)
    out["energy.radial_general_calls"] = calls.get("energy.energy_radial_general", 0)
    out["energy.radial_general_us"] = _ratio(t("energy.energy_radial_general"),
                                             out["energy.radial_general_calls"], 1e6)
    out["potentials.calls"] = pot_calls
    out["potentials.scalar_calls"] = pot_scalar
    out["potentials.scalar_us"] = _ratio(pot_scalar_s, pot_scalar, 1e6)
    out["oracle.shooting_s"] = t("oracle.oracle_robin_shooting")
    out["oracle.jump_search_s"] = t("oracle.oracle_1d_best")
    out["oracle.radial_sweep_s"] = t("oracle.oracle_radial_sweep")
    out["cli.self_s"] = self_s
    return out
