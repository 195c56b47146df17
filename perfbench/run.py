"""calx benchmark runner: closed loop, one client, one fresh worker per pass.

    python3 perfbench/run.py --workload certify|refute|survey --seed N --seconds S --trace 0|1

Each pass runs in a new ``perfbench/worker.py`` process, because a calx
user pays the imports and the oracle's cold RK4 cache on every
invocation.  Passes follow one another until ``--seconds`` have gone by.
Set-up time is taken from process start to the worker's ``ready`` line,
on at least ``MIN_SETUPS`` workers.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run makes a plain pass, a traced pass and a plain pass
that then times the thread pools, and the last line holds the per-layer
metrics.  Lines before it give every metric by name and unit, the
operations that failed, and the machine and code the numbers come from.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 150
MIN_SETUPS = 5


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn(workload, seed, mode):
    """Run one worker; returns (set-up seconds, parsed result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, workload, str(seed), mode], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("worker failed (exit {}): {}".format(
            proc.returncode, (first + out + err).strip()[-2000:]))
    return setup, (json.loads(out.strip().splitlines()[-1]) if mode != "probe" else None)


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside a clone."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def provenance(args):
    import numpy
    import scipy

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import calx

    cpu = platform.processor() or None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "calx_version": calx.__version__, "git_commit": git_commit(),
            "cores": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "platform": platform.platform()}


def _median(values, default=0.0):
    return statistics.median(values) if values else default


def workload_latencies(passes):
    """Latencies that exist on some workloads only: each ``calx check`` that
    runs the verifier, the README-grid phase diagram (the first one of a
    survey pass) and the oracle block."""

    def group(name):
        return [[op["latency_s"] for op in p["ops"] if op["group"] == name] for p in passes]

    return {"check_s": _median([x for lat in group("check") for x in lat]),
            "phase_diagram_s": _median([lat[0] for lat in group("phase_diagram") if lat]),
            "oracle_s": _median([sum(lat) for lat in group("oracle") if lat])}


def pass_time(passes):
    """Time for one pass: the sum over its operations of each one's median latency.

    Operations run in the same order in every pass.  Taking the median per
    operation keeps a slow spell of the machine that hits one operation in
    one pass out of the figure.
    """
    per_op = zip(*([op["latency_s"] for op in p["ops"]] for p in passes))
    return sum(statistics.median(latencies) for latencies in per_op)


def tally(passes):
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    missed = [m for p in passes for m in p["selftest_missed"]]
    return len(ops), failed, missed


def measure(args):
    setups, passes = [], []
    if args.trace:
        # traced pass between two plain ones, so a slow spell of the machine
        # biases trace.overhead_s less
        for mode in ("plain", "traced", "speedups"):
            setup, result = spawn(args.workload, args.seed, mode)
            setups.append(setup)
            passes.append(result)
    else:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            setup, result = spawn(args.workload, args.seed, "plain")
            setups.append(setup)
            passes.append(result)
        while len(setups) < MIN_SETUPS:
            setups.append(spawn(args.workload, args.seed, "probe")[0])
    return setups, passes


def metrics_for(args, spec, setups, passes):
    if args.trace:
        before, traced, after = passes
        values = dict(traced["layers"])
        values.update(after["speedups"])
        values.update(workload_latencies([before, after]))
        values["trace.overhead_s"] = traced["wall_s"] - (before["wall_s"] + after["wall_s"]) / 2
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": _median(setups),
                  "wall_s": pass_time(passes),
                  "peak_rss_mb": _median([p["peak_rss_mb"] for p in passes])}
        wanted = spec["end_to_end"]
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted}


COMPUTED = ("verifier.b_pairs", "oracle.rk4_steps")


def _line(name, value, unit):
    label = name + " (computed)" if name in COMPUTED else name
    return "{:<40} {:>18} {}".format(label, "-" if value is None else "{:.6f}".format(value), unit)


def report(args, spec, setups, passes):
    """Print the summary lines and the result line."""
    metrics = metrics_for(args, spec, setups, passes)
    attempted, failed, missed = tally(passes)
    thread_problems = [m for p in passes for m in p.get("speedup_problems", [])]
    n_failed = len(failed) + len(thread_problems)

    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print("passes {}  workers {}  operations {}  failed {}  self-test mutants rejected {}, "
          "missed {}".format(len(passes), len(setups), attempted, n_failed,
                             sum(op["mutants"] for p in passes for op in p["ops"]), len(missed)))
    print("pass wall_s " + " ".join("{:.4f}".format(p["wall_s"]) for p in passes))
    print("worker setup_s " + " ".join("{:.4f}".format(x) for x in setups))
    if args.trace:
        traced = passes[1]
        print(_line("traced pass wall_s", traced["wall_s"], "s"))
        print(_line("verifier.b_s / traced pass wall_s", traced["layers"]["verifier.b_s"]
                    / traced["wall_s"], "ratio"))
    else:
        for name, value in workload_latencies(passes).items():
            print(_line(name, value or None, "s"))
    print(_line("fail_ratio", n_failed / attempted, "ratio"))
    for name, m in metrics.items():
        print(_line(name, m["value"], m["unit"]))
    for op in failed:
        print("FAILED {}: {}".format(op["name"], "; ".join(op["problems"])))
    for m in missed:
        print("SELF-TEST MISSED {}".format(m))
    for m in thread_problems:
        print("FAILED threads: {}".format(m))
    print(json.dumps({"correct": n_failed == 0 and not missed, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "calx", "__init__.py")):
        sys.stderr.write("error: no calx sources under {}\n".format(os.path.join(ROOT, "src")))
        return 2
    setups, passes = measure(args)
    report(args, spec, setups, passes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
