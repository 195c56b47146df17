"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py <workload> <seed> <mode>

``mode`` is ``probe`` (import and exit), ``plain`` (one pass), ``traced``
(one pass with spans on) or ``speedups`` (a plain pass followed by the
thread-pool measurements).  The worker prints ``ready`` once numpy, scipy
and calx are imported, so the parent can time set-up from process start,
then one JSON line with the pass results.
calx is imported from ``src/`` of the checkout that holds this file.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_calx():
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import calx
    import calx.cli  # noqa: F401

    if not os.path.abspath(calx.__file__).startswith(SRC + os.sep):
        raise ImportError("calx was imported from {}, not {}".format(calx.__file__, SRC))


def run_pass(ops, tracer):
    """Run every operation once; returns (outputs, latencies, errors, wall seconds)."""
    outputs, latencies, errors = [], [], []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = tracer.span("op." + op.group, op.run) if tracer else op.run()
            errors.append(None)
        except Exception as exc:  # an operation that raises is a failed operation
            out = None
            errors.append("{}: {}".format(type(exc).__name__, exc))
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    return outputs, latencies, errors, time.perf_counter() - start


def check_ops(ops, outputs, errors):
    """Check each output, then check that each mutation of a good output is rejected."""
    records = []
    missed = []
    for op, out, error in zip(ops, outputs, errors):
        if error is None:
            try:
                problems = op.check(out)
            except Exception as exc:
                problems = ["checker raised {}: {}".format(type(exc).__name__, exc)]
        else:
            problems = [error]
        mutants = 0
        if not problems:
            for k, bad in enumerate(op.mutate(out)):
                mutants += 1
                try:
                    caught = bool(op.check(bad))
                except Exception:
                    caught = True
                if not caught:
                    missed.append("{} mutation #{}".format(op.name, k))
        records.append({"name": op.name, "group": op.group, "problems": problems[:5],
                        "mutants": mutants})
    return records, missed


def measure_speedups():
    """Thread-pool speed-ups on fixed inputs: time at 1 thread / time at 2 threads."""
    import numpy as np
    from calx import VerifyConfig, build_field_ball_harmonic, check_condition_b, oracle_radial_sweep

    import workloads

    n, beta, R = 2, 2.0, 2.0
    field = build_field_ball_harmonic(n, beta, workloads.critical_gamma(n, beta, R), R)
    times, results, problems = {}, {}, []
    for threads in (1, 2):
        config = VerifyConfig(pos_res=512, t_res=512, pair_res=512, threads=threads)
        t0 = time.perf_counter()
        res = check_condition_b(field, beta, config)
        times[("b", threads)] = time.perf_counter() - t0
        results[("b", threads)] = (res.n_violations, res.worst_margin)
    sweep = workloads.sweep_inputs(np.random.default_rng(0))
    for threads in (1, 2):
        t0 = time.perf_counter()
        res = oracle_radial_sweep(sweep["n"], sweep["beta"], sweep["gamma"],
                                  sweep["R"], sweep["delta"], threads=threads)
        times[("sweep", threads)] = time.perf_counter() - t0
        results[("sweep", threads)] = (len(res.rows), res.best_index, res.best.total)
    for key in ("b", "sweep"):
        if results[(key, 1)] != results[(key, 2)]:
            problems.append("{} differs between 1 and 2 threads: {} vs {}".format(
                key, results[(key, 1)], results[(key, 2)]))
    metrics = {"verifier.b_speedup_2t": times[("b", 1)] / times[("b", 2)],
               "oracle.radial_sweep_speedup_2t": times[("sweep", 1)] / times[("sweep", 2)]}
    return metrics, problems


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    _import_calx()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if mode == "probe":
        return 0

    import json
    import resource

    import tracing
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer("{}:{}:traced".format(workload, seed))
        tracing.install(tracer)
        tracer.active = True
    outputs, latencies, errors, wall = run_pass(ops, tracer)
    if tracer is not None:
        tracer.active = False
    records, missed = check_ops(ops, outputs, errors)
    for record, latency in zip(records, latencies):
        record["latency_s"] = latency
    result = {"wall_s": wall, "ops": records, "selftest_missed": missed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        for op, out, error in zip(ops, outputs, errors):
            if error is None:
                layers.update(op.counts(out))
        result["layers"] = layers
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "spans-{}.jsonl".format(workload)))
    if mode == "speedups":
        result["speedups"], result["speedup_problems"] = measure_speedups()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
