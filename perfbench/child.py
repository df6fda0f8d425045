"""Worker process of the benchmark: one workload at one seed in a fresh
interpreter.  run.py starts it; it is not meant to be run by hand.

    child.py --workload W --seed N --seconds S --trace 0|1 --spawned-at T [--setup-only]

T is CLOCK_MONOTONIC read by the parent just before the start, so set-up time
counts interpreter start, imports and input generation; it is scaled to the
reference machine speed by probes run right after set-up (speed.py).  With
--setup-only the worker stops there.  Otherwise it repeats the workload
operation while the next one fits in S seconds (at least once); untraced
operations are timed under a speed Sampler.  With --trace 1 untraced and
traced operations alternate (at least one of each), and nothing is scaled.
The last stdout line is one JSON object with the results.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


SETUP_PROBES = 40


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def import_library(root):
    src = root / "src"
    sys.path.insert(0, str(src))
    import latticegames

    if src.resolve() not in Path(latticegames.__file__).resolve().parents:
        raise SystemExit(f"latticegames was imported from {latticegames.__file__}, not from {src}")


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main():
    args = parse_args()
    import_library(Path(__file__).resolve().parent.parent)
    import speed
    import tracing
    import workloads

    build, digest, run, check = workloads.WORKLOADS[args.workload]
    input_digest = digest(build(args.seed))
    setup_s = monotonic() - args.spawned_at
    # machine speed right after set-up, to scale set-up time like the run
    setup_probe = speed.Sampler(speed.PROBES["setup"])
    setup_factor = setup_probe.factor([setup_probe.probe() for _ in range(SETUP_PROBES)])
    setup = {"setup_s": setup_s * setup_factor, "setup_wall_s": setup_s, "digest": input_digest}
    if args.setup_only:
        print(json.dumps(setup))
        return

    checks = workloads.Checks()
    ops = []
    tracer = tracing.Tracer()
    # untraced timings are scaled to the reference machine speed (speed.py)
    sampler = None if args.trace else speed.Sampler(speed.PROBES[args.workload])

    # with --trace 1, operations alternate untraced and traced, so both kinds
    # see the same machine load and their difference is the tracing overhead;
    # a run stops before an operation that would end past the deadline, judged
    # by the slowest so far, so the operation count does not flip with small
    # speed changes
    start = time.perf_counter()
    slowest = 0.0
    while True:
        op_id = len(ops)
        traced = bool(args.trace) and op_id % 2 == 1
        inputs = build(args.seed)
        checks.add("input-fingerprint", 1, digest(inputs) != input_digest)
        stages = {}
        t0 = time.perf_counter()
        with tracer.installed() if traced else sampler or contextlib.nullcontext():
            w0 = speed.work_clock()
            if traced:
                with tracer.operation(op_id):
                    out = run(inputs, stages)
            else:
                out = run(inputs, stages)
            work_s = speed.work_clock() - w0
        op = {"id": op_id, "traced": traced, "run_s": work_s, "stages": stages}
        if sampler:
            factor = sampler.factor()
            op.update(run_s=work_s * factor, stages={k: v * factor for k, v in stages.items()},
                      wall_s=time.perf_counter() - t0, work_s=work_s, probes=len(sampler.samples),
                      probe_mean_s=statistics.fmean(sampler.samples),
                      probe_median_s=statistics.median(sampler.samples))
        op["fingerprint"] = check(inputs, out, checks)
        del out, inputs
        ops.append(op)
        slowest = max(slowest, time.perf_counter() - t0)
        enough = not args.trace or len(ops) >= 2
        if enough and time.perf_counter() - start + slowest > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # outputs of one seed must repeat exactly from operation to operation
    first = ops[0]["fingerprint"]
    checks.add("output-fingerprint", len(ops), sum(op["fingerprint"] != first for op in ops))

    plain = [op for op in ops if not op["traced"]]
    stage_names = sorted({k for op in ops for k in op["stages"]})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        **setup,
        "env": environment(),
        "ops": ops,
        "run_s": statistics.median(op["run_s"] for op in plain),
        "stages": {k: statistics.median(op["stages"].get(k, 0.0) for op in plain) for k in stage_names},
        "peak_rss_mb": peak_rss_mb,
        "reference_probe_s": speed.reference(speed.PROBES[args.workload]),
    }
    if args.trace:
        traced = [op for op in ops if op["traced"]]
        layers = [tracing.layer_metrics(tracer.spans, op["id"], op["run_s"]) for op in traced]
        # counts of one seed must repeat exactly between traced operations
        counts = [k for k in layers[0] if tracing.unit_of(k) == "count"]
        checks.add("layer-counts", len(layers), sum(any(m[k] != layers[0][k] for k in counts) for m in layers))
        per_layer = tracing.median_metrics(layers)
        per_layer["trace.overhead_s"] = statistics.median(op["run_s"] for op in traced) - result["run_s"]
        result["per_layer"] = {k: (v, tracing.unit_of(k)) for k, v in per_layer.items()}
        result["spans"] = [s.as_record() for s in tracer.spans]
    result["checks"] = {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
