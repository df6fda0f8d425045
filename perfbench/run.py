#!/usr/bin/env python3
"""Benchmark of the latticegames solver and compiler.

    python3 perfbench/run.py [--workload gasket|ca-verify|oracle|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ./src.  Each
workload runs in fresh worker processes, one after another, each on one
thread: first a few that only set up (for the set-up time), then one that
repeats the workload operation for up to S seconds.  The metrics are printed by
name with their units; the last stdout line is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.  With
--trace 1 they are the per-layer ones from a traced run (see tracing.py).
Each run also writes its full record, with input fingerprints and spans, to
.perfbench-out/ in the checkout.  See README.md for the workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("gasket", "ca-verify", "oracle")
SETUP_SAMPLES = 7  # set-up time is the median over this many fresh processes
WORKLOAD_BUDGET_S = 170  # wall-clock limit for all processes of one workload

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
STAGES = ("solve_s", "compile_s", "verify_s", "probe_s", "topdown_s")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def spawn(workload, seed, seconds, trace, setup_only, deadline):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} worker ran past the {WORKLOAD_BUDGET_S} s budget and was stopped")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Run one workload; return (metrics, attempted, failed, record)."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = [spawn(workload, seed, seconds, trace, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(workload, seed, seconds, trace, False, deadline)
    setups.append({k: main[k] for k in ("setup_s", "setup_wall_s", "digest")})
    checks = main["checks"]
    # every process must generate the same inputs from the seed
    mismatched = sum(s["digest"] != main["digest"] for s in setups)
    attempted = checks["attempted"] + len(setups)
    failed = checks["failed"] + mismatched
    if mismatched:
        checks["failures"].append(f"input fingerprint differs between processes in {mismatched} of {len(setups)}")

    if trace:
        metrics = {k: tuple(v) for k, v in main["per_layer"].items()}
        metrics.update({"stage." + st: (main["stages"].get(st, 0.0), "s") for st in STAGES})
    else:
        values = {
            "run_s": main["run_s"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    record = dict(main, setups=setups, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
    return metrics, attempted, failed, record


def report(workload, metrics, attempted, failed, record, trace):
    env = record["env"]
    print(f"== {workload}  seed {record['seed']}  {len(record['ops'])} operations  "
          f"python {env['python']}  numpy {env['numpy']}  numba {'yes' if env['numba'] else 'no'}  "
          f"nproc {env['nproc']}")
    print(f"   inputs: {json.dumps(record['digest'], sort_keys=True)}")
    print(f"   outputs: {json.dumps(record['ops'][0]['fingerprint'], sort_keys=True)}")
    if not trace:
        plain = record["ops"]
        print(f"   speed: median wall {statistics.median(op['wall_s'] for op in plain):.4g} s, "
              f"mean probe {statistics.median(op['probe_mean_s'] for op in plain) * 1e3:.4g} ms "
              f"over {sum(op['probes'] for op in plain)} probes (reference {record['reference_probe_s'] * 1e3:.4g} ms)")
    rows = dict(metrics)
    if not trace:
        for stage in STAGES:
            if stage in record["stages"]:
                rows[stage] = (record["stages"][stage], "s")
    rows["failed_share"] = (failed / attempted, "ratio")
    for name, (value, unit) in rows.items():
        print(f"   {name:<44} {value:>16.6g} {unit}")
    for line in record["checks"]["failures"]:
        print(f"   FAILED {line}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "latticegames").is_dir():
        raise SystemExit(f"no library sources under {ROOT / 'src'}; run from a full checkout")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    out = {}
    for name in names:
        metrics, attempted, failed, record = measure(name, args.seed, args.seconds, args.trace)
        report(name, metrics, attempted, failed, record, args.trace)
        total_attempted += attempted
        total_failed += failed
        prefix = "" if len(names) == 1 else name + "."
        out.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": out}))


if __name__ == "__main__":
    main()
