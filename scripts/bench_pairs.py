#!/usr/bin/env python3
"""Compare two checkouts on the perfbench workloads, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --topic TOPIC [--workload W ...]

PARENT and CHANGE are the roots of two checkouts.  Pair i, for i = 0..9, runs
`python3 perfbench/run.py --workload W --seed i` once in each of them,
the parent first in even pairs and the change first in odd ones, so a drift
in machine speed does not favour either side.  The result goes to
BENCH_<TOPIC>.json in the current directory: for every workload, the runs,
median and quartiles of each end-to-end metric (with, alongside `setup_s`,
`setup_wall_s`: the median unscaled set-up wall time of the run's set-up
samples) and of each stage time, the
number of pairs in which the change is better, whether every change run is
better than every parent run, the `failed` and `attempted` counts of every
run, its operation count (how many times the workload operation ran), and
whether the output fingerprints of the two runs of a pair are equal.
Quartiles are those of the inclusive (linear) method.

Then it prints one line per workload and end-to-end metric with the medians,
their change, the parent's quartiles and whether every change run is better
than every parent run; the `peak_rss_mb` line also gives each side's median
operation count, since a faster operation runs more times in the same
seconds and can read a higher peak.  It exits with status 1 if any run
failed a check.
A median change inside the parent's quartiles is unresolved, not unchanged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # pair i runs seed i


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd[1:])} failed in {checkout} with code {proc.returncode}")
    record = json.loads((checkout / ".perfbench-out" / f"{workload}-seed{seed}-trace0.json").read_text())
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    # set-up wall time, not scaled by the speed probe as setup_s is
    metrics["setup_wall_s"] = statistics.median(s["setup_wall_s"] for s in record["setups"])
    return {
        "metrics": metrics,
        "stages": record["stages"],
        "failed": record["failed"],
        "attempted": record["attempted"],
        "ops": len(record["ops"]),
        "fingerprint": record["ops"][0]["fingerprint"],
        "env": record["env"],
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(runs: dict, group: str, name: str, lower_is_better: bool) -> dict:
    parent, change = ([r[group][name] for r in runs[side]] for side in SIDES)
    better = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    out = {"parent": spread(parent), "change": spread(change)}
    out["change_better_in_pairs"] = f"{better}/{len(parent)}"
    out["every_change_run_better"] = max(change) < min(parent) if lower_is_better else min(change) > max(parent)
    out["median_change_pct"] = 100 * (out["change"]["median"] / out["parent"]["median"] - 1)
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--topic", required=True)
    p.add_argument("--workload", action="append", dest="workloads")
    args = p.parse_args()
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    workloads = args.workloads or ["gasket", "ca-verify", "oracle"]
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}

    result, env = {}, None
    for workload in workloads:
        runs = {side: [] for side in SIDES}
        for seed in range(PAIRS):
            for side in SIDES if seed % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(checkouts[side], workload, seed))
                print(f"{workload} seed {seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
        env = runs["change"][0]["env"]
        stages = sorted(set.intersection(*(set(r["stages"]) for side in SIDES for r in runs[side])))
        result[workload] = {
            "end_to_end": {m: compare(runs, "metrics", m, lower.get(m, True)) for m in runs["change"][0]["metrics"]},
            "stages": {s: compare(runs, "stages", s, True) for s in stages},
            "failed": {side: [r["failed"] for r in runs[side]] for side in SIDES},
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
            "ops": {side: [r["ops"] for r in runs[side]] for side in SIDES},
            "equal_fingerprints_in_pairs": "{}/{}".format(
                sum(a["fingerprint"] == b["fingerprint"] for a, b in zip(runs["parent"], runs["change"])),
                PAIRS,
            ),
        }
    out = {
        "topic": args.topic,
        "machine": {k: env[k] for k in ("nproc", "python", "numpy") if k in env},
        "method": (
            f"{PAIRS} pairs per workload of `python3 perfbench/run.py --workload W --seed N`, "
            f"N = 0..{PAIRS - 1}, parent and change alternating which runs first; metrics, stages "
            "and fingerprints from the run's record in .perfbench-out; quartiles by the inclusive method"
        ),
        "workloads": result,
    }
    path = Path(f"BENCH_{args.topic}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    failed = False
    for workload, res in result.items():
        ops = " -> ".join(f"{statistics.median(res['ops'][side]):g}" for side in SIDES)
        for name, c in res["end_to_end"].items():
            print(f"{workload} {name}: {c['parent']['median']:.4g} -> {c['change']['median']:.4g} "
                  f"({c['median_change_pct']:+.1f}%), change better in {c['change_better_in_pairs']} pairs, "
                  f"parent q1-q3 {c['parent']['q1']:.4g}-{c['parent']['q3']:.4g}, "
                  f"every change run better: {'yes' if c['every_change_run_better'] else 'no'}"
                  + (f", median operations {ops}" if name == "peak_rss_mb" else ""))
        for side, counts in res["failed"].items():
            if any(counts):
                failed = True
                print(f"{workload}: {side} runs failed checks: {counts}")
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
