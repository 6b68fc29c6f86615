#!/usr/bin/env python3
"""Steadiness of the benchmark: run one workload under several seeds.

    python3 bench/steady.py --workload window [--holdout]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every metric its median, quartiles and the spread (q3 - q1) / median
that the bounds in BENCHMARK.json are set against.  It also prints the
share of failed operations, which must be the same in every run.
Seeds 1-10 are used to tune; ``--holdout`` runs seeds 1001-1010, kept
back to confirm a claim on inputs it was not tuned on.  A summary is
written to ``bench/results/steady-<workload>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
HOLDOUT = list(range(1001, 1011))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--holdout", action="store_true", help="use the held-out seeds 1001-1010")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = HOLDOUT if args.holdout else SEEDS

    runs = []
    for seed in seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
        last = json.loads(proc.stdout.splitlines()[-1])
        runs.append(last)
        share = last["failed"] / last["attempted"]
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} failed share={share:.6f}", flush=True)

    summary = {"workload": args.workload, "seeds": seeds, "seconds": seconds, "metrics": {}}
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}")
    summary["failed_shares"] = sorted({r["failed"] / r["attempted"] for r in runs})
    summary["all_correct"] = all(r["correct"] for r in runs)
    print(f"failed shares: {summary['failed_shares']}; all correct: {summary['all_correct']}")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"steady-{args.workload}.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
