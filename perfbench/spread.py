#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload replay-hits --seeds 1-10 \
        [--seconds 20] [--trace 0] [--bench BENCHMARK.json] [--log DIR]

For every metric: the median, the quartiles (statistics.quantiles with
n=4) and the interquartile distance as a share of the median, flagged when
it exceeds a third of the metric's bound in BENCHMARK.json. Run from the
root of a checkout; each run is one perfbench/run.py invocation. With
--log, each run's whole output is kept as DIR/<workload>-<seed>.txt.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--log")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if args.log:
            os.makedirs(args.log, exist_ok=True)
            path = os.path.join(args.log, "%s-%d.txt" % (args.workload, seed))
            with open(path, "w") as f:
                f.write(out.stdout + out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            print("seed %d: exit %d\n%s%s" % (seed, out.returncode, out.stdout,
                                             out.stderr[-2000:]))
            sys.exit(1)
        result = json.loads(lines[-1])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-24s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3",
                                            "spread", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- over a third of the bound"
        print("%-24s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
            name, med, q1, q3, spread, bound if bound is not None else "-", flag))


if __name__ == "__main__":
    main()
