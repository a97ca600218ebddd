#!/usr/bin/env python3
"""Tracing overhead: the traced run's end-to-end numbers minus the untraced
run's, per workload, for one seed. Run from the root of a checkout:

    python3 perfbench/overhead.py --seed 1 --seconds 36

Both runs print their end-to-end metrics on an "end_to_end:" line; this
script runs run.py with --trace 0 and --trace 1 and prints the difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def end_to_end(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit("run.py failed for %s trace %d:\n%s" % (workload, trace,
                                                         p.stderr[-2000:]))
    for line in p.stdout.splitlines():
        if line.startswith("end_to_end: "):
            return json.loads(line[len("end_to_end: "):])
    sys.exit("no end_to_end line from run.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = ap.parse_args()
    print("%-16s %-16s %12s %12s %12s %8s" % (
        "workload", "metric", "untraced", "traced", "traced-off", "ratio"))
    for w in args.workload or run.WORKLOADS:
        off = end_to_end(w, args.seed, args.seconds, 0)
        on = end_to_end(w, args.seed, args.seconds, 1)
        for name, unit in run.END_TO_END:
            print("%-16s %-16s %12.4f %12.4f %12.4f %8.3f  %s" % (
                w, name, off[name], on[name], on[name] - off[name],
                on[name] / off[name] if off[name] else float("nan"), unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
