#!/usr/bin/env python3
"""The repo benchmark: builds the harness, runs one workload, prints metrics.

    python3 perfbench/run.py --workload star_join --seed 1 --seconds 36 --trace 0

Run from the root of a checkout. The harness (perfbench/harness.cc) is built
from source into $CARGO_TARGET_DIR (default .bench_build). One benchmark run
starts PROCS harness processes one after another, each measuring
seconds / PROCS, and reports the median over processes: every process
calibrates the host again, and the join plan that calibration picks differs
between processes (README.md, "Plan modes"), so a run samples several of
them. Per-process records, spans included, go to .bench_out/.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. The lines before it print every metric with its unit and sample
count, and the environment and join plan each process got.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("star_join", "serving_ingest")
PROCS = 16
RUN_LIMIT_S = 170  # all harness processes of one run together

# Sample class each workload's query_p50_ms is taken from.
HEADLINE = {"star_join": "query", "serving_ingest": "analytic"}

END_TO_END = (("setup_s", "s"), ("queries_per_s", "1/s"),
              ("query_p50_ms", "ms"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("bat.table_build_ms", "ms"), ("bat.table_mb", "MB"),
    ("model.calib_ms", "ms"), ("model.calib_tlb_entries", "count"),
    ("model.calib_tlb_walk_ns", "ns"), ("model.stats_fill_ms", "ms"),
    ("model.lower_ms_p50", "ms"), ("model.join_bits", "count"),
    ("model.join_passes", "count"), ("model.join_pred_over_meas", "ratio"),
    ("model.groupby_pred_over_meas", "ratio"),
    ("model.card_qerror_max", "ratio"),
    ("exec.execute_ms_p50", "ms"), ("exec.scan_select_ms", "ms"),
    ("exec.join_ms", "ms"), ("exec.join_cluster_inner_ms", "ms"),
    ("exec.join_cluster_probe_ms", "ms"), ("exec.join_probe_ms", "ms"),
    ("exec.join_partition_tasks", "count"), ("exec.groupby_ms", "ms"),
    ("serve.point_queue_ms_p99", "ms"), ("serve.point_exec_ms_p50", "ms"),
    ("serve.analytic_exec_ms_p50", "ms"),
    ("serve.plan_cache_hit_ratio", "ratio"),
    ("serve.plan_cache_invalidations", "count"),
    ("serve.shared_fanout_ratio", "ratio"),
    ("serve.filter_reuse_ratio", "ratio"), ("serve.shared_overflows", "count"),
    ("serve.rejected", "count"),
    ("mem.minor_faults_per_query", "count"), ("mem.major_faults", "count"),
    ("mem.large_allocs_per_query", "count"),
    ("mem.large_mapped_mb_per_query", "MB"),
    ("mem.small_allocs_per_query", "count"), ("mem.anon_huge_mb", "MB"),
    ("mem.thp_mode", "enum"),
    ("util.cpu_util", "ratio"), ("util.ctx_switches_per_query", "count"),
)

TAIL_LADDER = (0.5, 0.75, 0.9, 0.99, 0.999)


def tail(values, cap=TAIL_LADDER[-1]):
    """The highest percentile of TAIL_LADDER (at most `cap`) that has at
    least ten samples beyond it: (q, value, n), or None with too few."""
    s = sorted(values)
    best = None
    for q in TAIL_LADDER:
        if q > cap:
            break
        idx = max(0, math.ceil(q * len(s)) - 1)
        if len(s) - (idx + 1) >= 10:
            best = (q, s[idx], len(s))
    return best


def median(values):
    return statistics.median(values) if values else 0.0


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configures and builds the harness; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    exe = os.path.join(out, "perfbench_harness")
    return exe if os.path.exists(exe) else None


def run_procs(exe, args):
    """Runs the harness PROCS times in sequence; returns their records, or
    None when one fails or all together outlast RUN_LIMIT_S."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    records = []
    for i in range(PROCS):
        path = os.path.join(out_dir, "%s%s-seed%d-trace%d-proc%d.json" % (
            args.workload, "-tiny" if args.tiny else "", args.seed,
            args.trace, i))
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / PROCS),
               "--trace", str(args.trace), "--proc", str(i), "--out", path]
        if args.tiny:
            cmd.append("--tiny")
        limit = deadline - time.monotonic()
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=limit).returncode
        except subprocess.TimeoutExpired:
            print("harness process %d timed out" % i, file=sys.stderr)
            return None
        if rc != 0:
            print("harness process %d exited with %d" % (i, rc),
                  file=sys.stderr)
            return None
        with open(path) as f:
            records.append(json.load(f))
    return records


def queries(rec):
    s = rec["samples"]
    return len(s.get("query", [])) + len(s.get("point", [])) + \
        len(s.get("analytic", []))


def pooled(records, key):
    out = []
    for r in records:
        out.extend(r["samples"].get(key, []))
    return out


def end_to_end(workload, records):
    """Latency pools the processes' queries. Throughput, set-up time and
    peak RSS are the median process's: the plan a process draws changes
    all three (README.md, "Plan modes"), and a mean over a run's processes
    would move with how many of them drew the slower plan."""
    return {
        "setup_s": median([r["setup_s"] for r in records]),
        "queries_per_s": median([queries(r) / r["measure_s"]
                                 for r in records]),
        "query_p50_ms": median(pooled(records, HEADLINE[workload])),
        "peak_rss_mb": median([r["env"]["peak_rss_mb"] for r in records]),
    }


def per_layer(records):
    m = {}
    for name, _ in PER_LAYER:
        m[name] = median([r["layer"][name] for r in records
                          if name in r["layer"]])
    point_queue = tail(pooled(records, "point_queue"), cap=0.99)
    m["serve.point_queue_ms_p99"] = point_queue[1] if point_queue else 0.0
    m["serve.point_exec_ms_p50"] = median(pooled(records, "point_exec"))
    m["serve.analytic_exec_ms_p50"] = median(pooled(records, "analytic_exec"))
    return m


def describe(name, values, cap):
    """A median with its sample count, or a tail by the rule of tail()."""
    if cap == 0.5:
        return "%-22s %10.4f ms  p50 of %d samples" % (name, median(values),
                                                      len(values))
    t = tail(values, cap)
    if t is None:
        return "%-22s %d samples: too few for a tail" % (name, len(values))
    note = "" if t[0] == cap else " (p%g: too few samples for p%g)" % (
        100 * t[0], 100 * cap)
    return "%-22s %10.4f ms  p%g of %d samples%s" % (
        name, t[1], 100 * t[0], t[2], note)


def report(args, records):
    """Prints the human-readable lines: every metric with its unit and
    sample count, the serving classes' percentiles, and the environment and
    join plan of each process. Returns the end-to-end metrics."""
    w = args.workload
    e2e = end_to_end(w, records)
    n_proc = len(records)
    print("workload %s seed %d: %d processes x %.2f s, trace %d" % (
        w, args.seed, n_proc, args.seconds / n_proc, args.trace))
    head = pooled(records, HEADLINE[w])
    how = {"setup_s": "n=%d: median over processes" % n_proc,
           "queries_per_s": "n=%d: median over processes; %d queries "
                            "in %.1f s" % (n_proc,
                                           sum(queries(r) for r in records),
                                           sum(r["measure_s"] for r in records)),
           "query_p50_ms": "n=%d: p50 of %s latencies" % (len(head),
                                                          HEADLINE[w]),
           "peak_rss_mb": "n=%d: median over processes" % n_proc}
    for name, unit in END_TO_END:
        print("  %-22s %12.4f %-4s (%s)" % (name, e2e[name], unit, how[name]))
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print("  %-22s %12.6f ratio (%d of %d queries and appends)" % (
        "fail_ratio", failed / max(attempted, 1), failed, attempted))
    if w == "serving_ingest":
        point, analytic = pooled(records, "point"), pooled(records, "analytic")
        appends = pooled(records, "append")
        print("  " + describe("point_p50_ms", point, 0.5))
        print("  " + describe("point_p99_ms", point, 0.99))
        print("  " + describe("analytic_p50_ms", analytic, 0.5))
        print("  " + describe("analytic_p90_ms", analytic, 0.9))
        print("  " + describe("append_p50_ms", appends, 0.5))
    else:
        print("  " + describe("query_tail_ms", head, 0.99))
    print("  record per process:")
    for i, r in enumerate(records):
        e, t = r["env"], r["env_text"]
        plan = "no join"
        if "join_bits" in e:
            plan = "%s B=%d passes=%d" % (t.get("join_algorithm", "?"),
                                          e["join_bits"], e["join_passes"])
        print("    proc %d: nproc=%d thp=%s anon_huge_mb=%.0f "
              "tlb_entries=%d tlb_walk_ns=%.1f profile=%s join=%s "
              "p50=%.3f ms" % (i, e["nproc"], t["thp_mode"],
                               e["anon_huge_mb"], e["calib_tlb_entries"],
                               e["calib_tlb_walk_ns"], t["profile"], plan,
                               median(r["samples"].get(HEADLINE[w], []))))
        for err in r["errors"]:
            print("      failure: %s" % err)
    print("end_to_end: " + json.dumps(e2e))
    return e2e


def summarize_spans(records):
    """Self time per span name, summed over the run's processes."""
    agg = {}
    for r in records:
        for s in r.get("spans", []):
            a = agg.setdefault(s["name"], [0, 0.0, 0.0])
            a[0] += 1
            a[1] += s["end_ms"] - s["start_ms"]
            a[2] += s["self_ms"]
    print("  spans (count, total ms, self ms):")
    for name in sorted(agg):
        c, tot, self_ms = agg[name]
        print("    %-22s %8d %12.2f %12.2f" % (name, c, tot, self_ms))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small tables, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    t0 = time.monotonic()
    exe = build()
    if exe is None:
        print("build failed", file=sys.stderr)
        return 1
    print("build took %.1f s" % (time.monotonic() - t0), file=sys.stderr)
    records = run_procs(exe, args)
    if records is None:
        return 1

    e2e = report(args, records)
    if args.trace:
        summarize_spans(records)
        layer = per_layer(records)
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
