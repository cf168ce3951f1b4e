#!/usr/bin/env python3
"""Smoke test of the workload benchmark.

Runs every workload that BENCHMARK.json names, untraced and traced, with
--smoke (small sizes, a few seconds each), and checks that:
  * the run exits 0 and its last stdout line is the JSON summary with
    exactly the keys correct/attempted/failed/metrics;
  * the summary names exactly the metrics BENCHMARK.json lists for that
    mode (end_to_end untraced, per_layer traced), each with its unit;
  * every correctness check in the run report ran and passed;
  * a traced run writes a Chrome trace with events in it.

    python3 pxbench/tests/smoke.py --binary <build>/pxbench \
        --benchmark-json BENCHMARK.json
"""

import argparse
import json
import math
import os
import subprocess
import sys


def run_one(binary, workload, trace, seconds, out_dir):
    stem = os.path.join(out_dir, "%s-trace%d" % (workload, trace))
    cmd = [binary, "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace), "--smoke",
           "--report", stem + ".json", "--trace-out", stem + ".trace.json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, "no summary line"
    return (json.loads(lines[-1]), stem), None


def check(summary, stem, spec, trace):
    errors = []
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("summary keys %s" % sorted(summary))
    if summary.get("correct") is not True:
        errors.append("correct is not true")
    if summary.get("failed") != 0 or summary.get("attempted", 0) < 1:
        errors.append("attempted %s failed %s" % (summary.get("attempted"),
                                                  summary.get("failed")))
    want = {m["name"]: m["unit"] for m in
            spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in summary.get("metrics", {}).items()}
    if got != want:
        errors.append("metrics: missing %s extra %s wrong units %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in want if k in got and got[k] != want[k])))
    for k, v in summary.get("metrics", {}).items():
        if not isinstance(v.get("value"), (int, float)) or \
                not math.isfinite(v["value"]):
            errors.append("metric %s has value %r" % (k, v.get("value")))
    with open(stem + ".json") as f:
        report = json.load(f)
    if not report["checks"]:
        errors.append("no correctness check ran")
    for c in report["checks"]:
        if not c["passed"]:
            errors.append("check %s failed: %s" % (c["name"], c["detail"]))
    if report["ops_attempted"] != summary.get("attempted"):
        errors.append("report and summary disagree on ops attempted")
    if trace:
        with open(stem + ".trace.json") as f:
            if not json.load(f)["traceEvents"]:
                errors.append("empty Chrome trace")
    return errors


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    with open(args.benchmark_json) as f:
        spec = json.load(f)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(args.binary)),
                           "smoke")
    os.makedirs(out_dir, exist_ok=True)

    failed = False
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, err = run_one(args.binary, w, trace, args.seconds,
                                  out_dir)
            errors = [err] if err else check(*result, spec, trace)
            print("%-4s %s --trace %d%s" % ("FAIL" if errors else "ok", w,
                                            trace,
                                            "".join("\n    " + e
                                                    for e in errors)))
            failed = failed or bool(errors)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
