#!/usr/bin/env python3
"""Build pxbench from this checkout and run one workload.

    python3 pxbench/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--smoke]

Run from the checkout root. The px libraries and the pxbench binary are
built from source into $CARGO_TARGET_DIR/pxbench (default
.bench_build/pxbench under the checkout root); an up-to-date build is a
no-op. The workload's metric table goes to stderr; the last line on stdout
is the JSON summary {"correct", "attempted", "failed", "metrics"}. The full
run report (and the Chrome trace of a traced run) is written under
<build>/results/. Exits nonzero without a summary when the build fails,
when the checkout holds no px sources, or when the run times out.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("pxbench/run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "pxbench")


def build(bdir):
    os.makedirs(os.path.join(bdir, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "pxbench",
                  "-j", jobs])
    # One build at a time per build directory.
    with open(os.path.join(bdir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "a") as log:
            for cmd in steps:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT).returncode
                if rc != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "pxbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no px sources at " + ROOT + "; run from a full checkout")
    bdir = build_dir()
    binary = build(bdir)

    results = os.path.join(bdir, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--report", os.path.join(results, stem + ".json"),
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results, stem + ".trace.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("pxbench printed no summary (exit %d)" % proc.returncode)
    summary = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print(lines[-1], flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
