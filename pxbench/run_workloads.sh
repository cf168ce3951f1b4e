#!/usr/bin/env bash
# Builds pxbench and runs every workload in BENCHMARK.json for one seed,
# writing one JSON file (the host fingerprint once, then each workload's run
# report) and printing a "workload metric unit value" table.
#
#   pxbench/run_workloads.sh [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
#
# Defaults: seed 1, run_seconds from BENCHMARK.json, untraced, output in
# .bench_build/pxbench/results/all-seed<N>-trace<T>.json. The host
# fingerprint records CPU model, nproc, LLC size, compiler and flags, build
# type and git sha. Inherited PX_* variables cannot reconfigure a workload:
# the pxbench binary clears them all before it starts.
set -euo pipefail

cd "$(dirname "$0")/.."
seed=1
spec() {
  python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"
}
seconds=$(spec 's["run_seconds"]')
workloads=$(spec '" ".join(w["name"] for w in s["workloads"])')
trace=0
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--seconds S] [--trace 0|1] [--out FILE]" >&2
       exit 2 ;;
  esac
done

results="${CARGO_TARGET_DIR:-.bench_build}"
results="${results%/}/pxbench/results"
out="${out:-$results/all-seed$seed-trace$trace.json}"

status=0
for w in $workloads; do
  python3 pxbench/run.py --workload "$w" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" >/dev/null || status=1
done

python3 - "$results" "$seed" "$trace" "$out" $workloads <<'EOF'
import json, os, sys
results, seed, trace, out = sys.argv[1:5]
doc = {"seed": int(seed), "trace": trace == "1", "host": None, "workloads": {}}
for w in sys.argv[5:]:
    path = os.path.join(results, "%s-seed%s-trace%s.json" % (w, seed, trace))
    if not os.path.exists(path):
        continue
    with open(path) as f:
        report = json.load(f)
    doc["host"] = doc["host"] or report.pop("host")
    report.pop("host", None)
    doc["workloads"][w] = report
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
for w, r in doc["workloads"].items():
    print("# %s: %d ops, %d failed, correct=%s" % (
        w, r["ops_attempted"], r["ops_failed"], r["correct"]))
    for section in ("end_to_end", "per_layer"):
        for name, m in r.get(section, {}).items():
            print("%-18s %-34s %-7s %.6g" % (w, name, m["unit"], m["value"]))
print("# wrote " + out)
EOF
exit $status
