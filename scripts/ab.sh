#!/usr/bin/env sh
# Same-host A/B of the workload benchmark (pxbench/): a base revision
# against this working tree, judged by BENCHMARK.json's end-to-end metrics
# and bounds. Timing is only ever compared between runs on one host,
# interleaved, never against a number recorded elsewhere.
#
#   scripts/ab.sh BASE [PAIRS]      # e.g. scripts/ab.sh HEAD~1 5
#
# BASE (any git revision) is exported with git archive into
# .bench_build/ab/<sha>/tree and builds into .bench_build/ab/<sha>/pxbench;
# this tree builds where pxbench/run.py builds by default. Each of PAIRS
# pairs (default 5) runs every BENCHMARK.json workload once per tree, at
# run_seconds, with the pair number as seed; odd pairs run the base first,
# even pairs this tree. Per workload and end-to-end metric the table shows
# both medians, the change, each side's quartiles q1-q3
# (statistics.quantiles n=4, as pxbench/README.md measures them), how many
# of the pairs run this tree won (ties count for neither side), the base's
# spread (interquartile range over median) and a verdict:
#   worse       the base's spread is inside the metric's bound and the
#               median is worse than the base's by more than the bound; a
#               higher failed/attempted share than the base's is worse too
#   better      this tree won at least 9/10 of the pairs run and its
#               median beats the base's by more than the base's
#               interquartile range: the rule a claimed gain must meet
#   unresolved  the base's spread is wider than the bound, so this host
#               cannot tell, and not every run of this tree beats every
#               run of the base
#   ok          otherwise
# Exit status: 0 with no "worse" row, 1 with one, 2 on a usage error.
set -eu

usage() {
  echo "usage: scripts/ab.sh BASE [PAIRS]" >&2
  exit 2
}
[ $# -ge 1 ] && [ $# -le 2 ] || usage
pairs=${2:-5}
case "$pairs" in '' | *[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo"
sha=$(git rev-parse --verify "$1^{commit}") || usage

base_dir="$repo/.bench_build/ab/$sha"
rm -rf "$base_dir/tree"
mkdir -p "$base_dir/tree"
git archive "$sha" | tar -x -C "$base_dir/tree"

spec() {
  python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"
}
seconds=$(spec 's["run_seconds"]')
workloads=$(spec '" ".join(w["name"] for w in s["workloads"])')

log="$base_dir/runs.jsonl"
: >"$log"

# One run: appends {"side", "workload", "summary"} to the log. A run that
# prints no summary (build failure, timeout) counts as one failed op.
run_one() {
  side=$1 w=$2 seed=$3
  if [ "$side" = base ]; then
    out=$(cd "$base_dir/tree" && CARGO_TARGET_DIR="$base_dir" \
      python3 pxbench/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>/dev/null) || true
  else
    out=$(python3 pxbench/run.py --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace 0 2>/dev/null) || true
  fi
  summary=$(printf '%s\n' "$out" | tail -n 1)
  case "$summary" in
    '{'*) ;;
    *) summary='{"attempted": 1, "failed": 1, "metrics": {}}' ;;
  esac
  printf '{"side": "%s", "workload": "%s", "pair": %s, "summary": %s}\n' \
    "$side" "$w" "$seed" "$summary" >>"$log"
  echo "ab.sh: pair $seed $w $side done" >&2
}

pair=1
while [ "$pair" -le "$pairs" ]; do
  for w in $workloads; do
    if [ $((pair % 2)) -eq 1 ]; then
      run_one base "$w" "$pair"
      run_one head "$w" "$pair"
    else
      run_one head "$w" "$pair"
      run_one base "$w" "$pair"
    fi
  done
  pair=$((pair + 1))
done

python3 - "$log" "$sha" "$pairs" <<'EOF'
import json, statistics, sys

log, sha, pairs = sys.argv[1:4]
spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(log)]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3

def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")

def by_pair(rs, name):
    return {r["pair"]: r["summary"]["metrics"][name]["value"] for r in rs
            if name in r["summary"].get("metrics", {})}

print("A/B of %s (base) against this tree: %s pairs per workload"
      % (sha[:12], pairs))
row = "%-18s %-15s %10s %10s %8s %21s %21s %5s %7s %5s  %s"
print(row % ("workload", "metric", "base", "head", "change", "base q1-q3",
             "head q1-q3", "won", "spread", "bound", "verdict"))
worse = 0
for wl in spec["workloads"]:
    w = wl["name"]
    base = [r for r in runs if r["side"] == "base" and r["workload"] == w]
    head = [r for r in runs if r["side"] == "head" and r["workload"] == w]
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        bp, hp = by_pair(base, name), by_pair(head, name)
        bv, hv = list(bp.values()), list(hp.values())
        if not bv or not hv:
            # Only runs without a summary lack metrics; the failed_share
            # row below counts them.
            print(row % (w, name, "-", "-", "-", "-", "-", "-", "-",
                         "%.2f" % bound, "ok"))
            continue
        bm, hm = statistics.median(bv), statistics.median(hv)
        change = (hm - bm) / bm if bm else 0.0
        lower = m["better"] == "lower"
        loss = change if lower else -change
        bq, hq = quartiles(bv), quartiles(hv)
        won = sum(1 for p in bp if p in hp and
                  (hp[p] < bp[p] if lower else hp[p] > bp[p]))
        gain = bm - hm if lower else hm - bm
        sp = spread(bv)
        if sp <= bound:
            verdict = "worse" if loss > bound else "ok"
        elif (max(hv) < min(bv)) if lower else (min(hv) > max(bv)):
            verdict = "ok"
        else:
            verdict = "unresolved"
        if verdict != "worse" and won >= 0.9 * int(pairs) and \
                gain > bq[1] - bq[0]:
            verdict = "better"
        worse += verdict == "worse"
        print(row % (w, name, "%.4g" % bm, "%.4g" % hm,
                     "%+.1f%%" % (100 * change),
                     "%.4g-%.4g" % bq, "%.4g-%.4g" % hq,
                     "%d/%s" % (won, pairs), "%.3f" % sp, "%.2f" % bound,
                     verdict))

    def share(rs):
        attempted = sum(r["summary"].get("attempted", 0) for r in rs)
        return sum(r["summary"].get("failed", 0) for r in rs) / attempted \
            if attempted else 1.0
    bs, hs = share(base), share(head)
    verdict = "worse" if hs > bs else "ok"
    worse += verdict == "worse"
    print(row % (w, "failed_share", "%.4g" % bs, "%.4g" % hs, "-", "-",
                 "-", "-", "-", "-", verdict))

print("ab.sh: %d worse" % worse)
sys.exit(1 if worse else 0)
EOF
