#!/usr/bin/env sh
# Single CI entry point: chains every verification lane in cost order.
#
#   1. tier-1        fresh build + full ctest + sanitizer re-run of the
#                    transport suites            (scripts/check.sh)
#   2. resilience    kill/restart + checkpoint/rollback suites under a
#                    16-seed torture sweep       (scripts/check.sh --resilience)
#   3. agas          migration edge cases + rebalancer planner/solver/
#                    cluster-model suites under a
#                    16-seed torture sweep       (scripts/check.sh --agas)
#   4. partition     partition schedules + quorum membership/fencing +
#                    gray-failure probing suites under a
#                    16-seed torture sweep       (scripts/check.sh --partition)
#   5. simd          explicit-vectorization suites: VNS padded segments,
#                    seam orientation, ABI-preset kernels, blocked 3D
#                    seed sweep, then fig4_2d_xeon's pack-beats-auto
#                    gate                        (scripts/check.sh --simd)
#   6. serve         scheduling-policy conformance + px::serve isolation
#                    sweeps                      (scripts/check.sh --serve)
#   7. torture       all torture-labeled seed sweeps with a big budget
#                    (64 seeds per property)     (scripts/check.sh --torture)
#   8. pxbench       build pxbench/ against the tree and run its
#                    ctest -L bench tests: stats + every workload's
#                    smoke run, heat answers bitwise-checked
#                                                (scripts/check.sh --pxbench)
#   9. ab            same-host interleaved A/B of every pxbench/
#                    workload against the parent commit, judged by
#                    BENCHMARK.json's end-to-end bounds
#                                                (scripts/ab.sh HEAD~1)
#
# Knobs pass straight through: PX_SKIP_SAN=1 skips the sanitizer lane,
# PX_TORTURE_SEEDS overrides both sweep budgets. Any lane failing fails the
# run immediately (set -e); later lanes reuse the build tree the first lane
# produced, so the chain configures/builds px once, plus the separate
# pxbench/ project in its own tree and the parent's pxbench build.
set -eu

scripts=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)

echo "== ci.sh: lane 1/9 tier-1 (build + full suite + sanitizers) =="
"$scripts/check.sh"

echo "== ci.sh: lane 2/9 resilience (ctest -L resilience) =="
"$scripts/check.sh" --resilience

echo "== ci.sh: lane 3/9 agas (ctest -L agas) =="
"$scripts/check.sh" --agas

echo "== ci.sh: lane 4/9 partition (ctest -L partition) =="
"$scripts/check.sh" --partition

echo "== ci.sh: lane 5/9 simd (ctest -L simd + fig4 pack gate) =="
"$scripts/check.sh" --simd

echo "== ci.sh: lane 6/9 serve (ctest -L serve) =="
"$scripts/check.sh" --serve

echo "== ci.sh: lane 7/9 torture (ctest -L torture) =="
"$scripts/check.sh" --torture

echo "== ci.sh: lane 8/9 pxbench (build pxbench/ + ctest -L bench) =="
"$scripts/check.sh" --pxbench

echo "== ci.sh: lane 9/9 ab (pxbench A/B vs the parent commit) =="
"$scripts/ab.sh" HEAD~1

echo "== ci.sh: all lanes passed =="
