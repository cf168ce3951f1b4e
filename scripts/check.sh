#!/usr/bin/env sh
# Tier-1 verification: fresh configure, full build, full test suite.
# Run from anywhere; builds into <repo>/build. The tier-1 build sets
# PX_WERROR, so a new compiler warning fails it.
#
# A second, sanitizer lane (ASan + UBSan, build-san/) then re-runs four
# groups of suites. Skip it with PX_SKIP_SAN=1.
#  * The transport-heavy suites: fault injection exercises timer/ack
#    races that only a sanitizer can vouch for.
#  * The field2d/Jacobi suites, whose row codec writes whole padded rows:
#    a write past a row fails there, and ASan fills every fresh allocation
#    with 0xbe bytes (not only its first 4 KB, ASan's default), so a cell
#    the row fill skips fails the bitwise fill tests.
#  * The two distributed stencil suites, which run the one partition
#    component and driver both solvers share: destroyed components, weak
#    mailbox references in confirm hooks, and mailbox drains during
#    migration.
#  * The domain suites: coalescing (domain construction from its config),
#    migration (both quiesce forms), the rebalancer's load vector, and
#    resilience (the detector's confirm path on the timer thread). Their
#    failure-detector thresholds sit far above ASan's heartbeat slowdown.
#
# --torture: instead of the tiers above, build and run only the
# ctest-labeled torture suites (px::torture seed sweeps) with a big seed
# budget — 64 seeds per property unless PX_TORTURE_SEEDS overrides it.
#
# --resilience: build and run only the ctest-labeled resilience suites
# (locality kill/restart, failure detector, checkpoint/rollback recovery)
# with a 16-seed sweep per property unless PX_TORTURE_SEEDS overrides it.
#
# --agas: build and run only the ctest-labeled agas suites (migration edge
# cases, rebalancer planner/solver/cluster-model, and the 16-seed
# migration torture sweep; test_torture_migration carries both labels) with
# a 16-seed budget unless PX_TORTURE_SEEDS overrides it.
#
# --partition: build and run only the ctest-labeled partition suites
# (fault-plane partition schedules, quorum membership + split-brain
# fencing, gray-failure indirect probing, and the split-brain torture
# sweep; test_torture_partition carries both labels) with a 16-seed
# budget unless PX_TORTURE_SEEDS overrides it.
#
# --simd: build and run only the ctest-labeled simd suites (pack library,
# VNS layout + padded segments, field2d, the 2D Jacobi ABI-preset kernels,
# and the blocked 3D kernel's seed sweep) with a 16-seed budget unless
# PX_TORTURE_SEEDS overrides it, then bench/fig4_2d_xeon, whose host
# validation exits 1 unless native<float> packs beat auto-vectorized float
# cells on best-of-10 kernel-only GLUP/s (384x384, 20 steps).
#
# --serve: build and run the ctest-labeled serve suites (scheduling-policy
# conformance + px::serve multi-tenant isolation, including the co-tenant
# fail-stop sweep) with a 16-seed budget unless PX_TORTURE_SEEDS overrides
# it.
#
# --pxbench: configure and build the workload benchmark (pxbench/, its own
# CMake project that compiles px from this tree) into build-pxbench/ and
# run its ctest -L bench tests: the report-statistics unit tests and a
# smoke run of every BENCHMARK.json workload, which checks every heat
# solve bitwise against reference_heat1d. The tier-1 build never compiles
# pxbench/src against the px headers; this lane does.
#
# Timing regressions are judged by scripts/ab.sh, a same-host interleaved
# A/B of pxbench/ against a base revision.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

if [ "${1:-}" = "--torture" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-64}" \
   ctest -L torture --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--resilience" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L resilience --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--agas" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L agas --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--partition" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L partition --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--simd" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L simd --output-on-failure)
  "$repo/build/bench/fig4_2d_xeon"
  exit 0
fi

if [ "${1:-}" = "--serve" ]; then
  cmake -B "$repo/build" -S "$repo"
  cmake --build "$repo/build" -j
  (cd "$repo/build" && \
   PX_TORTURE_SEEDS="${PX_TORTURE_SEEDS:-16}" \
   ctest -L serve --output-on-failure)
  exit 0
fi

if [ "${1:-}" = "--pxbench" ]; then
  cmake -B "$repo/build-pxbench" -S "$repo/pxbench" \
    -DCMAKE_BUILD_TYPE=Release
  cmake --build "$repo/build-pxbench" -j
  (cd "$repo/build-pxbench" && ctest -L bench --output-on-failure)
  exit 0
fi

cmake -B "$repo/build" -S "$repo" -DPX_WERROR=ON
cmake --build "$repo/build" -j
(cd "$repo/build" && ctest --output-on-failure -j)

if [ "${PX_SKIP_SAN:-0}" = "1" ]; then
  echo "check.sh: PX_SKIP_SAN=1, skipping sanitizer lane"
  exit 0
fi

cmake -B "$repo/build-san" -S "$repo" \
  -DPX_SANITIZE=ON -DPX_BUILD_BENCH=OFF -DPX_BUILD_EXAMPLES=OFF
cmake --build "$repo/build-san" -j \
  --target test_fault_injection --target test_parcel \
  --target test_field2d --target test_jacobi2d \
  --target test_dist_heat --target test_dist_jacobi \
  --target test_coalesce --target test_migration \
  --target test_rebalance --target test_resilience
(cd "$repo/build-san" && \
 ASAN_OPTIONS="max_malloc_fill_size=1073741824${ASAN_OPTIONS:+:$ASAN_OPTIONS}" \
 ctest --output-on-failure \
  -R 'test_fault_injection|test_parcel|test_field2d|test_jacobi2d|test_dist_heat|test_dist_jacobi|test_coalesce|test_migration|test_rebalance|test_resilience')
