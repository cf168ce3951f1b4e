// Ablation: task grain size on the 2D stencil. §VII-B: "Like every AMT
// model, HPX is known to have contention overheads when the grain size is
// too small" — the A64FX investigation that motivated Fig 7. This bench
// sweeps rows-per-task on the real kernel and reports throughput plus the
// scheduler's own counters (tasks, steals), showing where scheduling
// overhead eats the kernel. The `auto` row runs plain `par`, whose grain
// bulk_run measures, so its tasks per step sit beside the fixed sweep.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "px/px.hpp"
#include "px/stencil/stencil.hpp"
#include "px/support/env.hpp"

int main() {
  using namespace px::stencil;
  px::bench::print_header(
      "ABLATION — task grain size (rows per task) on the 2D stencil",
      "Small grains expose AMT scheduling overhead; large grains starve "
      "the pool. The sweet spot depends on rows x row-cost vs spawn cost.");

  std::size_t const nx = px::env_size("PX_NX").value_or(1024);
  std::size_t const ny = px::env_size("PX_NY").value_or(256);
  std::size_t const steps = px::env_size("PX_STEPS").value_or(30);

  px::runtime rt{px::scheduler_config{}};
  std::printf("grid %zux%zu, %zu steps, %zu workers\n\n", nx, ny, steps,
              rt.num_workers());
  std::printf("rows/task |  tasks/step | MLUP/s  | tasks total | steals\n");
  std::printf("----------+-------------+---------+-------------+-------\n");

  // Tasks per step are counted spawns, not derived from the grain; the one
  // task sync_wait spawns to run the solver is left out.
  auto const row = [&](char const* label,
                       px::execution::parallel_policy const& policy) {
    field2d<float> u0(nx, ny), u1(nx, ny);
    init_dirichlet_problem(u0);
    init_dirichlet_problem(u1);
    auto const before = rt.stats();
    auto const spawned_before = rt.sched().tasks_spawned();
    auto result = px::sync_wait(
        rt, [&] { return run_jacobi2d(policy, u0, u1, steps); });
    auto const spawned = rt.sched().tasks_spawned() - spawned_before - 1;
    auto const after = rt.stats();
    std::printf("%9s | %11.1f | %7.0f | %11llu | %llu\n", label,
                static_cast<double>(spawned) / static_cast<double>(steps),
                result.glups * 1e3,
                static_cast<unsigned long long>(after.tasks_executed -
                                                before.tasks_executed),
                static_cast<unsigned long long>(after.steals -
                                                before.steals));
  };
  for (std::size_t rows_per_task : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    if (rows_per_task > ny) break;
    row(std::to_string(rows_per_task).c_str(),
        px::execution::par.with(rows_per_task));
  }
  row("auto", px::execution::par);

  // Loop shapes the stencil sweep does not cover, plain `par` against a
  // fixed grain: coarse iterations (at most one per worker auto forks
  // outright; with more, it times one whole iteration before it forks the
  // rest), a large memory-bound transform_reduce (auto runs one of its
  // chunks alone first), and an empty fork-join round, whose cost is what
  // a forked task must be worth (parallel::detail::fork_join_ns).
  std::size_t const workers = rt.num_workers();
  std::size_t const calls = 15;
  // `settle` runs before each timed call, outside the timing; one untimed
  // call first warms caches and pages, so row order does not bias a row.
  auto const shape = [&](char const* name, char const* label,
                         std::size_t reps, auto const& call,
                         auto const& settle) {
    std::vector<double> us;
    std::uint64_t spawned = 0;
    px::sync_wait(rt, [&] {
      call();
      for (std::size_t r = 0; r < reps; ++r) {
        settle();
        auto const spawned_before = rt.sched().tasks_spawned();
        auto const t0 = std::chrono::steady_clock::now();
        call();
        us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
        spawned += rt.sched().tasks_spawned() - spawned_before;
      }
      return 0;
    });
    std::sort(us.begin(), us.end());
    std::printf("%-26s | %-9s | %10.1f | %10.1f | %6.1f\n", name, label,
                us[us.size() / 2], us[us.size() * 9 / 10],
                static_cast<double>(spawned) / static_cast<double>(reps));
  };
  auto const spin_for = [](std::chrono::microseconds d) {
    auto const until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  auto const nothing = [] {};

  std::printf("\nloop shape                 | policy    |  p50 (us)  |  p90 (us)  "
              "| tasks/call\n");
  std::printf("---------------------------+-----------+------------+----------"
              "--+-----------\n");
  for (auto const& [label, policy] :
       {std::pair{"auto", px::execution::par},
        std::pair{"with(1)", px::execution::par.with(1)}}) {
    for (std::size_t per_worker : {1u, 2u}) {
      shape(per_worker == 1 ? "coarse: workers x 1 ms"
                            : "coarse: 2 x workers x 1 ms",
            label, calls, [&] {
              px::parallel::for_loop(policy, 0, per_worker * workers,
                                     [&](std::size_t) {
                                       spin_for(std::chrono::milliseconds(1));
                                     });
            }, nothing);
    }
  }
  std::size_t const big = std::size_t{1} << 22;
  std::vector<float> data(big, 0.5f);
  for (auto const& [label, policy] :
       {std::pair{"auto", px::execution::par},
        std::pair{"8/worker", px::execution::par.with(
                                  (big + 8 * workers - 1) / (8 * workers))}}) {
    shape("transform_reduce 4M float", label, calls, [&] {
      float const sum = px::parallel::transform_reduce(
          policy, data.begin(), data.end(), 0.0f, std::plus<>{},
          [](float x) { return x * x; });
      if (sum <= 0.0f) std::abort();
    }, nothing);
  }
  auto const empty_round = [&] {
    px::parallel::for_loop(px::execution::par.with(1), 0, workers,
                           [](std::size_t) {});
  };
  shape("fork-join round, warm", "with(1)", 20 * calls, empty_round,
        nothing);
  // Each call after 3 ms of the pool idle: its workers have parked.
  shape("fork-join round, parked", "with(1)", calls, empty_round, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  });

  std::printf("\n(The paper's Fig 7 asks the same question at node scale: "
              "growing the grid 1.5x on A64FX bought nothing, so grains "
              "were already large enough.)\n");
  return 0;
}
