// trace_profile — observability tour: runs the 2D Jacobi benchmark with
// task tracing enabled and writes a chrome://tracing / Perfetto JSON
// timeline (/tmp/px_jacobi_trace.json), then prints the scheduler's own
// statistics including per-worker utilization.
#include <cstdio>
#include <string>

#include "px/px.hpp"
#include "px/stencil/stencil.hpp"
#include "px/support/env.hpp"

int main() {
  px::scheduler_config cfg;
  cfg.num_workers = px::env_size("PX_WORKERS").value_or(2);
  px::runtime rt(cfg);

  using namespace px::stencil;
  std::size_t const nx = px::env_size("PX_NX").value_or(512);
  std::size_t const ny = px::env_size("PX_NY").value_or(256);
  std::size_t const steps = px::env_size("PX_STEPS").value_or(25);

  field2d<float> u0(nx, ny), u1(nx, ny);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);

  px::trace::enable();
  px::high_resolution_timer wall;
  auto result = px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par.with(8), u0, u1, steps);
  });
  double const elapsed = wall.elapsed();
  px::trace::disable();

  std::string const path = "/tmp/px_jacobi_trace.json";
  bool const wrote = px::trace::write_json_file(path);
  auto const stats = rt.stats();

  std::printf("2D Jacobi %zux%zu, %zu steps: %.1f MLUP/s\n", nx, ny, steps,
              result.glups * 1e3);
  std::printf("trace: %zu task slices%s%s\n", px::trace::event_count(),
              wrote ? " written to " : " (write failed: ",
              wrote ? path.c_str() : path.c_str());
  std::printf("scheduler: %llu tasks executed, %llu steals, %llu yields, "
              "%llu parks\n",
              static_cast<unsigned long long>(stats.tasks_executed),
              static_cast<unsigned long long>(stats.steals),
              static_cast<unsigned long long>(stats.yields),
              static_cast<unsigned long long>(stats.parks));
  double const busy_s = static_cast<double>(stats.busy_ns) / 1e9;
  std::printf("utilization: %.3f s busy across %zu workers over %.3f s "
              "wall = %.0f%%\n",
              busy_s, rt.num_workers(), elapsed,
              100.0 * busy_s /
                  (elapsed * static_cast<double>(rt.num_workers())));
  // Dump the full performance-counter registry next to the trace: every
  // /px/... path the runtime registered (scheduler, per-worker, stacks,
  // parcel, timer, net, trace), one JSON snapshot.
  std::string const counters_path = "/tmp/px_counters.json";
  bool const counters_wrote = px::counters::write_json_file(counters_path);
  auto const snap = px::counters::registry::instance().take_snapshot();
  std::printf("counters: %zu paths%s%s\n", snap.samples.size(),
              counters_wrote ? " written to " : " (write failed: ",
              counters_wrote ? counters_path.c_str() : counters_path.c_str());
  std::string const spawned_path =
      "/px/scheduler{" + rt.counter_instance() + "}/tasks_spawned";
  std::uint64_t spawned = 0;
  if (!px::counters::registry::instance().value_of(spawned_path, spawned)) {
    std::printf("counters: %s is not registered\n", spawned_path.c_str());
    return 1;
  }
  std::printf("counters: %s = %llu\n", spawned_path.c_str(),
              static_cast<unsigned long long>(spawned));
  std::printf("\nOpen the JSON in https://ui.perfetto.dev to see the "
              "per-worker task timeline.\n");
  return 0;
}
