// multi_tenant_serve — px::serve walkthrough.
//
// Three tenants share one runtime under the weighted-fair scheduling
// policy: a heavy "analytics" tenant (weight 4) running 2D Jacobi sweeps,
// a light "batch" tenant (weight 1) running futurized 1D heat solves, and
// an "interactive" tenant with a small admission cap taking an open-loop
// storm of short spin requests. The storm overruns the interactive
// tenant's in-flight cap, so admission control sheds the excess instead
// of letting its queueing delay grow without bound — while the weighted
// tenants keep their proportional share of the workers.
//
//   $ cmake --build build --target multi_tenant_serve
//   $ ./build/examples/multi_tenant_serve
//
// Try PX_SCHED_POLICY=priority (tenant priorities then rule instead of
// weights) or =ws (lanes become accounting-only; no isolation).
#include <cstdio>
#include <string>

#include "px/px.hpp"
#include "px/serve/serve.hpp"

int main() {
  px::scheduler_config cfg = px::scheduler_config::from_env();
  cfg.num_workers = 4;
  if (cfg.policy_name == "ws") cfg.policy_name = "wfq";  // env wins if set
  px::runtime rt(cfg);
  px::serve::server sv(rt);

  px::serve::tenant_config analytics;
  analytics.name = "analytics";
  analytics.weight = 4.0;
  auto const a = sv.add_tenant(analytics);

  px::serve::tenant_config batch;
  batch.name = "batch";
  batch.weight = 1.0;
  auto const b = sv.add_tenant(batch);

  px::serve::tenant_config interactive;
  interactive.name = "interactive";
  interactive.weight = 2.0;
  interactive.max_in_flight = 8;  // shed rather than queue a storm
  auto const i = sv.add_tenant(interactive);

  // Steady background work for the weighted tenants.
  px::serve::job_request jacobi;
  jacobi.kind = px::serve::job_kind::jacobi2d;
  jacobi.size = 48;
  jacobi.steps = 10;
  px::serve::job_request heat;
  heat.kind = px::serve::job_kind::dataflow;
  heat.size = 512;
  heat.steps = 20;
  for (int n = 0; n < 24; ++n) {
    sv.submit(a, jacobi);
    sv.submit(b, heat);
  }

  // An open-loop burst far past the interactive tenant's cap.
  px::serve::open_loop_config storm;
  storm.rate_hz = 20'000.0;
  storm.jobs = 400;
  storm.request.kind = px::serve::job_kind::spin;
  storm.request.size = 50'000;
  auto const gen = run_open_loop(sv, i, storm);
  sv.drain();

  for (auto id : {a, b, i}) {
    auto const s = sv.stats(id);
    std::printf(
        "%-12s submitted=%-4llu accepted=%-4llu rejected=%-4llu "
        "p50=%8.1f us  p99=%8.1f us\n",
        sv.tenant_instance(id).c_str(),
        static_cast<unsigned long long>(s.submitted),
        static_cast<unsigned long long>(s.accepted),
        static_cast<unsigned long long>(s.rejected),
        static_cast<double>(s.p50_ns) / 1e3,
        static_cast<double>(s.p99_ns) / 1e3);
  }
  std::printf("storm: %llu accepted, %llu shed by admission control\n",
              static_cast<unsigned long long>(gen.accepted),
              static_cast<unsigned long long>(gen.rejected));

  // Every tenant's live telemetry is also in the counter registry:
  std::string const p99_path =
      "/px/tenant/" + sv.tenant_instance(i) + "/p99_ns";
  std::uint64_t p99 = 0;
  if (!px::counters::registry::instance().value_of(p99_path, p99)) {
    std::printf("registry %s is not registered\n", p99_path.c_str());
    return 1;
  }
  std::printf("registry %s = %llu\n", p99_path.c_str(),
              static_cast<unsigned long long>(p99));
  return 0;
}
