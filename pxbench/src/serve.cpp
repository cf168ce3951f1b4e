// serve_mixed: px::serve under an open loop of uniform arrivals, two
// tenants on the wfq policy — `interactive` (weight 3, futurized heat
// jobs) and `batch` (weight 1, small 2D Jacobi jobs), mixed 3:1 by the
// seed. An SLO rung well below capacity measures latency from each job's
// due time; an overload rung above capacity measures throughput of the same
// scheduler, fiber and LCO paths while admission sheds the excess.
#include <cstring>
#include <limits>
#include <memory>
#include <thread>

#include "px/serve/serve.hpp"
#include "px/stencil/heat1d_dataflow.hpp"
#include "px/stencil/jacobi2d.hpp"
#include "px/stencil/jacobi2d_vns.hpp"
#include "px/stencil/reference.hpp"
#include "workloads.hpp"

namespace pxbench {
namespace {

constexpr std::size_t kWorkers = 3;  // plus this thread as the generator
constexpr std::size_t kSegments = 3;
constexpr double kSloRate = 1000.0;
constexpr double kOverloadRate = 6000.0;
constexpr double kSloShare = 0.7;  // of each segment's timed seconds
constexpr std::size_t kVariants = 8;
// Admission cap per tenant. The overload rung must shed; the SLO rung must
// not, even when the host stalls this VM for tens of milliseconds and the
// backlog of a 1000 jobs/s open loop piles up behind the stall.
constexpr std::size_t kMaxInFlight = 256;

constexpr std::size_t kHeatPoints = 4096;
constexpr std::size_t kHeatSteps = 20;
constexpr std::size_t kHeatPartitions = 8;
constexpr std::size_t kJacobiEdge = 128;
constexpr std::size_t kJacobiSweeps = 10;
constexpr double kHeatLups = double(kHeatPoints * kHeatSteps);
constexpr double kJacobiLups =
    double(kJacobiEdge * kJacobiEdge * kJacobiSweeps);

enum class job_state : std::uint8_t { pending, ok, wrong, shed, threw };
enum tenant_index : std::uint8_t { interactive = 0, batch = 1 };

// One job's timeline. The generator writes due/submit; the job body writes
// the rest on a worker. server::drain() orders the body's writes before
// the main thread reads them.
struct job_slot {
  std::int64_t due = 0;
  std::int64_t submit = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
  double kernel_s = 0.0;  // run_jacobi2d's own timing (batch jobs)
  tenant_index tenant = interactive;
  std::uint8_t variant = 0;
  std::uint32_t worker = 0;
  job_state state = job_state::pending;
};

// Seeded job inputs with their reference answers.
struct inputs {
  std::vector<std::vector<double>> heat, heat_ref;
  std::vector<px::stencil::field2d<double>> jacobi;
  std::vector<std::vector<double>> jacobi_ref;
};

inputs make_inputs(std::uint64_t seed) {
  inputs in;
  seeded_rng rng(seed ^ 0x5e7e5e7eull);
  for (std::size_t v = 0; v < kVariants; ++v) {
    in.heat.push_back(perturbed_heat_initial(kHeatPoints, rng.next()));
    in.heat_ref.push_back(
        px::stencil::reference_heat1d(in.heat.back(), kHeatSteps, 0.25));

    px::stencil::field2d<double> f(kJacobiEdge, kJacobiEdge);
    px::stencil::init_dirichlet_problem(f);
    for (int i = 0; i < 64; ++i)
      f.set(rng.next() % kJacobiEdge, rng.next() % kJacobiEdge, rng.unit());
    // Independent check: the serial reference on the same grid with its
    // ghost ring (scalar fields store exactly that ring).
    std::size_t const stride = kJacobiEdge + 2;
    std::vector<double> ring(stride * stride);
    for (std::size_t y = 0; y < stride; ++y)
      for (std::size_t x = 0; x < stride; ++x)
        ring[y * stride + x] = f.cell(x, y);
    auto const solved = px::stencil::reference_jacobi2d(
        std::move(ring), kJacobiEdge, kJacobiEdge, kJacobiSweeps);
    std::vector<double> interior(kJacobiEdge * kJacobiEdge);
    for (std::size_t y = 0; y < kJacobiEdge; ++y)
      for (std::size_t x = 0; x < kJacobiEdge; ++x)
        interior[y * kJacobiEdge + x] = solved[(y + 1) * stride + x + 1];
    in.jacobi.push_back(std::move(f));
    in.jacobi_ref.push_back(std::move(interior));
  }
  return in;
}

bool bitwise_equal(std::vector<double> const& a, std::vector<double> const& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// The job body: stamps its start and end around the solver call, then
// checks the answer against the variant's reference.
void run_job(job_slot& slot, inputs const& in) {
  slot.start = now_ns();
  slot.worker = static_cast<std::uint32_t>(px::this_task::worker_index());
  try {
    bool ok = false;
    if (slot.tenant == interactive) {
      px::stencil::heat1d_dataflow_config cfg;
      cfg.steps = kHeatSteps;
      cfg.partitions = kHeatPartitions;
      cfg.max_outstanding_steps = 4;
      auto const out =
          px::stencil::run_heat1d_dataflow(in.heat[slot.variant], cfg);
      slot.end = now_ns();
      ok = bitwise_equal(out, in.heat_ref[slot.variant]);
    } else {
      auto const& init = in.jacobi[slot.variant];
      px::stencil::field2d<double> u0(kJacobiEdge, kJacobiEdge);
      px::stencil::field2d<double> u1(kJacobiEdge, kJacobiEdge);
      px::stencil::copy_problem(u0, init);
      px::stencil::copy_problem(u1, init);
      auto const r =
          px::stencil::run_jacobi2d(px::execution::par, u0, u1, kJacobiSweeps);
      auto const out =
          px::stencil::interior_snapshot(r.final_index == 0 ? u0 : u1);
      slot.end = now_ns();
      slot.kernel_s = r.seconds;
      ok = bitwise_equal(out, in.jacobi_ref[slot.variant]);
    }
    slot.state = ok ? job_state::ok : job_state::wrong;
  } catch (...) {
    slot.end = now_ns();
    slot.state = job_state::threw;
  }
}

struct rung_result {
  std::vector<job_slot> jobs;  // stable addresses: sized before submitting
  std::uint64_t backlog_end = 0;
};

// Open loop: job i is due at t0 + i / rate and is submitted then, whether
// or not earlier jobs finished.
void run_rung(px::serve::server& sv, px::serve::tenant_id const ids[2],
              inputs const& in, seeded_rng& mix, double rate, double seconds,
              rung_result& out) {
  auto const n = static_cast<std::size_t>(rate * seconds);
  out.jobs.assign(n, job_slot{});
  for (auto& j : out.jobs) {
    j.tenant = mix.unit() < 0.75 ? interactive : batch;
    j.variant = static_cast<std::uint8_t>(mix.next() % kVariants);
  }
  auto const interval_ns = static_cast<std::int64_t>(1e9 / rate);
  auto const base = clock::now() + std::chrono::milliseconds(1);
  std::int64_t const t0 =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          base.time_since_epoch())
          .count();
  for (std::size_t i = 0; i < n; ++i) {
    job_slot& slot = out.jobs[i];
    auto const offset = static_cast<std::int64_t>(i) * interval_ns;
    slot.due = t0 + offset;
    // Sleep to just short of the due time, then spin: sleep_until alone
    // overshoots by the kernel's timer slack (tens of microseconds), which
    // would show up as generator lateness in every job's latency.
    auto const due = base + std::chrono::nanoseconds(offset);
    std::this_thread::sleep_until(due - std::chrono::microseconds(100));
    while (clock::now() < due) {
    }
    slot.submit = now_ns();
    px::serve::job_request req;
    req.work = [&slot, &in] { run_job(slot, in); };
    if (sv.submit(ids[slot.tenant], req) == px::serve::admit_result::shed)
      slot.state = job_state::shed;
  }
  out.backlog_end = sv.stats(ids[0]).in_flight + sv.stats(ids[1]).in_flight;
  sv.drain();
}

double ms_of(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

void run_serve_mixed(options const& opt, result& out, span_log& spans) {
  std::size_t const segments = opt.smoke ? 2 : kSegments;
  double const per_segment_s = opt.seconds / static_cast<double>(segments);
  seeded_rng mix(opt.seed);

  std::vector<double> setup_s;
  std::vector<double> latency_ms, traced_latency_ms;  // SLO rung, due -> done
  std::vector<double> queue_ms, gen_late_us, service_heat_ms,
      service_jacobi_ms, jacobi_kernel_glups;
  double latency_sum_ms = 0.0;
  double overload_lups = 0.0, overload_window_s = 0.0;
  std::uint64_t overload_done = 0, overload_offered = 0, overload_shed = 0;
  double service_interactive_s = 0.0, service_all_s = 0.0;
  std::vector<std::uint64_t> backlog_end;
  std::uint64_t wrong = 0, slo_shed = 0;
  counter_totals totals;
  double timed_wall_s = 0.0;
  runtime_probe rt_probe;
  double heat_kernel_ns = 0.0;

  for (std::size_t seg = 0; seg < segments; ++seg) {
    bool const traced = opt.trace && seg % 2 == 1;
    std::int64_t const s0 = now_ns();
    px::scheduler_config sc;
    sc.num_workers = kWorkers;
    sc.policy_name = "wfq";
    auto rt = std::make_unique<px::runtime>(sc);
    auto sv = std::make_unique<px::serve::server>(*rt);
    px::serve::tenant_config tc;
    tc.name = "interactive";
    tc.weight = 3.0;
    tc.max_in_flight = kMaxInFlight;
    px::serve::tenant_id ids[2];
    ids[interactive] = sv->add_tenant(tc);
    tc.name = "batch";
    tc.weight = 1.0;
    ids[batch] = sv->add_tenant(tc);
    auto const in = make_inputs(opt.seed);
    {
      rung_result warm;  // warm-up: an open loop at the SLO rate
      seeded_rng warm_mix(opt.seed + 1);
      run_rung(*sv, ids, in, warm_mix, kSloRate,
               static_cast<double>(warmup_ns(opt)) / 1e9, warm);
      for (auto const& j : warm.jobs)
        if (j.state == job_state::wrong || j.state == job_state::threw)
          ++wrong;
    }
    setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    spans.add("setup", s0, now_ns());

    counter_window window;
    std::int64_t const t0 = now_ns();
    rung_result slo, over;
    run_rung(*sv, ids, in, mix, kSloRate, per_segment_s * kSloShare, slo);
    run_rung(*sv, ids, in, mix, kOverloadRate,
             per_segment_s * (1.0 - kSloShare), over);
    timed_wall_s += static_cast<double>(now_ns() - t0) / 1e9;
    window.close_into(totals);
    backlog_end.push_back(over.backlog_end);
    for (auto const& j : slo.jobs) {
      out.attempted += 1;
      if (j.state == job_state::shed) ++slo_shed;
      if (j.state == job_state::wrong || j.state == job_state::threw) ++wrong;
      // A shed or failed job counts as over any latency limit.
      double const lat = j.state == job_state::ok
                             ? ms_of(j.end - j.due)
                             : std::numeric_limits<double>::infinity();
      (traced ? traced_latency_ms : latency_ms).push_back(lat);
      if (j.state != job_state::ok) continue;
      queue_ms.push_back(ms_of(j.start - j.submit));
      gen_late_us.push_back(static_cast<double>(j.submit - j.due) / 1e3);
      (j.tenant == interactive ? service_heat_ms : service_jacobi_ms)
          .push_back(ms_of(j.end - j.start));
      if (j.tenant == batch && j.kernel_s > 0.0)
        jacobi_kernel_glups.push_back(kJacobiLups / j.kernel_s / 1e9);
      latency_sum_ms += lat;
      if (traced) {
        auto const job = spans.add("job", j.due, j.end, 0, out.attempted,
                                   j.worker + 1);
        spans.add("gen_late", j.due, j.submit, job, out.attempted, 0);
        spans.add("queue", j.submit, j.start, job, out.attempted,
                  j.worker + 1);
        spans.add(j.tenant == interactive ? "service.dataflow"
                                          : "service.jacobi2d",
                  j.start, j.end, job, out.attempted, j.worker + 1);
      }
    }
    std::int64_t first_arrival = 0, last_completion = 0;
    for (auto const& j : over.jobs) {
      out.attempted += 1;
      overload_offered += 1;
      if (j.state == job_state::shed) {
        ++overload_shed;
        continue;
      }
      if (j.state != job_state::ok) {
        ++wrong;
        continue;
      }
      if (first_arrival == 0) first_arrival = j.due;
      last_completion = std::max(last_completion, j.end);
      overload_done += 1;
      overload_lups += j.tenant == interactive ? kHeatLups : kJacobiLups;
      double const service_s = static_cast<double>(j.end - j.start) / 1e9;
      service_all_s += service_s;
      if (j.tenant == interactive) service_interactive_s += service_s;
    }
    if (first_arrival != 0)
      overload_window_s +=
          static_cast<double>(last_completion - first_arrival) / 1e9;

    if (opt.trace && seg + 1 == segments) {
      // Probes, after the timed phase, on the last segment's runtime.
      rt_probe = probe_runtime(*rt, opt.smoke, spans);
      heat_kernel_ns = probe_heat_kernel_ns_per_lup(
          kHeatPoints / kHeatPartitions, kHeatSteps, spans);
    }
  }
  out.failed = wrong + slo_shed;

  out.add_check("serve.answers_match_reference", wrong == 0,
                std::to_string(wrong) +
                    " job answers differ from reference_heat1d / "
                    "reference_jacobi2d (every completed job is checked)");

  double const capacity_jobs_s =
      ratio(static_cast<double>(overload_done), overload_window_s);
  out.add_e2e("setup_s", median(setup_s), "s", setup_s.size());
  out.add_e2e("latency_ms_p90", percentile(latency_ms, 0.90), "ms",
              latency_ms.size());
  out.add_e2e("glups", ratio(overload_lups, overload_window_s) / 1e9,
              "GLUP/s", overload_done);

  if (opt.trace) {
    out.add_layer("e2e.latency_ms_p50", percentile(latency_ms, 0.50), "ms",
                  latency_ms.size());
    out.add_layer("e2e.latency_ms_p99", percentile(latency_ms, 0.99), "ms",
                  latency_ms.size());
    add_runtime_probe_metrics(out, rt_probe);
    add_runtime_counter_metrics(out, totals, timed_wall_s, kWorkers,
                                overload_done + latency_ms.size());
    out.add_layer("serve.capacity_jobs_s", capacity_jobs_s, "jobs/s",
                  overload_done);
    out.add_layer("serve.queue_wait_ms_p50", percentile(queue_ms, 0.50), "ms",
                  queue_ms.size());
    out.add_layer("serve.queue_wait_ms_p99", percentile(queue_ms, 0.99), "ms",
                  queue_ms.size());
    out.add_layer("serve.service_ms_p50.dataflow",
                  percentile(service_heat_ms, 0.50), "ms",
                  service_heat_ms.size());
    out.add_layer("serve.service_ms_p50.jacobi2d",
                  percentile(service_jacobi_ms, 0.50), "ms",
                  service_jacobi_ms.size());
    out.add_layer("serve.gen_late_us_p99", percentile(gen_late_us, 0.99), "us",
                  gen_late_us.size());
    out.add_layer("serve.shed_frac",
                  ratio(static_cast<double>(overload_shed),
                        static_cast<double>(overload_offered)),
                  "ratio", overload_offered);
    out.add_layer("serve.backlog_end", mean(std::vector<double>(
                                           backlog_end.begin(),
                                           backlog_end.end())),
                  "count", backlog_end.size());
    out.add_layer("sched.lane_share.interactive",
                  ratio(service_interactive_s, service_all_s), "ratio",
                  overload_done);
    out.add_layer("stencil.sweep_glups", median(jacobi_kernel_glups),
                  "GLUP/s", jacobi_kernel_glups.size());
    out.add_layer("stencil.heat_kernel_ns_per_lup", heat_kernel_ns, "ns", 7);

    // Per job on the SLO rung: generator lateness and queue wait are
    // measured; service is composed from the kernel (probed for heat,
    // run_jacobi2d's own timing for Jacobi) plus the tasks the job spawns —
    // one per dataflow partition step, fork-joined over the pool, and one
    // small for_loop per sweep.
    double const heat_service_ms =
        (kHeatLups * heat_kernel_ns +
         double(kHeatSteps * kHeatPartitions) * rt_probe.spawn_join_ns) /
        static_cast<double>(kWorkers) / 1e6;
    double const jacobi_kernel_ms =
        kJacobiLups / (median(jacobi_kernel_glups) * 1e9) * 1e3;
    double const jacobi_service_ms =
        jacobi_kernel_ms +
        double(kJacobiSweeps) * rt_probe.for_loop_128_ns / 1e6;
    double const n_heat = static_cast<double>(service_heat_ms.size());
    double const n_jacobi = static_cast<double>(service_jacobi_ms.size());
    double const predicted_sum_ms =
        (mean(gen_late_us) / 1e3 + mean(queue_ms)) * (n_heat + n_jacobi) +
        heat_service_ms * n_heat + jacobi_service_ms * n_jacobi;
    out.add_layer("stencil.kernel_frac",
                  ratio(kHeatLups * heat_kernel_ns / 1e6 * n_heat +
                            jacobi_kernel_ms * n_jacobi,
                        latency_sum_ms),
                  "ratio", service_heat_ms.size() + service_jacobi_ms.size());
    out.add_layer("bench.unexplained_pct",
                  100.0 * (1.0 - ratio(predicted_sum_ms, latency_sum_ms)), "%",
                  service_heat_ms.size() + service_jacobi_ms.size());
    out.add_layer("trace.overhead_pct",
                  100.0 * (ratio(percentile(traced_latency_ms, 0.5),
                                 percentile(latency_ms, 0.5)) -
                           1.0),
                  "%", traced_latency_ms.size());
  }

  out.params = {{"policy", "wfq"},
                {"workers", std::to_string(kWorkers)},
                {"generator_threads", "1"},
                {"tenants", "interactive (weight 3), batch (weight 1)"},
                {"mix", "3:1 seeded"},
                {"interactive_job", "run_heat1d_dataflow 4096 pts, 8 parts, "
                                    "20 steps"},
                {"batch_job", "run_jacobi2d 128x128 double, 10 sweeps"},
                {"slo_rate_jobs_s", std::to_string(int(kSloRate))},
                {"max_in_flight_per_tenant", std::to_string(kMaxInFlight)},
                {"overload_rate_jobs_s", std::to_string(int(kOverloadRate))},
                {"segments", std::to_string(segments)},
                {"slo_share_of_segment", "0.7"},
                {"loop", "open, uniform arrivals"}};
}

}  // namespace pxbench
