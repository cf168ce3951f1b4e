// heat1d_dist and heat1d_dist_lossy: the paper's §V-A distributed 1D heat
// solver, timed per solve call on a 4-locality virtual cluster, one
// closed-loop caller. Each run is split into segments on freshly built
// domains: per-domain step time is bimodal, so one domain per run would
// make the run's median a coin flip.
#include <algorithm>
#include <stdexcept>

#include "px/dist/distributed_domain.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/stencil/reference.hpp"
#include "workloads.hpp"

namespace {

int pxbench_noop(int v) { return v; }

}  // namespace

PX_REGISTER_ACTION(pxbench_noop)

namespace pxbench {
namespace {

constexpr std::size_t kLocalities = 4;
constexpr std::size_t kNx = 16384;  // 4096 points per locality
constexpr std::size_t kSteps = 200;
constexpr double kK = 0.25;

struct heat_shape {
  bool lossy;
  std::size_t segments;  // fresh domains per run
};

// Clean: default transport (no faults, so reliability stays inactive;
// coalescing off). Lossy: 1% drop, duplicate and reorder per frame, with
// coalescing and LZ compression on, so sequencing, acks, RTOs, dedup,
// coalescing and compression all do real work. Wire time is accounted but
// not slept (injection_scale 0) in both.
px::dist::domain_config domain_config_for(heat_shape const& w,
                                          std::uint64_t fault_seed) {
  px::dist::domain_config cfg;
  cfg.num_localities = kLocalities;
  cfg.locality_cfg.num_workers = 1;
  cfg.injection_scale = 0.0;
  if (w.lossy) {
    cfg.faults.drop = 0.01;
    cfg.faults.duplicate = 0.01;
    cfg.faults.reorder = 0.01;
    cfg.faults.seed = fault_seed;
    cfg.coalescing.enabled = true;
    cfg.coalescing.compress = true;
  }
  return cfg;
}

struct call_rtt {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t samples = 0;
};

// locality::call of a no-op action from locality 0 to locality 1.
call_rtt probe_call_rtt(px::dist::distributed_domain& dom, bool smoke,
                        span_log& spans) {
  scoped_span s(spans, "probe.call_rtt");
  std::size_t const n = smoke ? 50 : 2000;
  std::vector<double> us;
  us.reserve(n);
  dom.run([&](px::dist::locality& loc0) {
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t const t0 = now_ns();
      int const v = loc0.call<&pxbench_noop>(1u, static_cast<int>(i)).get();
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (v != static_cast<int>(i))
        throw std::runtime_error("no-op action returned a wrong value");
    }
    return 0;
  });
  return {percentile(us, 0.50), percentile(us, 0.99), n};
}

void run_heat(heat_shape const& w, options const& opt, result& out,
              span_log& spans) {
  auto const initial = perturbed_heat_initial(kNx, opt.seed);
  std::size_t const segments = opt.smoke ? 2 : w.segments;
  auto const budget_ns =
      static_cast<std::int64_t>(opt.seconds / segments * 1e9);
  px::stencil::dist_heat_config hc;
  hc.steps = kSteps;
  hc.k = kK;

  std::vector<double> setup_s;
  std::vector<double> untraced_ms;  // every op of an untraced run
  std::vector<double> traced_ms;    // traced runs: every other op is traced
  std::vector<double> quiesce_us;
  counter_totals totals;
  double timed_wall_s = 0.0;
  bool warmup_ok = true;
  std::string first_error;

  for (std::size_t seg = 0; seg < segments; ++seg) {
    std::int64_t const s0 = now_ns();
    auto const reference = px::stencil::reference_heat1d(initial, kSteps, kK);
    px::dist::distributed_domain dom(domain_config_for(w, opt.seed + seg));
    run_for(warmup_ns(opt), [&](std::uint64_t) {
      warmup_ok &=
          px::stencil::run_distributed_heat1d(dom, initial, hc).values ==
          reference;
      return true;
    });
    setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    spans.add("setup", s0, now_ns());
    counter_window window;
    timed_wall_s += 1e-9 * static_cast<double>(run_for(budget_ns, [&](
                                                   std::uint64_t i) {
      bool const traced = opt.trace && i % 2 == 1;
      std::int64_t const a = now_ns();
      bool ok = false;
      bool threw = false;
      std::int64_t b = 0;
      try {
        auto const res = px::stencil::run_distributed_heat1d(dom, initial, hc);
        b = now_ns();
        ok = res.values == reference;
      } catch (std::exception const& e) {
        b = now_ns();
        threw = true;
        if (first_error.empty()) first_error = e.what();
      }
      std::int64_t const c = now_ns();
      (traced ? traced_ms : untraced_ms)
          .push_back(static_cast<double>(b - a) / 1e6);
      out.attempted += 1;
      if (!ok) out.failed += 1;
      if (traced) {
        auto const op = spans.add("op", a, c, 0, out.attempted);
        spans.add("solve", a, b, op, out.attempted);
        spans.add("check", b, c, op, out.attempted);
      }
      return !threw;  // a broken domain: the next segment rebuilds it
    }));
    window.close_into(totals);

    std::int64_t const q0 = now_ns();
    dom.wait_all_quiescent();
    quiesce_us.push_back(static_cast<double>(now_ns() - q0) / 1e3);
    spans.add("quiesce", q0, now_ns());

    if (!opt.trace || seg + 1 != segments) continue;

    // Probes: after the timed phase, on the last segment's domain.
    auto const rt_probe = probe_runtime(dom.at(0).rt(), opt.smoke, spans);
    add_runtime_probe_metrics(out, rt_probe);
    auto const rtt = probe_call_rtt(dom, opt.smoke, spans);
    out.add_layer("dist.call_rtt_us_p50", rtt.p50_us, "us", rtt.samples);
    out.add_layer("dist.call_rtt_us_p99", rtt.p99_us, "us", rtt.samples);
    double const kernel_ns = probe_heat_kernel_ns_per_lup(
        kNx / kLocalities, opt.smoke ? 20 : kSteps, spans);
    out.add_layer("stencil.heat_kernel_ns_per_lup", kernel_ns, "ns", 7);
    double const halo_ns = probe_halo_serial_ns(opt.smoke, spans);
    out.add_layer("serial.halo_roundtrip_ns", halo_ns, "ns", 1);
    auto const codecs =
        probe_codecs(dom.coalesce_config(), dom.coalesce_config().max_parcels,
                     opt.smoke, spans);
    out.add_layer("net.coalesce_encode_ns", codecs.encode_ns, "ns", 1);
    out.add_layer("net.coalesce_decode_ns", codecs.decode_ns, "ns", 1);
    out.add_layer("net.lz_ns_per_kb", codecs.lz_ns_per_kb, "ns", 1);

    // The critical path of one solve, composed from the probed unit costs:
    // three rounds of calls (prepare, scatter+solve, teardown), then per
    // step the longer of {one partition's kernel in a small for_loop} and
    // {a halo in flight, half a call round trip} — the halo is sent before
    // the interior update to overlap it — plus two mailbox wakes.
    double const per_step_ns =
        std::max(kernel_ns * static_cast<double>(kNx / kLocalities) +
                     rt_probe.for_loop_128_ns,
                 rtt.p50_us * 1e3 / 2.0) +
        2.0 * rt_probe.promise_wake_ns;
    double const predicted_ms =
        (3.0 * rtt.p50_us * 1e3 + static_cast<double>(kSteps) * per_step_ns) /
        1e6;
    double const p50_ms = percentile(untraced_ms, 0.5);
    out.add_layer("stencil.kernel_frac",
                  ratio(kernel_ns * static_cast<double>(kNx / kLocalities) *
                            static_cast<double>(kSteps) / 1e6,
                        p50_ms),
                  "ratio", untraced_ms.size());
    out.add_layer("bench.unexplained_pct",
                  100.0 * (1.0 - ratio(predicted_ms, p50_ms)), "%",
                  untraced_ms.size());
  }

  auto const ops = untraced_ms.size() + traced_ms.size();
  out.add_check("heat.bitwise_vs_reference",
                out.failed == 0 && warmup_ok && ops > 0,
                std::to_string(ops - out.failed) + " of " +
                    std::to_string(ops) +
                    " timed solves (and every warm-up solve: " +
                    (warmup_ok ? "yes" : "no") +
                    ") bitwise equal to reference_heat1d" +
                    (first_error.empty() ? "" : "; error: " + first_error));

  double const mean_ms = mean(untraced_ms);
  out.add_e2e("setup_s", median(setup_s), "s", setup_s.size());
  out.add_e2e("latency_ms_p90", percentile(untraced_ms, 0.90), "ms",
              untraced_ms.size());
  out.add_e2e("glups",
              ratio(static_cast<double>(kNx * kSteps), mean_ms * 1e6), "GLUP/s",
              untraced_ms.size());

  if (opt.trace) {
    out.add_layer("e2e.latency_ms_p50", percentile(untraced_ms, 0.50), "ms",
                  untraced_ms.size());
    out.add_layer("e2e.latency_ms_p99", percentile(untraced_ms, 0.99), "ms",
                  untraced_ms.size());
    add_runtime_counter_metrics(out, totals, timed_wall_s, kLocalities,
                                ops);
    add_net_counter_metrics(out, totals, ops, kSteps);
    out.add_layer("dist.quiesce_us", median(quiesce_us), "us",
                  quiesce_us.size());
    out.add_layer("trace.overhead_pct",
                  100.0 * (ratio(mean(traced_ms), mean_ms) - 1.0), "%",
                  traced_ms.size());
  }

  out.params = {{"localities", std::to_string(kLocalities)},
                {"workers_per_locality", "1"},
                {"nx_total", std::to_string(kNx)},
                {"steps", std::to_string(kSteps)},
                {"segments", std::to_string(segments)},
                {"warmup_ms_per_segment",
                 std::to_string(warmup_ns(opt) / 1'000'000)},
                {"faults", w.lossy ? "drop=dup=reorder=0.01" : "none"},
                {"coalescing", w.lossy ? "on+lz" : "off"},
                {"injection_scale", "0"},
                {"loop", "closed, 1 caller"}};
}

}  // namespace

void run_heat1d_dist(options const& opt, result& out, span_log& spans) {
  run_heat({false, 10}, opt, out, spans);
}

void run_heat1d_dist_lossy(options const& opt, result& out, span_log& spans) {
  run_heat({true, 5}, opt, out, spans);
}

}  // namespace pxbench
