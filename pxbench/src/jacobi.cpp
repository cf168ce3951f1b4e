// jacobi2d: the paper's float 2D Jacobi problem, DRAM-sized, solved both
// ways per op — compiler auto-vectorized (run_jacobi2d_auto) and explicit
// VNS packs at the native width (run_jacobi2d_vns) — timed end to end, so
// allocation, VNS encode/decode and snapshotting count, not just sweeps.
#include <cstring>
#include <memory>
#include <optional>

#include "px/arch/stream_bench.hpp"
#include "px/lcos/async.hpp"
#include "px/stencil/jacobi2d_vns.hpp"
#include "workloads.hpp"

namespace pxbench {
namespace {

constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSteps = 20;
constexpr std::size_t kSegments = 3;

using px::stencil::field2d;

// Unit Dirichlet problem with 1024 seeded interior hot spots.
field2d<float> seeded_problem(std::size_t nx, std::size_t ny,
                              std::uint64_t seed) {
  field2d<float> f(nx, ny);
  px::stencil::init_dirichlet_problem(f);
  seeded_rng rng(seed);
  for (int i = 0; i < 1024; ++i) {
    std::size_t const x = rng.next() % nx;
    std::size_t const y = rng.next() % ny;
    f.set(x, y, static_cast<float>(rng.unit()));
  }
  return f;
}

bool bitwise_equal(std::vector<float> const& a, std::vector<float> const& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

// The building blocks run_jacobi2d_auto / run_jacobi2d_vns compose, called
// one by one on the same problem; medians in ms per block.
struct decomposed {
  std::vector<double> alloc, copy, sweep, snapshot;
  std::vector<double> pack_alloc, encode, pack_sweep, decode;
};

void run_decomposed(px::runtime& rt, field2d<float> const& init,
                    decomposed& d, span_log& spans, std::uint64_t request) {
  px::sync_wait(rt, [&] {
    auto const root = spans.open("decomposed", 0, request);
    auto block = [&](char const* name, std::vector<double>& into,
                     auto&& body) {
      std::int64_t const a = now_ns();
      body();
      std::int64_t const b = now_ns();
      spans.add(name, a, b, root, request);
      into.push_back(ms_between(a, b));
    };
    {
      std::optional<field2d<float>> u0, u1;
      block("field2d", d.alloc, [&] {
        u0.emplace(init.nx(), init.ny());
        u1.emplace(init.nx(), init.ny());
      });
      block("copy_problem", d.copy, [&] {
        px::stencil::copy_problem(*u0, init);
        px::stencil::copy_problem(*u1, init);
      });
      px::stencil::jacobi2d_result r;
      block("run_jacobi2d", d.sweep, [&] {
        r = px::stencil::run_jacobi2d(px::execution::par, *u0, *u1, kSteps);
      });
      block("interior_snapshot", d.snapshot, [&] {
        (void)px::stencil::interior_snapshot(r.final_index == 0 ? *u0 : *u1);
      });
    }
    px::stencil::with_vns_pack<float>(
        px::stencil::vns_abi::native, [&](auto tag) {
          using P = typename decltype(tag)::type;
          std::optional<field2d<P>> u0, u1;
          block("field2d.pack", d.pack_alloc, [&] {
            u0.emplace(init.nx(), init.ny());
            u1.emplace(init.nx(), init.ny());
          });
          block("copy_problem.pack", d.encode, [&] {
            px::stencil::copy_problem(*u0, init);
            px::stencil::copy_problem(*u1, init);
          });
          px::stencil::jacobi2d_result r;
          block("run_jacobi2d.pack", d.pack_sweep, [&] {
            r = px::stencil::run_jacobi2d(px::execution::par, *u0, *u1,
                                          kSteps);
          });
          block("interior_snapshot.pack", d.decode, [&] {
            (void)px::stencil::interior_snapshot(r.final_index == 0 ? *u0
                                                                    : *u1);
          });
        });
    spans.close(root);
    return 0;
  });
}

}  // namespace

void run_jacobi2d(options const& opt, result& out, span_log& spans) {
  std::size_t const nx = opt.smoke ? 512 : 8192;
  std::size_t const ny = opt.smoke ? 512 : 4096;
  std::size_t const segments = opt.smoke ? 2 : kSegments;
  auto const budget_ns =
      static_cast<std::int64_t>(opt.seconds / segments * 1e9);
  double const lups = static_cast<double>(nx * ny * kSteps);
  px::scheduler_config sc;
  sc.num_workers = kWorkers;

  std::vector<double> setup_s;
  std::vector<double> pair_ms, traced_pair_ms, auto_ms, pack_ms;
  std::vector<double> auto_kernel_s, pack_kernel_s;
  counter_totals totals;
  double timed_wall_s = 0.0;

  for (std::size_t seg = 0; seg < segments; ++seg) {
    std::int64_t const s0 = now_ns();
    auto rt = std::make_unique<px::runtime>(sc);
    auto const init = seeded_problem(nx, ny, opt.seed);
    setup_s.push_back(static_cast<double>(now_ns() - s0) / 1e9);
    spans.add("setup", s0, now_ns());

    counter_window window;
    timed_wall_s += 1e-9 * static_cast<double>(run_for(budget_ns, [&](
                                                   std::uint64_t i) {
      bool const traced = opt.trace && i % 2 == 1;
      std::int64_t const a = now_ns();
      auto const ra = px::sync_wait(*rt, [&] {
        return px::stencil::run_jacobi2d_auto<float>(px::execution::par,
                                                     init, kSteps);
      });
      std::int64_t const b = now_ns();
      auto const rv = px::sync_wait(*rt, [&] {
        return px::stencil::run_jacobi2d_vns<float>(
            px::execution::par, px::stencil::vns_abi::native, init, kSteps);
      });
      std::int64_t const c = now_ns();
      bool const ok = bitwise_equal(ra.interior, rv.interior);
      std::int64_t const d = now_ns();

      out.attempted += 1;
      if (!ok) out.failed += 1;
      (traced ? traced_pair_ms : pair_ms).push_back(ms_between(a, c));
      if (traced) {
        auto const op = spans.add("op", a, d, 0, out.attempted);
        spans.add("run_jacobi2d_auto", a, b, op, out.attempted);
        spans.add("run_jacobi2d_vns", b, c, op, out.attempted);
        spans.add("check", c, d, op, out.attempted);
      } else {
        auto_ms.push_back(ms_between(a, b));
        pack_ms.push_back(ms_between(b, c));
        auto_kernel_s.push_back(ra.timing.seconds);
        pack_kernel_s.push_back(rv.timing.seconds);
      }
      return true;
    }));
    window.close_into(totals);

    if (!opt.trace || seg + 1 != segments) continue;

    // Probes, after the timed phase, on the last segment's runtime.
    add_runtime_probe_metrics(out, probe_runtime(*rt, opt.smoke, spans));
    decomposed dec;
    for (int rep = 0; rep < (opt.smoke ? 1 : 2); ++rep)
      run_decomposed(*rt, init, dec, spans, out.attempted + 1 + rep);
    out.add_layer("stencil.field_alloc_ms", median(dec.alloc), "ms",
                  dec.alloc.size());
    out.add_layer("stencil.scalar_copy_ms", median(dec.copy), "ms",
                  dec.copy.size());
    out.add_layer("stencil.snapshot_ms", median(dec.snapshot), "ms",
                  dec.snapshot.size());
    out.add_layer("simd.vns_encode_ms", median(dec.encode), "ms",
                  dec.encode.size());
    out.add_layer("simd.vns_decode_ms", median(dec.decode), "ms",
                  dec.decode.size());
    double const composed_ms =
        median(dec.alloc) + median(dec.copy) + median(dec.sweep) +
        median(dec.snapshot) + median(dec.pack_alloc) + median(dec.encode) +
        median(dec.pack_sweep) + median(dec.decode);
    out.add_layer("bench.unexplained_pct",
                  100.0 * (1.0 - ratio(composed_ms, percentile(pair_ms, 0.5))),
                  "%", pair_ms.size());

    // STREAM copy at >= 4x the LLC, same run, same workers: the roofline's
    // denominator must come from DRAM, not from cache.
    std::size_t const llc = llc_bytes();
    px::arch::stream_config stream;
    stream.array_elements =
        opt.smoke ? std::size_t{1} << 20
                  : std::max<std::size_t>(4 * llc, std::size_t{1} << 30) /
                        sizeof(double);
    stream.repetitions = 3;
    double gbs = 0.0;
    {
      scoped_span s(spans, "probe.stream_copy");
      gbs = px::arch::measure_copy_bandwidth_gbs(*rt, stream);
    }
    out.add_layer("arch.stream_copy_gbs", gbs, "GB/s", stream.repetitions);
    out.params.emplace_back("llc_bytes", std::to_string(llc));
    out.params.emplace_back(
        "stream_array_bytes",
        std::to_string(stream.array_elements * sizeof(double)));
    double const sweep_glups = lups / median(auto_kernel_s) / 1e9;
    // Computed, not measured: 8 B of DRAM traffic per float LUP (one read,
    // one write) at the measured copy bandwidth.
    out.add_layer("stencil.roofline_frac", ratio(sweep_glups, gbs / 8.0),
                  "ratio", auto_kernel_s.size());
  }

  out.add_check("jacobi2d.auto_equals_vns_bitwise",
                out.failed == 0 && out.attempted > 0,
                std::to_string(out.attempted - out.failed) + " of " +
                    std::to_string(out.attempted) +
                    " pairs: auto and native-pack interiors bitwise equal");

  out.add_e2e("setup_s", median(setup_s), "s", setup_s.size());
  out.add_e2e("latency_ms_p90", percentile(pair_ms, 0.90), "ms",
              pair_ms.size());
  out.add_e2e("glups", ratio(2.0 * lups, mean(pair_ms) * 1e6), "GLUP/s",
              pair_ms.size());

  if (opt.trace) {
    out.add_layer("e2e.latency_ms_p50", percentile(pair_ms, 0.50), "ms",
                  pair_ms.size());
    out.add_layer("e2e.latency_ms_p99", percentile(pair_ms, 0.99), "ms",
                  pair_ms.size());
    auto const ops = pair_ms.size() + traced_pair_ms.size();
    add_runtime_counter_metrics(out, totals, timed_wall_s, kWorkers, ops);
    out.add_layer("stencil.auto_call_glups",
                  ratio(lups, percentile(auto_ms, 0.5) * 1e6), "GLUP/s",
                  auto_ms.size());
    out.add_layer("simd.pack_call_glups",
                  ratio(lups, percentile(pack_ms, 0.5) * 1e6), "GLUP/s",
                  pack_ms.size());
    out.add_layer("stencil.sweep_glups", lups / median(auto_kernel_s) / 1e9,
                  "GLUP/s", auto_kernel_s.size());
    out.add_layer("simd.pack_sweep_glups", lups / median(pack_kernel_s) / 1e9,
                  "GLUP/s", pack_kernel_s.size());
    out.add_layer("stencil.kernel_frac",
                  ratio((median(auto_kernel_s) + median(pack_kernel_s)) * 1e3,
                        percentile(pair_ms, 0.5)),
                  "ratio", pair_ms.size());
    out.add_layer("trace.overhead_pct",
                  100.0 * (ratio(mean(traced_pair_ms), mean(pair_ms)) - 1.0),
                  "%", traced_pair_ms.size());
  }

  out.params.insert(out.params.begin(),
                    {{"nx", std::to_string(nx)},
                     {"ny", std::to_string(ny)},
                     {"cell", "float"},
                     {"sweeps", std::to_string(kSteps)},
                     {"workers", std::to_string(kWorkers)},
                     {"pack_abi", "native"},
                     {"segments", std::to_string(segments)},
                     {"field_pair_bytes", std::to_string(2 * nx * ny * 4)},
                     {"loop", "closed, 1 caller"}});
}

}  // namespace pxbench
