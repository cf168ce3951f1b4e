// Layer probes and the counter-delta metrics shared by the workloads.
#include <fstream>
#include <tuple>

#include "px/lcos/async.hpp"
#include "px/net/compress.hpp"
#include "px/parallel/algorithms.hpp"
#include "px/serial/archive.hpp"
#include "px/stencil/heat1d.hpp"
#include "workloads.hpp"

namespace pxbench {

namespace {

// Keeps a probed result alive so the timed call cannot be optimized away.
template <typename T>
void keep(T const& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Median over `batches` of the mean per-call time of `per_batch` calls.
template <typename F>
double median_ns_per_call(std::size_t batches, std::size_t per_batch,
                          F&& body) {
  std::vector<double> samples;
  samples.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    std::int64_t const t0 = now_ns();
    for (std::size_t i = 0; i < per_batch; ++i) body();
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(per_batch));
  }
  return median(std::move(samples));
}

// The argument tuple of one heat halo parcel (partition, attempt, step,
// side, value) — what the distributed solver ships every step.
using halo_args = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                             std::uint8_t, double>;

std::vector<std::byte> halo_payload(std::uint64_t step) {
  px::serial::output_archive out;
  out& halo_args{1, 1, step, std::uint8_t{1}, 0.5 + 1e-6 * double(step)};
  return out.take();
}

}  // namespace

std::size_t llc_bytes() {
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::size_t v = 0;
  char unit = 0;
  if (!(in >> v)) return 0;
  in >> unit;
  return unit == 'K' ? v << 10 : unit == 'M' ? v << 20 : v;
}

std::vector<double> perturbed_heat_initial(std::size_t nx, std::uint64_t seed,
                                           double amplitude) {
  auto u = px::stencil::heat1d_sine_initial(nx);
  seeded_rng rng(seed);
  for (std::size_t x = 1; x + 1 < nx; ++x)
    u[x] += amplitude * (2.0 * rng.unit() - 1.0);
  return u;
}

runtime_probe probe_runtime(px::runtime& rt, bool smoke, span_log& spans) {
  std::size_t const batches = smoke ? 3 : 21;
  runtime_probe p;
  px::sync_wait(rt, [&] {
    {
      scoped_span s(spans, "probe.spawn_join");
      p.spawn_join_ns = median_ns_per_call(batches, 200, [] {
        (void)px::async([] { return 1; }).get();
      });
    }
    {
      scoped_span s(spans, "probe.yield");
      p.yield_ns = median_ns_per_call(batches, 1000,
                                      [] { px::this_task::yield(); });
    }
    {
      scoped_span s(spans, "probe.promise_wake");
      std::vector<double> wakes;
      for (std::size_t i = 0; i < batches * 50; ++i) {
        px::promise<void> pr;
        auto f = pr.get_future();
        std::int64_t set_at = 0;
        // The setter owns the promise, so the waiter may resume (and leave
        // this scope) while the setter is still returning from set_value.
        px::post([pr = std::move(pr), &set_at]() mutable {
          set_at = now_ns();
          pr.set_value();
        });
        f.get();
        wakes.push_back(static_cast<double>(now_ns() - set_at));
      }
      p.promise_wake_ns = median(std::move(wakes));
    }
    {
      scoped_span s(spans, "probe.for_loop");
      p.for_loop_16384_ns = median_ns_per_call(batches, 20, [] {
        px::parallel::for_loop(px::execution::par, 0, 16384,
                               [](std::size_t) {});
      });
      p.for_loop_128_ns = median_ns_per_call(batches, 50, [] {
        px::parallel::for_loop(px::execution::par, 0, 128,
                               [](std::size_t) {});
      });
    }
    return 0;
  });
  return p;
}

void add_runtime_probe_metrics(result& out, runtime_probe const& p) {
  out.add_layer("runtime.spawn_join_ns", p.spawn_join_ns, "ns", 1);
  out.add_layer("fibers.yield_ns", p.yield_ns, "ns", 1);
  out.add_layer("lcos.promise_wake_ns", p.promise_wake_ns, "ns", 1);
  out.add_layer("parallel.for_loop_16384_ns", p.for_loop_16384_ns, "ns", 1);
  out.add_layer("parallel.for_loop_128_ns", p.for_loop_128_ns, "ns", 1);
}

void add_runtime_counter_metrics(result& out, counter_totals const& totals,
                                 double wall_s, std::size_t workers,
                                 std::uint64_t ops) {
  std::string const sched = "/px/scheduler{";
  auto sum = [&](char const* suffix) {
    return sum_paths(totals, sched, suffix);
  };
  double const busy_ns = sum("}/busy_ns");
  double const steals = sum("}/steals");
  double const failed_steals = sum("}/failed_steal_rounds");
  double const hits = sum("}/task_pool_hits");
  double const misses = sum("}/task_pool_misses");
  auto const n = static_cast<double>(ops);
  out.add_layer("runtime.busy_frac",
                ratio(busy_ns, wall_s * 1e9 * static_cast<double>(workers)),
                "ratio", ops);
  out.add_layer("runtime.tasks_per_op", ratio(sum("}/tasks_executed"), n),
                "count", ops);
  out.add_layer("runtime.parks_per_op", ratio(sum("}/parks"), n), "count",
                ops);
  out.add_layer("runtime.steal_success_ratio",
                ratio(steals, steals + failed_steals), "ratio", ops);
  out.add_layer("runtime.task_pool_hit_ratio", ratio(hits, hits + misses),
                "ratio", ops);
}

void add_net_counter_metrics(result& out, counter_totals const& totals,
                             std::uint64_t ops, std::uint64_t steps_per_op) {
  auto at = [&](char const* path) {
    auto it = totals.find(path);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second);
  };
  double const n = static_cast<double>(ops);
  double const steps = n * static_cast<double>(steps_per_op);
  double const sent = at("/px/parcel/messages_sent");
  double const frames = at("/px/net/frames_on_wire");
  out.add_layer("parcel.messages_per_step", ratio(sent, steps), "count", ops);
  out.add_layer("parcel.bytes_per_message",
                ratio(at("/px/parcel/bytes_sent"), sent), "B", ops);
  out.add_layer("net.frames_per_step", ratio(frames, steps), "count", ops);
  out.add_layer("net.parcels_per_frame", ratio(sent, frames), "ratio", ops);
  out.add_layer("net.delivery_ratio",
                ratio(at("/px/parcel/parcels_delivered"), frames), "ratio",
                ops);
  out.add_layer("net.retransmits_per_solve",
                ratio(at("/px/net/retransmits"), n), "count", ops);
  out.add_layer("net.dup_suppressed_per_solve",
                ratio(at("/px/net/dup_suppressed"), n), "count", ops);
  out.add_layer("net.backoff_ms_per_solve",
                ratio(at("/px/net/backoff_us") / 1e3, n), "ms", ops);
  out.add_layer("net.compress_ratio",
                ratio(at("/px/net/compress_in_bytes"),
                      at("/px/net/compressed_bytes")),
                "ratio", ops);
  // Modeled (alpha-beta fabric accounting), not measured wire time.
  out.add_layer("net.modeled_us_per_step",
                ratio(at("/px/net/modeled_ns") / 1e3, steps), "us", ops);
}

double probe_heat_kernel_ns_per_lup(std::size_t points, std::size_t steps,
                                    span_log& spans) {
  scoped_span s(spans, "probe.heat_kernel");
  using buffer = std::vector<double, px::aligned_allocator<double, 64>>;
  auto const init = px::stencil::heat1d_sine_initial(points);
  buffer u[2] = {buffer(init.begin(), init.end()), buffer(points, 0.0)};
  std::vector<double> samples;
  for (int rep = 0; rep < 7; ++rep) {
    std::int64_t const t0 = now_ns();
    for (std::size_t t = 0; t < steps; ++t)
      px::stencil::heat1d_partition_update(u[t % 2], u[(t + 1) % 2], 0,
                                           points, 0.25);
    samples.push_back(static_cast<double>(now_ns() - t0) /
                      static_cast<double>(points * steps));
    keep(u[steps % 2][points / 2]);
  }
  return median(std::move(samples));
}

double probe_halo_serial_ns(bool smoke, span_log& spans) {
  scoped_span s(spans, "probe.halo_serial");
  std::uint64_t step = 0;
  return median_ns_per_call(smoke ? 3 : 21, 2000, [&] {
    auto bytes = halo_payload(++step);
    px::serial::input_archive in(bytes);
    halo_args back;
    in& back;
    keep(back);
  });
}

codec_probe probe_codecs(px::net::coalescing_config const& cfg,
                         std::size_t batch, bool smoke, span_log& spans) {
  scoped_span s(spans, "probe.codecs");
  std::size_t const batches = smoke ? 3 : 21;
  std::vector<px::parcel::parcel> parcels(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    parcels[i].source = 0;
    parcels[i].dest = 1;
    parcels[i].action = 7;
    parcels[i].seq = i + 1;
    parcels[i].epoch = 1;
    parcels[i].payload = halo_payload(i);
  }
  codec_probe p;
  px::parcel::parcel frame = px::net::encode_coalesced_frame(parcels, cfg);
  p.encode_ns = median_ns_per_call(batches, 200, [&] {
    frame = px::net::encode_coalesced_frame(parcels, cfg);
  });
  p.decode_ns = median_ns_per_call(batches, 200, [&] {
    keep(px::net::decode_coalesced_frame(frame));
  });

  // LZ on 16 KiB of halo-parcel bytes (the codec's target traffic).
  std::vector<std::byte> body;
  for (std::uint64_t i = 0; body.size() < 16 * 1024; ++i) {
    auto const h = halo_payload(i);
    body.insert(body.end(), h.begin(), h.end());
  }
  body.resize(16 * 1024);
  p.lz_ns_per_kb = median_ns_per_call(batches, 20, [&] {
                     auto const z =
                         px::net::lz_compress(body.data(), body.size());
                     keep(px::net::lz_decompress(z.data(), z.size(),
                                                 body.size()));
                   }) /
                   16.0;
  return p;
}

}  // namespace pxbench
