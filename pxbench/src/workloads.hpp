// pxbench/src/workloads.hpp
// The four named workloads and the layer probes they share. Each workload
// builds its inputs from the seed, sets up (several times where the set-up
// is the thing that varies), runs its timed phase for the requested
// seconds, checks every answer, and fills a pxbench::result. In traced runs
// it also records spans and runs the probes of the layers it exercises,
// after its own timed phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "px/net/coalesce.hpp"
#include "px/runtime/runtime.hpp"

namespace pxbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // short set-up and smaller sizes, for the tests
};

// Untimed warm-up before each segment's timed phase. A fixed duration, not
// a fixed op count, so setup_s moves with construction and reference cost
// rather than with how fast the host runs the warm-up ops that day.
[[nodiscard]] inline std::int64_t warmup_ns(options const& opt) {
  return opt.smoke ? 20'000'000 : 100'000'000;
}

void run_heat1d_dist(options const& opt, result& out, span_log& spans);
void run_heat1d_dist_lossy(options const& opt, result& out, span_log& spans);
void run_jacobi2d(options const& opt, result& out, span_log& spans);
void run_serve_mixed(options const& opt, result& out, span_log& spans);

// Deterministic inputs: a splitmix64 stream, so a seed gives the same
// inputs on every platform and standard library.
class seeded_rng {
 public:
  explicit seeded_rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// Last-level cache bytes of cpu0 from sysfs (cache index3), 0 if unknown.
[[nodiscard]] std::size_t llc_bytes();

// The half-sine heat initial condition with a seeded perturbation of at
// most `amplitude` on every interior point (boundaries stay Dirichlet).
[[nodiscard]] std::vector<double> perturbed_heat_initial(
    std::size_t nx, std::uint64_t seed, double amplitude = 1e-3);

// ---- layer probes (each times public px calls at the workload's sizes) --

struct runtime_probe {
  double spawn_join_ns = 0.0;    // px::async(...).get() round trip
  double yield_ns = 0.0;         // this_task::yield()
  double promise_wake_ns = 0.0;  // set_value -> the waiting task resumes
  double for_loop_16384_ns = 0.0;  // empty-body for_loop(par), 16384 rows
  double for_loop_128_ns = 0.0;    // ... 128 rows
};
[[nodiscard]] runtime_probe probe_runtime(px::runtime& rt, bool smoke,
                                          span_log& spans);
void add_runtime_probe_metrics(result& out, runtime_probe const& p);

// Counter-delta metrics of the scheduler layer over a timed phase: busy
// fraction of `workers` over `wall_s`, tasks and parks per op, steal
// success and task-pool hit ratios.
void add_runtime_counter_metrics(result& out, counter_totals const& totals,
                                 double wall_s, std::size_t workers,
                                 std::uint64_t ops);

// Parcel and wire counter metrics per solve/step (heat workloads).
void add_net_counter_metrics(result& out, counter_totals const& totals,
                             std::uint64_t ops, std::uint64_t steps_per_op);

// ns per lattice-site update of heat1d_partition_update on one partition.
[[nodiscard]] double probe_heat_kernel_ns_per_lup(std::size_t points,
                                                  std::size_t steps,
                                                  span_log& spans);
// Serialize + deserialize of one halo parcel's argument tuple.
[[nodiscard]] double probe_halo_serial_ns(bool smoke, span_log& spans);
// Encode/decode of one coalesced frame of `batch` halo-sized parcels with
// the workload's coalescing config; and LZ compress+decompress per KiB.
struct codec_probe {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double lz_ns_per_kb = 0.0;
};
[[nodiscard]] codec_probe probe_codecs(px::net::coalescing_config const& cfg,
                                       std::size_t batch, bool smoke,
                                       span_log& spans);

}  // namespace pxbench
