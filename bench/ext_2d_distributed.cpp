// Extension experiment (beyond the paper): multi-node scaling of the 2D
// Jacobi benchmark. The paper runs 2D shared-memory only and 1D
// distributed; the natural follow-up — the paper's own stencil lineage
// ([9] runs HPX 2D/3D stencils distributed) — is 2D over the cluster.
//
// Part 1: DES-modeled strong scaling of the paper grid (8192x131072,
// float) across 1-8 nodes of each machine: halo rows are nx scalars, so
// the fabric bandwidth term matters and the Kunpeng NIC hurts twice.
// Part 2: real run of the px distributed 2D solver (scalar and VNS-pack
// block kernels) on virtual localities, validated against the serial
// reference.
#include <cstdio>

#include "bench_common.hpp"
#include "px/arch/cluster_sim.hpp"
#include "px/stencil/stencil.hpp"
#include "px/support/env.hpp"

namespace {

void real_run(bool use_simd) {
  using namespace px::stencil;
  px::dist::domain_config dc;
  dc.num_localities = 4;
  dc.locality_cfg.num_workers = 1;
  dc.injection_scale = 1.0;
  px::dist::distributed_domain dom(dc);

  dist_jacobi_config cfg;
  cfg.nx = px::env_size("PX_NX").value_or(256);
  std::size_t const ny = px::env_size("PX_NY").value_or(128);
  cfg.steps = px::env_size("PX_STEPS").value_or(20);
  cfg.use_simd = use_simd;
  std::vector<double> initial(cfg.nx * ny, 0.0);
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  auto ref = reference_jacobi2d_interior(initial, cfg.nx, ny, cfg.steps,
                                         cfg.boundary);
  std::printf("  %-12s %7.1f MLUP/s, %5llu halo msgs / %7llu bytes, "
              "max err %.1e\n",
              use_simd ? "VNS packs" : "scalar", result.glups * 1e3,
              static_cast<unsigned long long>(result.halo_messages),
              static_cast<unsigned long long>(result.halo_bytes),
              max_abs_diff(result.values, ref));
}

}  // namespace

int main() {
  using namespace px::arch;
  px::bench::print_header(
      "EXTENSION — 2D stencil distributed over the cluster",
      "DES-modeled multi-node scaling (paper grid, float, explicit vec) + "
      "real virtual-cluster run.");

  std::printf("modeled strong scaling, time for 100 steps (s):\n");
  std::printf("nodes | %-10s | %-10s | %-10s | %-10s\n", "xeon",
              "kunpeng916", "tx2", "a64fx");
  std::printf("%s\n", std::string(62, '-').c_str());
  for (std::size_t n = 1; n <= 8; n *= 2) {
    std::printf("%5zu", n);
    for (auto const& m : paper_machines()) {
      cluster2d_config cfg;
      cfg.nodes = n;
      auto res = simulate_jacobi2d_cluster(m, fabric_for(m), cfg);
      std::printf(" | %10.2f", res.makespan_s);
    }
    std::printf("\n");
  }

  std::printf("\nexposed communication at 8 nodes (s, out of total):\n");
  for (auto const& m : paper_machines()) {
    cluster2d_config cfg;
    cfg.nodes = 8;
    auto res = simulate_jacobi2d_cluster(m, fabric_for(m), cfg);
    std::printf("  %-12s exposed %6.3f s of %6.2f s (%4.1f%%)\n",
                m.short_name.c_str(), res.exposed_wait_s, res.makespan_s,
                100.0 * res.exposed_wait_s /
                    (res.makespan_s * static_cast<double>(cfg.nodes)));
  }

  std::printf("\nreal run: 4 virtual localities, %zux%zu, %zu steps\n",
              px::env_size("PX_NX").value_or(256),
              px::env_size("PX_NY").value_or(128),
              px::env_size("PX_STEPS").value_or(20));
  real_run(false);
  real_run(true);
  return 0;
}
