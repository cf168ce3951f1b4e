// Tests for the fully distributed 1D heat solver on virtual localities:
// exact agreement with the serial reference across locality counts and
// fabric models, halo-message accounting, latency injection.
#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/stencil/reference.hpp"

namespace {

using namespace px::stencil;

px::dist::domain_config domain_cfg(std::size_t localities,
                                   double injection = 0.001) {
  px::dist::domain_config cfg;
  cfg.num_localities = localities;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = injection;
  return cfg;
}

class DistHeatLocalities : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistHeatLocalities, MatchesSerialReferenceExactly) {
  std::size_t const nloc = GetParam();
  px::dist::distributed_domain dom(domain_cfg(nloc));
  auto initial = heat1d_sine_initial(1003);  // ragged blocks
  dist_heat_config cfg;
  cfg.steps = 25;
  cfg.k = 0.25;
  auto result = run_distributed_heat1d(dom, initial, cfg);
  auto ref = reference_heat1d(initial, cfg.steps, cfg.k);
  ASSERT_EQ(result.values.size(), ref.size());
  EXPECT_LT(max_abs_diff(result.values, ref), 1e-13)
      << nloc << " localities";
}

INSTANTIATE_TEST_SUITE_P(Localities, DistHeatLocalities,
                         ::testing::Values(1, 2, 3, 4, 6));

// One initial field through every solver mode: each answer must equal the
// serial reference bit for bit, whatever the split, placement or fabric.
struct heat_mode {
  char const* name;
  std::size_t partitions;  // 0 = one per locality
  double zipf_s;
  bool rebalance;
  std::size_t checkpoint_interval;
  bool lossy;  // 1% drop/dup/reorder, coalescing + LZ

  friend void PrintTo(heat_mode const& m, std::ostream* os) { *os << m.name; }
};

class DistHeatModes : public ::testing::TestWithParam<heat_mode> {};

TEST_P(DistHeatModes, BitwiseEqualsReference) {
  heat_mode const m = GetParam();
  auto dcfg = domain_cfg(4, 0.0);
  if (m.lossy) {
    dcfg.faults.drop = 0.01;
    dcfg.faults.duplicate = 0.01;
    dcfg.faults.reorder = 0.01;
    dcfg.faults.seed = 7;
    dcfg.coalescing.enabled = true;
    dcfg.coalescing.compress = true;
  }
  px::dist::distributed_domain dom(dcfg);
  auto const initial = heat1d_sine_initial(403);
  dist_heat_config hc;
  hc.steps = 40;
  hc.partitions = m.partitions;
  hc.zipf_s = m.zipf_s;
  hc.rebalance_cfg.enabled = m.rebalance;
  hc.checkpoint_interval = m.checkpoint_interval;
  auto const out = run_distributed_heat1d(dom, initial, hc);
  dom.wait_all_quiescent();
  EXPECT_TRUE(out.values == reference_heat1d(initial, hc.steps, hc.k));
  if (m.rebalance) {
    EXPECT_GT(out.migrations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DistHeatModes,
    ::testing::Values(heat_mode{"uniform", 0, 0.0, false, 0, false},
                      heat_mode{"zipf16", 16, 1.1, false, 0, false},
                      heat_mode{"zipf16_rebalanced", 16, 1.1, true, 0, false},
                      heat_mode{"checkpointed", 0, 0.0, false, 5, false},
                      heat_mode{"lossy_coalesced_lz", 0, 0.0, false, 0, true}),
    [](::testing::TestParamInfo<heat_mode> const& mode) {
      return std::string(mode.param.name);
    });

TEST(DistHeat, CheckpointingWithRebalancingIsRejected) {
  px::dist::distributed_domain dom(domain_cfg(2, 0.0));
  auto const initial = heat1d_sine_initial(64);
  dist_heat_config hc;
  hc.checkpoint_interval = 5;
  hc.rebalance_cfg.enabled = true;
  EXPECT_THROW((void)run_distributed_heat1d(dom, initial, hc),
               std::invalid_argument);
}

TEST(DistHeat, HaloMessageCountMatchesTopology) {
  // A 1D chain of L localities exchanges 2(L-1) halo parcels per step.
  constexpr std::size_t nloc = 4, steps = 10;
  px::dist::distributed_domain dom(domain_cfg(nloc, 0.0));
  auto initial = heat1d_sine_initial(400);
  dist_heat_config cfg;
  cfg.steps = steps;
  auto result = run_distributed_heat1d(dom, initial, cfg);
  // Plus setup/teardown/scatter control parcels; halo traffic dominates
  // and is at least the topological minimum.
  EXPECT_GE(result.halo_messages, 2 * (nloc - 1) * steps);
}

TEST(DistHeat, VisibleNetworkLatencyStillCorrect) {
  // Large injected latency exercises the suspension path hard: edges wait
  // on halos while interiors compute.
  px::dist::distributed_domain dom(domain_cfg(3, /*injection=*/50.0));
  auto initial = heat1d_sine_initial(300);
  dist_heat_config cfg;
  cfg.steps = 8;
  auto result = run_distributed_heat1d(dom, initial, cfg);
  auto ref = reference_heat1d(initial, cfg.steps, cfg.k);
  EXPECT_LT(max_abs_diff(result.values, ref), 1e-13);
}

TEST(DistHeat, WeakNicModelAccumulatesMoreModeledTime) {
  auto run_with = [](px::net::fabric_model fm) {
    auto cfg = domain_cfg(3, 0.0);
    cfg.fabric = fm;
    px::dist::distributed_domain dom(cfg);
    auto initial = heat1d_sine_initial(300);
    dist_heat_config hc;
    hc.steps = 10;
    (void)run_distributed_heat1d(dom, initial, hc);
    return dom.fabric().counters().modeled_us();
  };
  double const ib = run_with(px::net::infiniband_edr());
  double const weak = run_with(px::net::hi1616_nic());
  EXPECT_GT(weak, 2.0 * ib);  // the Kunpeng story in the fabric numbers
}

TEST(DistHeat, AnalyticDecayAcrossLocalities) {
  px::dist::distributed_domain dom(domain_cfg(4));
  constexpr std::size_t nx = 2001;
  auto initial = heat1d_sine_initial(nx);
  dist_heat_config cfg;
  cfg.steps = 100;
  auto result = run_distributed_heat1d(dom, initial, cfg);
  auto analytic = analytic_heat1d_sine(nx, cfg.steps, cfg.k);
  EXPECT_LT(max_abs_diff(result.values, analytic), 1e-10);
}

TEST(DistHeat, BackToBackSolvesOnOneDomain) {
  // The prepare/teardown cycle must leave localities reusable.
  px::dist::distributed_domain dom(domain_cfg(2));
  auto initial = heat1d_sine_initial(200);
  dist_heat_config cfg;
  cfg.steps = 5;
  auto r1 = run_distributed_heat1d(dom, initial, cfg);
  auto r2 = run_distributed_heat1d(dom, initial, cfg);
  EXPECT_LT(max_abs_diff(r1.values, r2.values), 1e-15);
}

}  // namespace
