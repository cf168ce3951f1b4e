// px::agas rebalancer: the pure greedy planner, load folding (weights and
// health penalties), the live rebalanced heat solver, and the
// 256..1024-virtual-locality skewed-cluster model that runs the same
// planner analytically.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "px/agas/rebalance.hpp"
#include "px/arch/cluster_sim.hpp"
#include "px/arch/machine.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"

namespace {

using px::agas::load_imbalance;
using px::agas::partition_load;
using px::agas::plan_moves;
using px::agas::rebalance_config;

// ---- load_imbalance ------------------------------------------------------

TEST(Rebalance, ImbalanceOfFlatLoadIsOne) {
  EXPECT_DOUBLE_EQ(load_imbalance({4.0, 4.0, 4.0, 4.0}), 1.0);
  EXPECT_DOUBLE_EQ(load_imbalance({}), 1.0);
  EXPECT_DOUBLE_EQ(load_imbalance({0.0, 0.0}), 1.0);
}

TEST(Rebalance, ImbalanceIsMaxOverMean) {
  EXPECT_DOUBLE_EQ(load_imbalance({6.0, 2.0}), 6.0 / 4.0);
  EXPECT_DOUBLE_EQ(load_imbalance({9.0, 0.0, 0.0}), 3.0);
}

TEST(Rebalance, ImbalanceSkipsDeadLocalities) {
  // -1 marks dead: excluded from max and mean alike.
  EXPECT_DOUBLE_EQ(load_imbalance({6.0, 2.0, -1.0}), 6.0 / 4.0);
}

// ---- plan_moves ----------------------------------------------------------

TEST(Rebalance, PlannerIdlesBelowTrigger) {
  rebalance_config cfg;
  cfg.imbalance_trigger = 2.0;
  auto moves = plan_moves({5.0, 4.0}, {{0, 0, 1.0}, {1, 1, 1.0}}, cfg);
  EXPECT_TRUE(moves.empty());
}

TEST(Rebalance, PlannerDisabledPlansNothing) {
  rebalance_config cfg;
  cfg.enabled = false;
  auto moves = plan_moves({100.0, 0.0}, {{0, 0, 50.0}}, cfg);
  EXPECT_TRUE(moves.empty());
}

TEST(Rebalance, PlannerMovesHotToColdUntilBalanced) {
  rebalance_config cfg;
  cfg.imbalance_trigger = 1.1;
  cfg.max_moves_per_pass = 8;
  // Node 0 carries everything: 4 partitions of 25 each on node 0.
  std::vector<partition_load> parts = {
      {0, 0, 25.0}, {1, 0, 25.0}, {2, 0, 25.0}, {3, 0, 25.0}};
  auto moves = plan_moves({100.0, 0.0}, parts, cfg);
  ASSERT_FALSE(moves.empty());
  double l0 = 100.0, l1 = 0.0;
  for (auto const& m : moves) {
    EXPECT_EQ(m.from, 0u);
    EXPECT_EQ(m.to, 1u);
    l0 -= m.weight;
    l1 += m.weight;
  }
  EXPECT_LE(load_imbalance({l0, l1}), cfg.imbalance_trigger);
}

TEST(Rebalance, PlannerRespectsMoveBudget) {
  rebalance_config cfg;
  cfg.imbalance_trigger = 1.0 + 1e-9;
  cfg.max_moves_per_pass = 1;
  std::vector<partition_load> parts = {
      {0, 0, 25.0}, {1, 0, 25.0}, {2, 0, 25.0}, {3, 0, 25.0}};
  auto moves = plan_moves({100.0, 0.0}, parts, cfg);
  EXPECT_EQ(moves.size(), 1u);
}

TEST(Rebalance, PlannerNeverTargetsDeadLocalities) {
  rebalance_config cfg;
  cfg.imbalance_trigger = 1.05;
  cfg.max_moves_per_pass = 16;
  std::vector<partition_load> parts = {
      {0, 0, 30.0}, {1, 0, 30.0}, {2, 1, 10.0}};
  // Node 2 is the coldest but dead; everything must flow 0 -> 1.
  auto moves = plan_moves({60.0, 10.0, -1.0}, parts, cfg);
  for (auto const& m : moves) {
    EXPECT_NE(m.to, 2u);
    EXPECT_NE(m.from, 2u);
  }
}

TEST(Rebalance, PlannerSkipsPartitionsBelowMinWeight) {
  rebalance_config cfg;
  cfg.imbalance_trigger = 1.01;
  cfg.min_move_weight = 20.0;
  std::vector<partition_load> parts = {
      {0, 0, 10.0}, {1, 0, 10.0}, {2, 0, 10.0}};
  auto moves = plan_moves({30.0, 0.0}, parts, cfg);
  EXPECT_TRUE(moves.empty());  // all movables are under the floor
}

TEST(Rebalance, PlannerAvoidsOvershootSwaps) {
  rebalance_config cfg;
  cfg.imbalance_trigger = 1.01;
  cfg.max_moves_per_pass = 4;
  // The only movable partition weighs as much as the whole gap: moving it
  // just swaps which node is hot, so the planner must decline.
  std::vector<partition_load> parts = {{0, 0, 50.0}};
  auto moves = plan_moves({50.0, 0.0}, parts, cfg);
  EXPECT_TRUE(moves.empty());
}

TEST(Rebalance, PlannerIsDeterministic) {
  rebalance_config cfg;
  cfg.imbalance_trigger = 1.1;
  cfg.max_moves_per_pass = 8;
  std::vector<partition_load> parts = {
      {3, 0, 10.0}, {1, 0, 10.0}, {2, 1, 5.0}, {0, 0, 10.0}};
  auto a = plan_moves({30.0, 5.0, 0.0}, parts, cfg);
  std::reverse(parts.begin(), parts.end());
  auto b = plan_moves({30.0, 5.0, 0.0}, parts, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].to, b[i].to);
  }
}

// ---- zipf partition sizing -----------------------------------------------

TEST(Rebalance, ZipfSizesAreSkewedAndExact) {
  auto const sizes = px::stencil::zipf_partition_sizes(1000, 8, 1.1);
  ASSERT_EQ(sizes.size(), 8u);
  std::size_t total = 0;
  for (std::size_t p = 0; p < sizes.size(); ++p) {
    EXPECT_GE(sizes[p], 2u);
    if (p > 0) {
      EXPECT_LE(sizes[p], sizes[p - 1] + 1);  // monotone-ish skew
    }
    total += sizes[p];
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_GT(sizes[0], sizes[7] * 2);  // the head is genuinely heavy
}

// ---- live rebalanced solver ----------------------------------------------

TEST(Rebalance, SkewedHeatRebalancesAndStaysBitwiseExact) {
  auto const initial = px::stencil::heat1d_sine_initial(240);
  px::stencil::dist_heat_config hc;
  hc.partitions = 8;
  hc.steps = 24;
  hc.steps_per_round = 6;
  hc.zipf_s = 1.1;
  hc.rebalance_cfg.enabled = true;

  px::dist::domain_config cfg;
  cfg.num_localities = 4;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;

  px::stencil::dist_heat_config static_cfg = hc;
  static_cfg.rebalance_cfg.enabled = false;
  px::dist::distributed_domain static_dom(cfg);
  auto const baseline = run_distributed_heat1d(static_dom, initial, static_cfg);
  static_dom.wait_all_quiescent();
  EXPECT_EQ(baseline.migrations, 0u);
  EXPECT_GT(baseline.imbalance_initial, 1.25);  // the zipf skew is real

  px::dist::distributed_domain dom(cfg);
  auto const out = run_distributed_heat1d(dom, initial, hc);
  dom.wait_all_quiescent();  // single-residence invariant runs here
  EXPECT_GT(out.migrations, 0u);
  EXPECT_LT(out.imbalance_final, out.imbalance_initial);
  ASSERT_EQ(out.values.size(), baseline.values.size());
  EXPECT_EQ(out.values, baseline.values);  // bitwise, not approximately
}

// ---- the ≥256-virtual-locality analytic model ----------------------------

TEST(Rebalance, MigrationCostModelIsSaneAndMonotone) {
  auto const m = px::arch::a64fx();
  auto const fab = px::arch::fabric_for(m);
  double const small = px::arch::migration_cost_s(m, fab, 1 << 10);
  double const big = px::arch::migration_cost_s(m, fab, 1 << 24);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(big, small);
  // Control-message floor: even zero bytes pay latency for ack + commit.
  EXPECT_GT(px::arch::migration_cost_s(m, fab, 0), 0.0);
}

TEST(Rebalance, SkewedClusterRebalanceBeatsStaticAt256) {
  auto const m = px::arch::a64fx();
  auto const fab = px::arch::fabric_for(m);
  px::arch::skewed_cluster_config cfg;
  cfg.nodes = 256;
  cfg.partitions = 1024;
  cfg.rounds = 32;
  cfg.policy.max_moves_per_pass = 16;

  px::arch::skewed_cluster_config static_cfg = cfg;
  static_cfg.rebalance = false;
  auto const stat = px::arch::simulate_skewed_cluster(m, fab, static_cfg);
  auto const reb = px::arch::simulate_skewed_cluster(m, fab, cfg);

  EXPECT_EQ(stat.migrations, 0u);
  EXPECT_DOUBLE_EQ(stat.imbalance_final, stat.imbalance_initial);
  EXPECT_GT(reb.migrations, 0u);
  EXPECT_LT(reb.imbalance_final, reb.imbalance_initial);
  // The point of the whole exercise: even paying migration costs, the
  // rebalanced makespan wins on a zipf-skewed load.
  EXPECT_LT(reb.makespan_s, stat.makespan_s);
  EXPECT_GT(reb.migration_s, 0.0);
}

// p99 over per-step modeled times: every round contributes
// steps_per_round equal samples.
double model_p99_step_s(std::vector<double> const& rounds,
                        std::size_t steps_per_round) {
  std::vector<double> v;
  v.reserve(rounds.size() * steps_per_round);
  for (double s : rounds) v.insert(v.end(), steps_per_round, s);
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() * 99 + 99) / 100 - 1];  // rank ceil(0.99 n), 1-based
}

TEST(Rebalance, SkewedClusterRebalanceCutsP99StepTimeAt256) {
  // Blocked placement stacks the zipf head on the low nodes; the tail
  // step time is what a skewed cluster pays, so the rebalancer must cut
  // the modeled p99 step time below static placement's.
  auto const m = px::arch::a64fx();
  auto const fab = px::arch::fabric_for(m);
  px::arch::skewed_cluster_config cfg;
  cfg.nodes = 256;
  cfg.partitions = 1024;
  cfg.rounds = 128;
  cfg.steps_per_round = 8;
  cfg.placement = px::arch::skewed_placement::blocked;
  cfg.policy.max_moves_per_pass = 16;

  px::arch::skewed_cluster_config static_cfg = cfg;
  static_cfg.rebalance = false;
  auto const stat = px::arch::simulate_skewed_cluster(m, fab, static_cfg);
  auto const reb = px::arch::simulate_skewed_cluster(m, fab, cfg);
  double const p99_static =
      model_p99_step_s(stat.round_step_s, cfg.steps_per_round);
  double const p99_reb =
      model_p99_step_s(reb.round_step_s, cfg.steps_per_round);
  EXPECT_LT(p99_reb, p99_static)
      << "rebalanced p99 " << p99_reb * 1e3 << " ms, static "
      << p99_static * 1e3 << " ms";
}

TEST(Rebalance, SkewedClusterScalesTo1024Localities) {
  auto const m = px::arch::thunderx2();
  auto const fab = px::arch::fabric_for(m);
  px::arch::skewed_cluster_config cfg;
  cfg.nodes = 1024;
  cfg.partitions = 4096;
  cfg.rounds = 24;
  cfg.policy.max_moves_per_pass = 32;

  px::arch::skewed_cluster_config static_cfg = cfg;
  static_cfg.rebalance = false;
  auto const stat = px::arch::simulate_skewed_cluster(m, fab, static_cfg);
  auto const reb = px::arch::simulate_skewed_cluster(m, fab, cfg);
  EXPECT_GT(reb.migrations, 0u);
  EXPECT_LT(reb.makespan_s, stat.makespan_s);
  // Determinism at scale: same config, same answer.
  auto const again = px::arch::simulate_skewed_cluster(m, fab, cfg);
  EXPECT_DOUBLE_EQ(again.makespan_s, reb.makespan_s);
  EXPECT_EQ(again.migrations, reb.migrations);
}

}  // namespace
