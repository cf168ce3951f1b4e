// Migration torture: seed-swept random migration tours and the rebalanced
// heat solver under a lossy, coalescing fabric (drop/dup/reorder whole
// envelopes). Pins the tentpole's safety properties:
//   (a) exactly one resident copy per GID at quiesce — the domain's
//       "agas-single-residence" invariant, evaluated by wait_all_quiescent
//       via px::torture's invariant registry, plus an explicit cross-
//       locality census here;
//   (b) forwarding chains converge — every object stays reachable through
//       its original GID within the hop budget after arbitrary tours;
//   (c) the distributed heat solver on a zipf split is bitwise identical
//       to a clean, migration-free run even with the rebalancer actively
//       migrating partitions mid-solve under faults + coalescing.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "px/dist/migration.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/torture/forall.hpp"
#include "px/torture/invariant.hpp"

namespace {

struct tour_cell {
  std::uint64_t tag = 0;
  std::uint64_t hops = 0;

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& tag& hops;
  }
};

px::agas::gid tmig_make(px::dist::locality& here, std::uint64_t tag) {
  auto cell = std::make_shared<tour_cell>();
  cell->tag = tag;
  return here.agas().bind(std::move(cell));
}

// Component-addressed (call_component): runs wherever the object lives.
std::uint64_t tmig_read(px::dist::locality& here, px::agas::gid g) {
  auto cell = here.agas().resolve<tour_cell>(g);
  if (cell == nullptr) throw std::runtime_error("tour_cell not resident");
  return cell->tag;
}

px::agas::gid tmig_hop(px::dist::locality& here, px::agas::gid g,
                       std::uint32_t dest) {
  auto moved = px::dist::migrate<tour_cell>(here, g, dest).get();
  return moved;
}

int tmig_contains(px::dist::locality& here, px::agas::gid g) {
  return here.agas().contains(g) ? 1 : 0;
}

}  // namespace

PX_REGISTER_ACTION(tmig_make)
PX_REGISTER_ACTION(tmig_read)
PX_REGISTER_ACTION(tmig_hop)
PX_REGISTER_ACTION(tmig_contains)
PX_REGISTER_MIGRATABLE(tour_cell)

namespace {

namespace torture = px::torture;
using namespace std::chrono_literals;

constexpr std::size_t tour_localities = 4;

px::dist::domain_config lossy_migration_cfg(std::uint64_t seed) {
  px::dist::domain_config cfg;
  cfg.num_localities = tour_localities;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.001;
  cfg.faults.drop = 0.15;
  cfg.faults.duplicate = 0.05;
  cfg.faults.reorder = 0.05;
  cfg.faults.seed = static_cast<std::uint32_t>(seed ^ (seed >> 32));
  cfg.reliability.initial_backoff_us = 5.0;
  cfg.reliability.backoff_multiplier = 1.5;
  cfg.reliability.max_backoff_us = 100.0;
  cfg.reliability.max_retries = 64;
  cfg.coalescing.enabled = true;
  cfg.coalescing.compress = true;
  cfg.coalescing.max_parcels = 8;
  cfg.coalescing.flush_delay_us = 20.0;
  return cfg;
}

torture::forall_options migration_opts(char const* stem) {
  torture::forall_options opts;
  opts.perturb.perturb_probability = 0.4;
  opts.perturb.max_sleep_us = 100;
  opts.dump_stem = stem;
  return opts;
}

void fail_quiesce(std::unique_ptr<px::dist::distributed_domain> dom,
                  char const* what) {
  dom->detach_invariants();
  auto const leaked = dom->obligations_in_flight();
  (void)dom.release();  // corrupted: destructor would hang
  throw torture::invariant_violation(
      {{"obligation-balance",
        std::to_string(leaked) + " obligation(s) in flight " + what}});
}

// (a) + (b): random concurrent migration tours. Each object takes a
// seed-chosen walk over the cluster (departures run at the object's
// current residence via call_component, so a stale driver view is itself
// part of the test), interleaved with reads through the original GID.
// At quiesce: the single-residence/tombstone-convergence invariant runs,
// then an explicit census confirms exactly one copy per GID, and every
// object is still reachable by a cold caller within the hop budget.
TEST(TortureMigration, RandomToursKeepOneResidentCopyUnderSeeds) {
  auto r = torture::forall_seeds(
      torture::seed_count(16),
      [](std::uint64_t seed) {
        auto dom = std::make_unique<px::dist::distributed_domain>(
            lossy_migration_cfg(seed));
        constexpr std::size_t objects = 6;
        constexpr std::size_t hops_per_object = 4;
        std::vector<px::agas::gid> gids(objects);
        dom->run([&](px::dist::locality& loc0) {
          std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
          std::uniform_int_distribution<std::uint32_t> pick(
              0, tour_localities - 1);
          for (std::size_t i = 0; i < objects; ++i)
            gids[i] = loc0.call<&tmig_make>(pick(rng), i + 1).get();

          // Interleaved tours: kick one hop per object, read through the
          // original GID while chains are hot, repeat.
          for (std::size_t h = 0; h < hops_per_object; ++h) {
            std::vector<px::future<px::agas::gid>> hops;
            hops.reserve(objects);
            for (std::size_t i = 0; i < objects; ++i)
              hops.push_back(loc0.call_component<&tmig_hop>(
                  gids[i], pick(rng)));
            for (std::size_t i = 0; i < objects; ++i) {
              try {
                (void)hops[i].get();
              } catch (std::runtime_error const&) {
                // A lost departure rolled back, or two hops raced: either
                // way the object must still exist exactly once — that is
                // what the census below asserts.
              }
              if (loc0.call_component<&tmig_read>(gids[i]).get() != i + 1)
                throw std::runtime_error(
                    "object lost its state mid-tour (gid " +
                    gids[i].to_string() + ")");
            }
          }
          return 0;
        });
        if (!dom->wait_all_quiescent_for(30s))
          fail_quiesce(std::move(dom), "after migration tours");

        // Census + convergence from a cold perspective.
        dom->run([&](px::dist::locality& loc0) {
          for (std::size_t i = 0; i < objects; ++i) {
            int residents = 0;
            for (std::uint32_t l = 0; l < tour_localities; ++l)
              residents += loc0.call<&tmig_contains>(l, gids[i]).get();
            if (residents != 1)
              throw std::runtime_error(
                  "expected exactly 1 resident copy, found " +
                  std::to_string(residents) + " (gid " +
                  gids[i].to_string() + ")");
            if (loc0.call_component<&tmig_read>(gids[i]).get() != i + 1)
              throw std::runtime_error("post-quiesce read failed");
          }
          return 0;
        });
        if (!dom->wait_all_quiescent_for(30s))
          fail_quiesce(std::move(dom), "after census");
      },
      migration_opts("torture-migration-tours"));
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

// (c): the rebalancer migrates live solver partitions mid-run under a
// lossy coalescing fabric, and the answer must not wobble by a single bit
// against a clean static-placement run.
TEST(TortureMigration, RebalancedHeatBitwiseEqualsStaticUnderSeeds) {
  auto const initial = px::stencil::heat1d_sine_initial(240);
  px::stencil::dist_heat_config hc;
  hc.partitions = 8;
  hc.steps = 24;
  hc.steps_per_round = 6;
  hc.zipf_s = 1.1;
  hc.rebalance_cfg.enabled = true;

  // Baseline: clean fabric, rebalancer off — no migration anywhere.
  px::dist::domain_config clean = lossy_migration_cfg(0);
  clean.faults = {};
  clean.coalescing = {};
  clean.injection_scale = 0.0;
  px::stencil::dist_heat_config static_cfg = hc;
  static_cfg.rebalance_cfg.enabled = false;
  px::dist::distributed_domain clean_dom(clean);
  auto const baseline = run_distributed_heat1d(clean_dom, initial, static_cfg);
  clean_dom.wait_all_quiescent();
  ASSERT_EQ(baseline.migrations, 0u);
  ASSERT_EQ(baseline.values.size(), initial.size());

  auto r = torture::forall_seeds(
      torture::seed_count(16),
      [&](std::uint64_t seed) {
        px::dist::distributed_domain dom(lossy_migration_cfg(seed));
        if (!dom.reliable() || !dom.coalescing())
          throw std::runtime_error("domain lost reliability or coalescing");
        auto const out = run_distributed_heat1d(dom, initial, hc);
        dom.wait_all_quiescent();
        if (out.migrations == 0)
          throw std::runtime_error(
              "rebalancer moved nothing — the skew was supposed to "
              "trigger it");
        if (out.values.size() != baseline.values.size() ||
            !(out.values == baseline.values))
          throw std::runtime_error(
              "rebalanced lossy heat1d diverged bitwise from the "
              "static fault-free run");
      },
      migration_opts("torture-migration-heat"));
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

}  // namespace
