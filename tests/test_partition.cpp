// Partition-tolerance tests: fault-plane partition schedules (symmetric,
// one-way/gray, flapping, step-triggered activation and heal), quorum
// membership (the majority side confirms a partitioned minority dead while
// the minority fences itself instead of confirm-killing the majority),
// typed fenced_error refusals from every fencing gate (migration,
// rebalancer, serve admission, heat checkpoints), the gray-failure
// regression (a one-way link must not confirm-kill a healthy node once
// indirect probes run — and demonstrably does when they are disabled), the
// revive-during-suspect race, and heal/rejoin accounting. The
// `ctest -L partition` lane runs this with the partition torture sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "px/agas/rebalance.hpp"
#include "px/counters/counters.hpp"
#include "px/dist/membership.hpp"
#include "px/dist/migration.hpp"
#include "px/net/fault_plane.hpp"
#include "px/px.hpp"
#include "px/serve/serve.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"

namespace {

struct part_cell {
  std::uint64_t value = 0;

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& value;
  }
};

px::agas::gid pt_make(px::dist::locality& here, std::uint64_t value) {
  auto cell = std::make_shared<part_cell>();
  cell->value = value;
  return here.agas().bind(std::move(cell));
}

std::uint64_t pt_read(px::dist::locality& here, px::agas::gid g) {
  auto cell = here.agas().resolve<part_cell>(g);
  if (cell == nullptr) throw std::runtime_error("part_cell not resident");
  return cell->value;
}

}  // namespace

PX_REGISTER_ACTION(pt_make)
PX_REGISTER_ACTION(pt_read)
PX_REGISTER_MIGRATABLE(part_cell)

namespace {

using px::counters::builtin;
using namespace std::chrono_literals;

bool eventually(int deadline_ms, std::function<bool()> pred) {
  auto const deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ---- partition schedules (fault_plane unit) ------------------------------

TEST(PartitionSchedule, SymmetricBlackholesBothDirectionsAcrossTheCut) {
  px::net::fault_plane plane;  // no link faults: partitions work alone
  px::net::partition_spec spec;
  spec.side_a = {0, 1};
  spec.side_b = {2, 3};
  auto const id = plane.partition_now(spec);
  EXPECT_EQ(plane.active_partitions(), 1u);

  // Cross-cut frames vanish in both directions; same-side frames flow.
  auto const cut_fwd = plane.sample(0, 2);
  EXPECT_TRUE(cut_fwd.drop);
  EXPECT_TRUE(cut_fwd.blackholed);
  auto const cut_rev = plane.sample(3, 1);
  EXPECT_TRUE(cut_rev.drop);
  EXPECT_TRUE(cut_rev.blackholed);
  EXPECT_FALSE(plane.sample(0, 1).drop);
  EXPECT_FALSE(plane.sample(2, 3).drop);
  EXPECT_TRUE(plane.partitioned(0, 2));
  EXPECT_TRUE(plane.partitioned(2, 0));
  EXPECT_FALSE(plane.partitioned(0, 1));
  EXPECT_EQ(plane.stats().partition_drops, 2u);
  EXPECT_EQ(plane.stats().partitions_triggered, 1u);

  plane.heal_partition(id);
  EXPECT_EQ(plane.active_partitions(), 0u);
  EXPECT_FALSE(plane.sample(0, 2).drop);
  EXPECT_FALSE(plane.partitioned(0, 2));
  plane.heal_partition(id);  // unknown/healed id: no-op
}

TEST(PartitionSchedule, OneWayLossIsDirectional) {
  // The gray-failure shape: side A's frames toward side B are lost, the
  // reverse direction still flows.
  px::net::fault_plane plane;
  px::net::partition_spec spec;
  spec.side_a = {0};
  spec.side_b = {1};
  spec.symmetric = false;
  plane.partition_now(spec);

  EXPECT_TRUE(plane.sample(0, 1).drop);
  EXPECT_FALSE(plane.sample(1, 0).drop);
  EXPECT_TRUE(plane.partitioned(0, 1));
  EXPECT_FALSE(plane.partitioned(1, 0));
}

TEST(PartitionSchedule, FlappingLinkAlternatesWithStepPhase) {
  px::net::fault_plane plane;
  px::net::partition_spec spec;
  spec.side_a = {0};
  spec.side_b = {1};
  spec.flap_period_steps = 10;
  plane.partition_now(spec);  // activated at step 0

  plane.advance_step(5);  // phase 0: blocked
  EXPECT_TRUE(plane.sample(0, 1).drop);
  plane.advance_step(15);  // phase 1: open
  EXPECT_FALSE(plane.sample(0, 1).drop);
  plane.advance_step(25);  // phase 2: blocked again
  EXPECT_TRUE(plane.sample(0, 1).drop);
  // A flapping partition stays installed through its open phases: only a
  // heal removes it.
  EXPECT_EQ(plane.active_partitions(), 1u);
}

TEST(PartitionSchedule, StepTriggeredActivationAndHeal) {
  px::net::fault_plane plane;
  px::net::partition_spec spec;
  spec.side_a = {0};
  spec.side_b = {1, 2};
  auto const id = plane.partition_at_step(spec, 10);
  plane.heal_partition_at_step(id, 20);

  plane.advance_step(9);
  EXPECT_FALSE(plane.sample(0, 1).drop);
  EXPECT_EQ(plane.active_partitions(), 0u);
  EXPECT_EQ(plane.stats().partitions_triggered, 0u);

  plane.advance_step(10);
  EXPECT_TRUE(plane.sample(0, 2).drop);
  EXPECT_EQ(plane.active_partitions(), 1u);
  EXPECT_EQ(plane.stats().partitions_triggered, 1u);

  plane.advance_step(20);
  EXPECT_FALSE(plane.sample(0, 1).drop);
  EXPECT_EQ(plane.active_partitions(), 0u);
}

TEST(PartitionSchedule, ComposesWithLinkFaultSampling) {
  // A partitioned frame never reaches the per-link lottery; frames on
  // surviving links still sample their configured faults.
  px::net::fault_config cfg;
  cfg.drop = 1.0;  // every non-partitioned frame drops via the lottery
  px::net::fault_plane plane(cfg);
  px::net::partition_spec spec;
  spec.side_a = {0};
  spec.side_b = {1};
  plane.partition_now(spec);

  auto const cut = plane.sample(0, 1);
  EXPECT_TRUE(cut.drop);
  EXPECT_TRUE(cut.blackholed);  // partition, not lottery
  auto const open = plane.sample(0, 2);
  EXPECT_TRUE(open.drop);
  EXPECT_FALSE(open.blackholed);  // lottery, not partition
}

// ---- quorum membership over the live cluster -----------------------------

px::dist::domain_config quorum_cfg(std::size_t n) {
  px::dist::domain_config cfg;
  cfg.num_localities = n;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.resilience.enabled = true;
  // Thresholds are wall-clock: fence quickly (suspect), but keep confirm
  // far above scheduling/sanitizer jitter so only real silence crosses it.
  cfg.resilience.heartbeat_interval_us = 2'000.0;
  cfg.resilience.suspect_after_us = 60'000.0;
  cfg.resilience.confirm_after_us = 600'000.0;
  return cfg;
}

TEST(Quorum, MinorityFencesWhileMajorityConfirms) {
  auto const views0 = builtin().membership_views.load();
  px::dist::distributed_domain dom(quorum_cfg(5));

  // Symmetric split {0,1,2} | {3,4}: both sides see the other silent, but
  // only the majority side keeps quorum.
  px::net::partition_spec spec;
  spec.side_a = {0, 1, 2};
  spec.side_b = {3, 4};
  dom.fabric().faults().partition_now(spec);

  // Before anyone is confirmed, the minority must fence itself.
  EXPECT_TRUE(eventually(5'000, [&] {
    return dom.is_fenced(3) && dom.is_fenced(4);
  }));
  EXPECT_FALSE(dom.is_fenced(0));
  EXPECT_FALSE(dom.is_fenced(1));
  EXPECT_FALSE(dom.is_fenced(2));

  // The majority's quorate observers confirm the minority dead — and only
  // the minority: fenced observers' silence cannot evict the majority.
  ASSERT_TRUE(eventually(10'000, [&] {
    return dom.is_confirmed_dead(3) && dom.is_confirmed_dead(4);
  }));
  EXPECT_FALSE(dom.is_confirmed_dead(0));
  EXPECT_FALSE(dom.is_confirmed_dead(1));
  EXPECT_FALSE(dom.is_confirmed_dead(2));
  EXPECT_GE(builtin().membership_views.load() - views0, 2u);

  // Heal and re-admit: the rejoiners come back alive and unfenced.
  auto const rejoins0 = builtin().membership_rejoins.load();
  dom.fabric().faults().heal_all_partitions();
  dom.restart_locality(3);
  dom.restart_locality(4);
  EXPECT_TRUE(eventually(5'000, [&] {
    return !dom.membership().any_fenced() && !dom.is_confirmed_dead(3) &&
           !dom.is_confirmed_dead(4) &&
           dom.detector()->state_of(3) == px::dist::member_state::alive &&
           dom.detector()->state_of(4) == px::dist::member_state::alive;
  }));
  EXPECT_GE(builtin().membership_rejoins.load() - rejoins0, 2u);
  dom.wait_all_quiescent();
}

TEST(Quorum, AsymmetricPartitionFencesWithoutEviction) {
  // Gray partition: the minority's frames still reach the majority, only
  // the reverse direction is lost. The majority keeps hearing everyone, so
  // nobody is evicted; the minority cannot reach a quorum and fences until
  // heal — and heal alone (no restart) is the rejoin.
  auto const confirms0 = builtin().resilience_confirms.load();
  px::dist::distributed_domain dom(quorum_cfg(5));
  px::net::partition_spec spec;
  spec.side_a = {0, 1, 2};  // majority -> minority frames are lost
  spec.side_b = {3, 4};
  spec.symmetric = false;
  dom.fabric().faults().partition_now(spec);

  EXPECT_TRUE(eventually(5'000, [&] {
    return dom.is_fenced(3) && dom.is_fenced(4);
  }));
  // Hold the partition past the confirm threshold: still no eviction.
  std::this_thread::sleep_for(800ms);
  for (std::uint32_t l = 0; l < 5; ++l) EXPECT_FALSE(dom.is_confirmed_dead(l));
  EXPECT_EQ(builtin().resilience_confirms.load() - confirms0, 0u);

  auto const rejoins0 = builtin().membership_rejoins.load();
  dom.fabric().faults().heal_all_partitions();
  EXPECT_TRUE(
      eventually(5'000, [&] { return !dom.membership().any_fenced(); }));
  EXPECT_GE(builtin().membership_rejoins.load() - rejoins0, 2u);
  for (std::uint32_t l = 0; l < 5; ++l) EXPECT_FALSE(dom.is_confirmed_dead(l));
  dom.wait_all_quiescent();
}

TEST(Quorum, SmallViewsNeverFence) {
  // The quorum_min_view carve-out: a 2-member view cannot distinguish a
  // dead peer from a cut link (confirming anything would need both members
  // reachable), so it reverts to independent confirm and never fences —
  // the pre-quorum behaviour the existing resilience tests rely on.
  px::dist::distributed_domain dom(quorum_cfg(2));
  dom.fabric().faults().hang_now(1);
  EXPECT_TRUE(eventually(10'000, [&] { return dom.is_confirmed_dead(1); }));
  EXPECT_FALSE(dom.is_fenced(0));
  EXPECT_FALSE(dom.is_fenced(1));
  dom.wait_all_quiescent();
}

// ---- gray failure: indirect probes ---------------------------------------

TEST(GrayFailure, OneWayLinkDoesNotConfirmKillAHealthyNode) {
  // Locality 1 never hears locality 0 directly (the 0->1 link is one-way
  // dead), yet 1 is quorate — without probes its silence judgment would
  // confirm-kill healthy 0 (the regression pinned below). SWIM probes
  // route 1's liveness check for 0 through a third party and avert the
  // escalation.
  auto const probes0 = builtin().membership_indirect_probes.load();
  auto const averted0 = builtin().membership_false_suspect_averted.load();
  px::dist::distributed_domain dom(quorum_cfg(4));
  ASSERT_GE(dom.resilience().indirect_probes, 1u);

  px::net::partition_spec spec;
  spec.side_a = {0};
  spec.side_b = {1};
  spec.symmetric = false;
  dom.fabric().faults().partition_now(spec);

  // A probe round must fire and avert the false suspicion.
  EXPECT_TRUE(eventually(10'000, [&] {
    return builtin().membership_indirect_probes.load() - probes0 >= 1 &&
           builtin().membership_false_suspect_averted.load() - averted0 >= 1;
  }));
  // Hold the gray link well past the confirm threshold: nobody dies.
  std::this_thread::sleep_for(1'000ms);
  for (std::uint32_t l = 0; l < 4; ++l) EXPECT_FALSE(dom.is_confirmed_dead(l));
  dom.wait_all_quiescent();
}

TEST(GrayFailure, RegressionWithoutProbesTheOneWayLinkConfirmKills) {
  // The failure mode this PR closes, pinned: disable indirect probing and
  // the same one-way link escalates healthy locality 0 all the way to
  // confirmed dead on the strength of a single observer's silence.
  auto cfg = quorum_cfg(4);
  cfg.resilience.indirect_probes = 0;
  px::dist::distributed_domain dom(cfg);
  ASSERT_EQ(dom.resilience().indirect_probes, 0u);

  px::net::partition_spec spec;
  spec.side_a = {0};
  spec.side_b = {1};
  spec.symmetric = false;
  dom.fabric().faults().partition_now(spec);

  EXPECT_TRUE(eventually(10'000, [&] { return dom.is_confirmed_dead(0); }));
  EXPECT_FALSE(dom.is_confirmed_dead(1));
  dom.wait_all_quiescent();
}

// ---- revive-during-suspect race ------------------------------------------

TEST(ReviveRace, StateLadderStaysMonotonePerEpoch) {
  px::dist::distributed_domain dom(quorum_cfg(3));
  auto const epoch0 = dom.membership_epoch();

  std::atomic<std::uint64_t> suspect_fires{0};
  std::atomic<int> state_at_fire{-1};
  dom.detector()->on_suspect([&](std::uint32_t loc) {
    if (loc != 2) return;
    // A suspect callback must never fire for a member whose standing
    // already moved on (the stale-callback race this PR closes): at fire
    // time the member is still suspect.
    state_at_fire.store(static_cast<int>(dom.detector()->state_of(2)));
    suspect_fires.fetch_add(1);
  });

  auto const gen0 = dom.detector()->state_generation(2);
  dom.fabric().faults().hang_now(2);
  ASSERT_TRUE(eventually(5'000, [&] {
    return dom.detector()->state_of(2) == px::dist::member_state::suspect;
  }));
  EXPECT_TRUE(eventually(2'000, [&] { return suspect_fires.load() >= 1; }));
  EXPECT_EQ(state_at_fire.load(),
            static_cast<int>(px::dist::member_state::suspect));

  // Revive while suspect: heartbeats resume, the detector de-escalates.
  dom.fabric().faults().revive(2);
  EXPECT_TRUE(eventually(5'000, [&] {
    return dom.detector()->state_of(2) == px::dist::member_state::alive;
  }));
  // Two transitions minimum (alive -> suspect -> alive) within the same
  // membership epoch, and no confirm anywhere.
  EXPECT_GE(dom.detector()->state_generation(2) - gen0, 2u);
  EXPECT_EQ(dom.membership_epoch(), epoch0);
  EXPECT_FALSE(dom.is_confirmed_dead(2));

  // Settled and healthy: no stale suspect may fire after the de-escalation.
  auto const settled = suspect_fires.load();
  std::this_thread::sleep_for(200ms);
  EXPECT_EQ(suspect_fires.load(), settled);
  EXPECT_EQ(dom.detector()->state_of(2), px::dist::member_state::alive);
  dom.wait_all_quiescent();
}

// ---- fencing gates refuse with typed errors ------------------------------

px::dist::domain_config plain_cfg(std::size_t n) {
  px::dist::domain_config cfg;
  cfg.num_localities = n;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  return cfg;
}

TEST(Fencing, MigrationRefusesFencedEndpointsWithTypedError) {
  auto const refusals0 = builtin().membership_fenced_refusals.load();
  px::dist::distributed_domain dom(plain_cfg(3));
  auto const g =
      dom.run([](px::dist::locality& loc0) { return pt_make(loc0, 7); });

  // Fenced destination.
  dom.membership().set_fenced(2, true);
  dom.run([&](px::dist::locality& loc0) {
    try {
      (void)px::dist::migrate<part_cell>(loc0, g, 2).get();
      ADD_FAILURE() << "migration to a fenced locality must refuse";
    } catch (px::dist::fenced_error const& e) {
      EXPECT_EQ(e.where(), 2u);
      EXPECT_NE(std::string(e.what()).find("fenced"), std::string::npos);
    }
    return 0;
  });
  EXPECT_EQ(builtin().membership_fenced_refusals.load() - refusals0, 1u);

  // A fenced source refuses too (checked before the destination).
  dom.membership().set_fenced(2, false);
  dom.membership().set_fenced(0, true);
  dom.run([&](px::dist::locality& loc0) {
    try {
      (void)px::dist::migrate<part_cell>(loc0, g, 2).get();
      ADD_FAILURE() << "migration from a fenced locality must refuse";
    } catch (px::dist::fenced_error const& e) {
      EXPECT_EQ(e.where(), 0u);
    }
    return 0;
  });
  EXPECT_EQ(builtin().membership_fenced_refusals.load() - refusals0, 2u);

  // Unfenced: the same migration commits, and the refusals left no pin or
  // tombstone behind — the object reads back where it landed.
  dom.membership().set_fenced(0, false);
  dom.run([&](px::dist::locality& loc0) {
    auto const moved = px::dist::migrate<part_cell>(loc0, g, 2).get();
    EXPECT_EQ(moved.locality(), 2u);
    EXPECT_EQ(loc0.call_component<&pt_read>(moved).get(), 7u);
    return 0;
  });
  dom.wait_all_quiescent();
}

TEST(Fencing, RebalancerSkipsMovesTouchingFencedLocalities) {
  auto const refusals0 = builtin().membership_fenced_refusals.load();
  px::dist::distributed_domain dom(plain_cfg(3));
  dom.run([&](px::dist::locality& loc0) {
    auto const g1 = pt_make(loc0, 1);
    auto const g2 = pt_make(loc0, 2);

    px::agas::rebalance_config rcfg;
    rcfg.imbalance_trigger = 1.1;
    px::agas::rebalancer rb(
        dom, rcfg,
        [&loc0](px::agas::gid g, std::uint32_t, std::uint32_t to) {
          return px::dist::migrate<part_cell>(loc0, g, to);
        });
    // All weight on locality 0: the planner must want to spread it.
    rb.add_partition(1, g1, 0, 60.0);
    rb.add_partition(2, g2, 0, 60.0);

    dom.membership().set_fenced(0, true);  // the only possible source
    auto const fenced_rep = rb.step();
    EXPECT_GE(fenced_rep.planned, 1u);
    EXPECT_EQ(fenced_rep.moved, 0u);
    EXPECT_EQ(fenced_rep.fenced, fenced_rep.planned);
    EXPECT_GE(builtin().membership_fenced_refusals.load() - refusals0,
              fenced_rep.fenced);
    EXPECT_EQ(rb.home_of(1), std::optional<std::uint32_t>{0});  // nothing moved
    EXPECT_EQ(rb.home_of(2), std::optional<std::uint32_t>{0});

    dom.membership().set_fenced(0, false);  // heal: the moves retry
    auto const healed_rep = rb.step();
    EXPECT_GE(healed_rep.moved, 1u);
    EXPECT_EQ(healed_rep.fenced, 0u);
    EXPECT_TRUE(rb.home_of(1) != std::optional<std::uint32_t>{0} ||
                rb.home_of(2) != std::optional<std::uint32_t>{0});
    return 0;
  });
  dom.wait_all_quiescent();
}

TEST(Fencing, ServeShedsNewAdmissionsWhileFenced) {
  auto const refusals0 = builtin().membership_fenced_refusals.load();
  px::scheduler_config pool;
  pool.num_workers = 2;
  px::runtime rt(pool);

  std::atomic<bool> fenced{false};
  px::serve::server_config scfg;
  scfg.fenced = [&] { return fenced.load(); };
  px::serve::server srv(rt, scfg);

  px::serve::tenant_config tc;
  tc.name = "fenced-tenant";
  tc.max_in_flight = 64;
  auto const t = srv.add_tenant(tc);

  px::serve::job_request req;
  req.kind = px::serve::job_kind::spin;
  req.size = 16;
  req.steps = 1;
  EXPECT_EQ(srv.submit(t, req), px::serve::admit_result::accepted);

  fenced.store(true);
  EXPECT_EQ(srv.submit(t, req), px::serve::admit_result::shed);
  EXPECT_EQ(srv.submit(t, req), px::serve::admit_result::shed);
  EXPECT_EQ(builtin().membership_fenced_refusals.load() - refusals0, 2u);
  EXPECT_EQ(srv.stats(t).rejected, 2u);

  fenced.store(false);
  EXPECT_EQ(srv.submit(t, req), px::serve::admit_result::accepted);
  srv.drain();
  EXPECT_EQ(srv.stats(t).completed, 2u);
}

TEST(Fencing, HeatCheckpointsSkipOnFencedHostsAndCountRefusals) {
  auto const initial = px::stencil::heat1d_sine_initial(101);
  px::stencil::dist_heat_config hc;
  hc.steps = 40;
  hc.checkpoint_interval = 10;

  // Baseline: no fence anywhere.
  px::dist::distributed_domain clean(plain_cfg(2));
  auto const baseline = px::stencil::run_distributed_heat1d(clean, initial, hc);
  clean.wait_all_quiescent();

  auto const refusals0 = builtin().membership_fenced_refusals.load();
  auto const ckpt0 = builtin().resilience_checkpoint_bytes.load();
  px::dist::distributed_domain dom(plain_cfg(2));
  dom.membership().set_fenced(1, true);
  auto const out = px::stencil::run_distributed_heat1d(dom, initial, hc);
  dom.wait_all_quiescent();

  // Locality 1's partition skipped every checkpoint commit (t = 10, 20,
  // 30), each one counted; locality 0's checkpoints still landed. With no
  // failure injected the skipped checkpoints cannot change the answer.
  EXPECT_GE(builtin().membership_fenced_refusals.load() - refusals0, 3u);
  EXPECT_GT(builtin().resilience_checkpoint_bytes.load() - ckpt0, 0u);
  EXPECT_EQ(out.values, baseline.values);
}

// A checkpointed 5-locality heat solve rides out a {0,1,2}|{3,4} cut that
// heals well inside the confirm threshold, on a clean fabric (no link
// faults, no coalescing, no wire sleeps). Quorum membership must recover
// with nothing but the heal: no confirm-kill, no rollback, the answer
// bitwise equal to a fault-free run, and every fence cleared.
// TorturePartition.HealedPartitionHeatStaysBitwiseIdentical sweeps the same
// cut over a lossy, coalescing fabric.
TEST(Quorum, HealedPartitionOnCleanFabricNeedsOnlyTheHeal) {
  auto const initial = px::stencil::heat1d_sine_initial(151);
  px::stencil::dist_heat_config hc;
  hc.steps = 300;
  hc.checkpoint_interval = 25;

  px::dist::distributed_domain clean_dom(plain_cfg(5));
  auto const baseline =
      px::stencil::run_distributed_heat1d(clean_dom, initial, hc);
  clean_dom.wait_all_quiescent();

  px::dist::domain_config cfg = plain_cfg(5);
  cfg.reliability.activation = px::net::reliability_config::mode::on;
  cfg.reliability.initial_backoff_us = 1'000.0;
  cfg.reliability.backoff_multiplier = 2.0;
  cfg.reliability.max_backoff_us = 50'000.0;
  cfg.reliability.max_retries = 64;
  cfg.resilience.enabled = true;
  cfg.resilience.heartbeat_interval_us = 2'000.0;
  cfg.resilience.suspect_after_us = 100'000.0;
  cfg.resilience.confirm_after_us = 600'000.0;
  px::dist::distributed_domain dom(cfg);

  // The cut starts at step 100, so it lands mid-solve however fast the
  // host is; it heals by wall clock 250 ms later, since a cut that stalls
  // the halo exchanges stalls the step feed too.
  auto& faults = dom.fabric().faults();
  px::net::partition_spec spec;
  spec.side_a = {0, 1, 2};
  spec.side_b = {3, 4};
  (void)faults.partition_at_step(spec, 100);
  auto const confirms0 = builtin().resilience_confirms.load();
  std::thread healer([&faults] {
    if (eventually(30'000, [&] { return faults.active_partitions() > 0; }))
      std::this_thread::sleep_for(250ms);
    faults.heal_all_partitions();
  });
  px::stencil::dist_heat_result out;
  try {
    out = px::stencil::run_distributed_heat1d(dom, initial, hc);
  } catch (...) {
    healer.join();
    throw;
  }
  healer.join();

  EXPECT_EQ(faults.stats().partitions_triggered, 1u);
  EXPECT_GT(faults.stats().partition_drops, 0u);
  EXPECT_EQ(builtin().resilience_confirms.load() - confirms0, 0u);
  EXPECT_EQ(out.recoveries, 0u);
  EXPECT_EQ(out.values, baseline.values);
  EXPECT_TRUE(
      eventually(10'000, [&] { return !dom.membership().any_fenced(); }));
  dom.wait_all_quiescent();
}

}  // namespace
