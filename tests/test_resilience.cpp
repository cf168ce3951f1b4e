// Resilience tests: locality fail-stop/hang/slow fault schedules, the
// heartbeat failure detector, prompt locality_down failure of in-flight
// calls, incarnation epochs vs. the dedup window, task-level
// replay/replicate, buddy checkpoint/restart recovery of the distributed
// heat solver (bitwise identical to a fault-free run, plain and under a
// 16-seed torture sweep), barrier failure semantics, orphan-response
// exactness, and the checkpoint/restart cluster cost model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "px/arch/cluster_sim.hpp"
#include "px/counters/counters.hpp"
#include "px/dist/dist_barrier.hpp"
#include "px/dist/remote_channel.hpp"
#include "px/lcos/async.hpp"
#include "px/net/fault_plane.hpp"
#include "px/runtime/runtime.hpp"
#include "px/resilience/checkpoint.hpp"
#include "px/resilience/replay.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/torture/forall.hpp"
#include "px/torture/invariant.hpp"

namespace {

std::atomic<int> g_stamp_count{0};
std::atomic<long long> g_stamp_sum{0};

int res_echo(px::dist::locality& here, int x) {
  return static_cast<int>(here.id()) * 100 + x;
}

int res_stamp(px::dist::locality&, int v) {
  g_stamp_count.fetch_add(1, std::memory_order_relaxed);
  g_stamp_sum.fetch_add(v, std::memory_order_relaxed);
  return v;
}

int res_barrier_participant(px::dist::locality& here, std::uint64_t gen) {
  px::dist::barrier_arrive_and_wait(here, gen);
  return static_cast<int>(here.id());
}

}  // namespace

PX_REGISTER_ACTION(res_echo)
PX_REGISTER_ACTION(res_stamp)
PX_REGISTER_ACTION(res_barrier_participant)
PX_REGISTER_REMOTE_CHANNEL(double)

namespace {

using px::counters::builtin;
using namespace std::chrono_literals;

// Polls `pred` until it holds or `deadline_ms` elapses.
bool eventually(int deadline_ms, std::function<bool()> pred) {
  auto const deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

// ---- locality fault schedules (fault_plane unit) -------------------------

TEST(LocalityFaults, FailStopAtStepBlackholesTraffic) {
  px::net::fault_plane plane;  // no link faults: locality faults still work
  plane.fail_stop_at_step(1, 10);

  // Below the threshold nothing happens.
  plane.advance_step(9);
  auto d = plane.sample(0, 1);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(plane.health(1), px::net::locality_health::alive);

  plane.advance_step(10);
  EXPECT_TRUE(plane.locality_dead(1));
  EXPECT_EQ(plane.stats().locality_faults_triggered, 1u);

  // Frames to and from the victim vanish; unrelated links are untouched.
  d = plane.sample(0, 1);
  EXPECT_TRUE(d.drop);
  EXPECT_TRUE(d.blackholed);
  d = plane.sample(1, 2);
  EXPECT_TRUE(d.drop);
  d = plane.sample(0, 2);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(plane.stats().blackholed, 2u);
}

TEST(LocalityFaults, HangLooksLikeDeathOnTheWireOnly) {
  px::net::fault_plane plane;
  plane.hang_now(3);
  auto const d = plane.sample(3, 0);
  EXPECT_TRUE(d.drop);
  EXPECT_TRUE(d.blackholed);
  // Hung, but not declared dead: detection must happen via silence.
  EXPECT_EQ(plane.health(3), px::net::locality_health::hung);
  EXPECT_FALSE(plane.locality_dead(3));

  plane.revive(3);
  EXPECT_EQ(plane.health(3), px::net::locality_health::alive);
  EXPECT_FALSE(plane.sample(3, 0).drop);
}

TEST(LocalityFaults, SlowByScalesDelayAndReviveClears) {
  px::net::fault_plane plane;
  plane.slow_by(2, 8.0);
  auto d = plane.sample(0, 2);
  EXPECT_FALSE(d.drop);
  EXPECT_DOUBLE_EQ(d.delay_factor, 8.0);
  d = plane.sample(2, 1);  // both directions are slowed
  EXPECT_DOUBLE_EQ(d.delay_factor, 8.0);
  d = plane.sample(0, 1);
  EXPECT_DOUBLE_EQ(d.delay_factor, 1.0);

  plane.revive(2);
  EXPECT_DOUBLE_EQ(plane.sample(0, 2).delay_factor, 1.0);
}

TEST(LocalityFaults, ModeledNsTriggerFires) {
  px::net::fault_plane plane;
  plane.hang_at_modeled_ns(1, 5'000);
  plane.advance_modeled_ns(4'999);
  EXPECT_EQ(plane.health(1), px::net::locality_health::alive);
  plane.advance_modeled_ns(5'000);
  EXPECT_EQ(plane.health(1), px::net::locality_health::hung);
  EXPECT_EQ(plane.stats().locality_faults_triggered, 1u);
}

TEST(LocalityFaults, ReviveDiscardsPendingSchedules) {
  px::net::fault_plane plane;
  plane.fail_stop_at_step(1, 100);
  plane.revive(1);
  plane.advance_step(1'000);  // the discarded schedule must not fire
  EXPECT_EQ(plane.health(1), px::net::locality_health::alive);
  EXPECT_EQ(plane.stats().locality_faults_triggered, 0u);
}

// ---- checkpoint store ----------------------------------------------------

TEST(CheckpointStore, PutGetReplaceAndExactByteCounter) {
  auto const before = builtin().resilience_checkpoint_bytes.load();
  px::resilience::checkpoint_store store;
  std::vector<std::byte> blob(64, std::byte{0xab});
  store.put(3, 10, blob);
  store.put(3, 20, std::vector<std::byte>(32, std::byte{0x01}));
  store.put(3, 10, std::vector<std::byte>(16, std::byte{0x02}));  // replace

  EXPECT_EQ(store.size(), 2u);
  auto got = store.get(3, 10);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 16u);  // the replacement won
  EXPECT_FALSE(store.get(3, 30).has_value());
  EXPECT_FALSE(store.get(4, 10).has_value());

  auto const entries = store.entries();
  ASSERT_EQ(entries.size(), 2u);
  // Every byte handed to put() is accounted, replacements included.
  EXPECT_EQ(builtin().resilience_checkpoint_bytes.load() - before,
            64u + 32u + 16u);

  store.clear();
  EXPECT_EQ(store.size(), 0u);
}

// ---- async_replay --------------------------------------------------------

struct ReplayTest : ::testing::Test {
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 2;
    return c;
  }()};
};

TEST_F(ReplayTest, RecoversFromTransientFaultsWithExactCounter) {
  auto const before = builtin().resilience_replays.load();
  auto flaky_runs = std::make_shared<std::atomic<int>>(0);
  auto f = px::resilience::async_replay_on(rt, 5, [flaky_runs] {
    if (flaky_runs->fetch_add(1) < 2)
      throw std::runtime_error("transient task fault");
    return 42;
  });
  EXPECT_EQ(f.get(), 42);
  EXPECT_EQ(flaky_runs->load(), 3);
  // First attempts are ordinary tasks; only the two re-executions count.
  EXPECT_EQ(builtin().resilience_replays.load() - before, 2u);
}

TEST_F(ReplayTest, FirstTrySuccessCostsNoReplays) {
  auto const before = builtin().resilience_replays.load();
  auto f = px::resilience::async_replay_on(rt, 4, [](int a, int b) {
    return a + b;
  }, 40, 2);
  EXPECT_EQ(f.get(), 42);
  EXPECT_EQ(builtin().resilience_replays.load() - before, 0u);
}

TEST_F(ReplayTest, BudgetExhaustionRethrowsLastFailure) {
  auto const before = builtin().resilience_replays.load();
  auto f = px::resilience::async_replay_on(rt, 3, []() -> int {
    throw std::logic_error("permanent");
  });
  EXPECT_THROW(f.get(), std::logic_error);
  EXPECT_EQ(builtin().resilience_replays.load() - before, 2u);
}

TEST_F(ReplayTest, EachAttemptSeesPristineArguments) {
  // A failed attempt mutates its argument copy; the next attempt must not
  // observe the damage.
  auto attempts = std::make_shared<std::atomic<int>>(0);
  auto f = px::resilience::async_replay_on(
      rt, 3,
      [attempts](std::vector<int> v) {
        v.push_back(0);  // mutate the copy
        if (attempts->fetch_add(1) < 2)
          throw std::runtime_error("try again");
        return v.size();
      },
      std::vector<int>{1, 2, 3});
  EXPECT_EQ(f.get(), 4u);  // 3 originals + exactly one push_back
}

// ---- async_replicate -----------------------------------------------------

TEST_F(ReplayTest, ReplicateOutvotesWrongAnswerReplica) {
  auto const before = builtin().resilience_replicas.load();
  auto order = std::make_shared<std::atomic<int>>(0);
  auto f = px::resilience::async_replicate_on(rt, 3, [order] {
    // Exactly one replica silently computes the wrong answer.
    return order->fetch_add(1) == 0 ? 13 : 42;
  });
  EXPECT_EQ(f.get(), 42);
  EXPECT_EQ(builtin().resilience_replicas.load() - before, 3u);
}

TEST_F(ReplayTest, ReplicateToleratesThrowingReplica) {
  auto order = std::make_shared<std::atomic<int>>(0);
  auto f = px::resilience::async_replicate_on(rt, 3, [order] {
    if (order->fetch_add(1) == 0) throw std::runtime_error("replica died");
    return 7;
  });
  EXPECT_EQ(f.get(), 7);  // 2 survivors agree: strict majority of 3
}

TEST_F(ReplayTest, ReplicateNoMajorityThrows) {
  auto order = std::make_shared<std::atomic<int>>(0);
  auto f = px::resilience::async_replicate_on(rt, 2, [order] {
    return order->fetch_add(1);  // 0 and 1: no strict majority
  });
  EXPECT_THROW(f.get(), px::resilience::replicate_error);
}

TEST_F(ReplayTest, ReplicateAllFailingRethrows) {
  auto f = px::resilience::async_replicate_on(rt, 3, []() -> int {
    throw std::logic_error("all dead");
  });
  EXPECT_THROW(f.get(), std::logic_error);
}

TEST_F(ReplayTest, ReplicateVoteUsesCallerValidator) {
  auto const before = builtin().resilience_replicas.load();
  auto order = std::make_shared<std::atomic<int>>(0);
  auto f = px::resilience::async_replicate_vote_on(
      rt, 3, [order] { return order->fetch_add(1) * 10; },
      [](std::vector<int> results) {
        int best = results.front();
        for (int r : results) best = std::max(best, r);
        return best;
      });
  EXPECT_EQ(f.get(), 20);
  EXPECT_EQ(builtin().resilience_replicas.load() - before, 3u);
}

// ---- fiber exception-state migration -------------------------------------

TEST(FiberExceptionState, CatchBlockSurvivesCrossWorkerResume) {
  // Regression for a leak the heat recovery driver exposed: the recovery
  // loop suspends inside its catch handler (awaiting checkpoint fetches
  // while holding the failure it is recovering from), and the resumed fiber
  // may land on a different worker. __cxa_eh_globals lives in per-OS-thread
  // storage, so unless the fiber layer carries it across switches,
  // __cxa_end_catch pops the wrong thread's handler chain:
  // std::current_exception() inside the handler goes stale (or returns some
  // other task's exception) and the in-flight exception is never released.
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 4;
    return c;
  }()};
  std::vector<px::future<bool>> checks;
  for (int i = 0; i < 64; ++i) {
    checks.push_back(px::async_on(rt, [i]() -> bool {
      std::string const expected = "payload-" + std::to_string(i);
      try {
        throw std::runtime_error(expected);
      } catch (std::exception const& e) {
        if (expected != e.what()) return false;
        // Bounce between workers while the handler is live.
        for (int k = 0; k < 32; ++k) px::this_task::yield();
        auto const eptr = std::current_exception();
        if (!eptr) return false;  // handler chain lost in the migration
        try {
          std::rethrow_exception(eptr);
        } catch (std::exception const& again) {
          return expected == again.what();  // and not a crossed task's
        } catch (...) {
          return false;
        }
      }
    }));
  }
  for (auto& f : checks) EXPECT_TRUE(f.get());
}

// ---- failure detector ----------------------------------------------------

px::dist::domain_config detector_cfg(std::size_t n) {
  px::dist::domain_config cfg;
  cfg.num_localities = n;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.resilience.enabled = true;
  // Thresholds are wall-clock; keep confirm far above any scheduling or
  // sanitizer-induced heartbeat delay so a healthy-but-slow locality is
  // never falsely confirmed dead, merely (transiently) suspected.
  cfg.resilience.heartbeat_interval_us = 2'000.0;
  cfg.resilience.suspect_after_us = 100'000.0;
  cfg.resilience.confirm_after_us = 600'000.0;
  return cfg;
}

TEST(FailureDetector, HeartbeatsFlowAmongHealthyLocalities) {
  auto const before_hb = builtin().resilience_heartbeats.load();
  auto const before_confirms = builtin().resilience_confirms.load();
  px::dist::distributed_domain dom(detector_cfg(3));
  ASSERT_NE(dom.detector(), nullptr);
  EXPECT_TRUE(eventually(2'000, [&] {
    return builtin().resilience_heartbeats.load() - before_hb >= 12;
  }));
  for (std::uint32_t l = 0; l < 3; ++l) EXPECT_FALSE(dom.is_confirmed_dead(l));
  EXPECT_EQ(builtin().resilience_confirms.load() - before_confirms, 0u);
}

TEST(FailureDetector, SilentLocalityIsSuspectedThenConfirmed) {
  auto const before_suspects = builtin().resilience_suspects.load();
  auto const before_confirms = builtin().resilience_confirms.load();

  px::dist::distributed_domain dom(detector_cfg(3));
  std::atomic<int> suspected{-1};
  std::atomic<int> confirmed{-1};
  dom.detector()->on_suspect(
      [&](std::uint32_t loc) { suspected.store(static_cast<int>(loc)); });
  dom.detector()->on_confirm(
      [&](std::uint32_t loc) { confirmed.store(static_cast<int>(loc)); });

  // A hang is invisible out of band: the wire goes silent but the fault
  // plane does not mark the locality dead, so the only path to a confirm
  // is organic heartbeat silence.
  dom.fabric().faults().hang_now(2);
  ASSERT_TRUE(eventually(5'000, [&] { return dom.is_confirmed_dead(2); }));

  EXPECT_EQ(suspected.load(), 2);
  EXPECT_EQ(confirmed.load(), 2);
  EXPECT_EQ(dom.detector()->state_of(2), px::dist::member_state::dead);
  EXPECT_GE(builtin().resilience_suspects.load() - before_suspects, 1u);
  EXPECT_EQ(builtin().resilience_confirms.load() - before_confirms, 1u);
  EXPECT_FALSE(dom.is_confirmed_dead(0));
  EXPECT_FALSE(dom.is_confirmed_dead(1));
  EXPECT_EQ(dom.confirmed_dead(), std::vector<std::uint32_t>{2});
}

TEST(FailureDetector, InFlightCallFailsPromptlyNotViaRetryBudget) {
  // A call already in flight toward a locality that then fail-stops must
  // surface locality_down as soon as the detector confirms the death —
  // not after the reliability layer burns its (here: enormous) backoff.
  // Three localities so the 0<->2 heartbeat link stays healthy: with only
  // two, hanging locality 1 silences *both* directions of the sole link
  // and the detector would (correctly) confirm both members dead.
  auto cfg = detector_cfg(3);
  cfg.reliability.activation = px::net::reliability_config::mode::on;
  cfg.reliability.initial_backoff_us = 60e6;  // first RTO in a minute
  cfg.reliability.max_backoff_us = 60e6;
  cfg.reliability.max_retries = 1'000;

  px::dist::distributed_domain dom(cfg);
  dom.fabric().faults().hang_now(1);

  auto const t0 = std::chrono::steady_clock::now();
  bool caught = dom.run([](px::dist::locality& loc0) {
    auto f = loc0.call<&res_echo>(1, 5);
    try {
      (void)f.get();
      return false;
    } catch (px::dist::locality_down const& e) {
      return e.which() == 1u;
    }
  });
  auto const elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(caught);
  EXPECT_LT(elapsed, 30s);  // detector-driven, not backoff-driven
  EXPECT_TRUE(dom.is_confirmed_dead(1));
  dom.wait_all_quiescent();  // the drained retransmission must not leak
}

TEST(FailureDetector, ShutdownCancelsHeartbeatTimer) {
  // The armed heartbeat tick must be cancelled before the domain's
  // localities are torn down; the cancelled heap entry later fires as a
  // counted no-op (/px/timer/callbacks_cancelled) that never touches the
  // destroyed domain.
  auto const before = builtin().timer_cancelled.load();
  {
    px::dist::distributed_domain dom(detector_cfg(2));
    std::this_thread::sleep_for(10ms);  // let a few ticks run
  }
  EXPECT_TRUE(eventually(2'000, [&] {
    return builtin().timer_cancelled.load() - before >= 1;
  }));
}

// ---- confirm / restart / epochs ------------------------------------------

TEST(Membership, ConfirmFailureIsIdempotentAndBumpsEpoch) {
  px::dist::domain_config cfg;
  cfg.num_localities = 3;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;

  px::dist::distributed_domain dom(cfg);
  auto const epoch0 = dom.membership_epoch();
  std::atomic<int> hook_fires{0};
  auto const hook_id =
      dom.add_confirm_hook([&](std::uint32_t) { hook_fires.fetch_add(1); });

  dom.confirm_failure(1);
  EXPECT_TRUE(dom.is_confirmed_dead(1));
  EXPECT_EQ(dom.membership_epoch(), epoch0 + 1);
  EXPECT_EQ(hook_fires.load(), 1);
  dom.confirm_failure(1);  // idempotent
  EXPECT_EQ(dom.membership_epoch(), epoch0 + 1);
  EXPECT_EQ(hook_fires.load(), 1);

  dom.restart_locality(1);
  EXPECT_FALSE(dom.is_confirmed_dead(1));
  EXPECT_EQ(dom.incarnation(1), 2u);
  EXPECT_EQ(dom.membership_epoch(), epoch0 + 2);
  dom.remove_confirm_hook(hook_id);
  dom.wait_all_quiescent();
}

TEST(Membership, RestartedSeqsCauseZeroDuplicateDeliveries) {
  // Phase A fills both links' dedup windows with seqs 1..N; the restarted
  // locality's phase-B responses reuse those seqs under a bumped epoch.
  // Without epochs every phase-B response would be suppressed as a
  // duplicate; with them each call executes exactly once.
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.reliability.activation = px::net::reliability_config::mode::on;
  cfg.reliability.initial_backoff_us = 5e6;  // no RTO inside the test window:
  cfg.reliability.max_backoff_us = 5e6;      // every dup must come from seqs

  auto const before_dup = builtin().net_dup_suppressed.load();
  auto const stamps0 = g_stamp_count.load();

  px::dist::distributed_domain dom(cfg);
  dom.run([](px::dist::locality& loc0) {
    for (int i = 0; i < 30; ++i)
      EXPECT_EQ(loc0.call<&res_stamp>(1, i).get(), i);
    return 0;
  });
  dom.wait_all_quiescent();  // restart_locality asserts no inflight frames

  dom.confirm_failure(1);
  dom.restart_locality(1);
  EXPECT_EQ(dom.incarnation(1), 2u);

  dom.run([](px::dist::locality& loc0) {
    for (int i = 100; i < 130; ++i)
      EXPECT_EQ(loc0.call<&res_stamp>(1, i).get(), i);
    return 0;
  });
  dom.wait_all_quiescent();

  EXPECT_EQ(g_stamp_count.load() - stamps0, 60);  // exactly once each
  EXPECT_EQ(builtin().net_dup_suppressed.load() - before_dup, 0u);
}

TEST(Membership, StaleEpochStragglersAreCountedAndDropped) {
  // Old-incarnation frames delivered *after* the restarted incarnation's
  // frames reset the window must be dropped and counted — never executed,
  // never deduped into the live window. slow_by keeps the old frames in
  // flight (~50x base delay) across the kill/restart.
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 4'000.0;  // base hop ~6 ms of real delay
  cfg.reliability.activation = px::net::reliability_config::mode::on;
  cfg.reliability.initial_backoff_us = 5e6;  // no RTO inside the test window
  cfg.reliability.max_backoff_us = 5e6;

  auto const before_stale = builtin().resilience_stale_epoch_drops.load();
  auto const before_dup = builtin().net_dup_suppressed.load();
  auto const stamps0 = g_stamp_count.load();
  long long const sum0 = g_stamp_sum.load();

  px::dist::distributed_domain dom(cfg);
  dom.fabric().faults().slow_by(1, 50.0);
  for (int i = 0; i < 5; ++i) dom.at(1).apply<&res_stamp>(0, 1'000 + i);

  // Kill and restart while the epoch-1 frames are still in flight.
  dom.confirm_failure(1);
  dom.restart_locality(1);  // revives the wire, bumps the incarnation
  for (int i = 0; i < 5; ++i) dom.at(1).apply<&res_stamp>(0, 2'000 + i);

  dom.wait_all_quiescent();  // drains the slow stragglers too

  // Only the new incarnation's applies executed.
  EXPECT_EQ(g_stamp_count.load() - stamps0, 5);
  EXPECT_EQ(g_stamp_sum.load() - sum0, 2'000ll * 5 + (0 + 1 + 2 + 3 + 4));
  EXPECT_EQ(builtin().resilience_stale_epoch_drops.load() - before_stale, 5u);
  EXPECT_EQ(builtin().net_dup_suppressed.load() - before_dup, 0u);
}

TEST(Membership, OrphanResponsesExactlyMatchKilledCalls) {
  // Responses already in flight when their caller's slots are failed by a
  // confirm must land as counted orphans — exactly one per killed call,
  // and the calls themselves must fail with locality_down.
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.faults.extra_delay = 1.0;  // every frame: +100 ms, deterministically
  cfg.faults.extra_delay_us = 100'000.0;
  cfg.reliability.initial_backoff_us = 5e6;  // RTOs far outside the window
  cfg.reliability.max_backoff_us = 5e6;

  auto const before_orphans = builtin().parcel_orphan_responses.load();
  auto const stamps0 = g_stamp_count.load();

  px::dist::distributed_domain dom(cfg);
  std::thread killer([&dom] {
    std::this_thread::sleep_for(150ms);  // requests landed, responses in air
    dom.confirm_failure(1);
  });
  int down = dom.run([](px::dist::locality& loc0) {
    std::vector<px::future<int>> fs;
    for (int i = 0; i < 3; ++i) fs.push_back(loc0.call<&res_stamp>(1, i));
    int n = 0;
    for (auto& f : fs) {
      try {
        (void)f.get();
      } catch (px::dist::locality_down const& e) {
        if (e.which() == 1u) ++n;
      }
    }
    return n;
  });
  killer.join();
  dom.wait_all_quiescent();

  EXPECT_EQ(down, 3);
  EXPECT_EQ(g_stamp_count.load() - stamps0, 3);  // requests did execute
  EXPECT_EQ(builtin().parcel_orphan_responses.load() - before_orphans, 3u);
}

TEST(Membership, SendToConfirmedDeadLocalityFailsFast) {
  // New calls to a confirmed-dead locality must not burn a retry budget:
  // route() fails them immediately with locality_down.
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.reliability.activation = px::net::reliability_config::mode::on;

  auto const before_fail = builtin().net_delivery_failures.load();
  px::dist::distributed_domain dom(cfg);
  dom.confirm_failure(1);
  bool caught = dom.run([](px::dist::locality& loc0) {
    try {
      (void)loc0.call<&res_echo>(1, 1).get();
      return false;
    } catch (px::dist::locality_down const& e) {
      return e.which() == 1u;
    }
  });
  EXPECT_TRUE(caught);
  EXPECT_GE(builtin().net_delivery_failures.load() - before_fail, 1u);
  dom.wait_all_quiescent();

  // A remote-channel send to the dead locality is likewise a counted,
  // non-blocking drop (the close-race dead-letter path has its own test in
  // test_fault_injection).
  auto const fail2 = builtin().net_delivery_failures.load();
  dom.run([&dom](px::dist::locality& loc0) {
    auto ch = px::dist::remote_channel<double>::create(dom.at(1));
    ch.send(loc0, 2.71);
    return 0;
  });
  dom.wait_all_quiescent();
  EXPECT_GE(builtin().net_delivery_failures.load() - fail2, 1u);
}

// ---- barrier failure semantics -------------------------------------------

TEST(BarrierFailure, KilledParticipantSurfacesToAllWaiters) {
  // Localities 0 and 1 arrive; locality 2 dies without arriving. Both
  // waiters must surface the failure instead of deadlocking.
  px::dist::domain_config cfg;
  cfg.num_localities = 3;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;

  px::dist::distributed_domain dom(cfg);
  std::thread killer([&dom] {
    std::this_thread::sleep_for(100ms);  // both waiters are parked by now
    dom.confirm_failure(2);
  });
  int failures = dom.run([](px::dist::locality& loc0) {
    auto f0 = loc0.call<&res_barrier_participant>(0, std::uint64_t{0});
    auto f1 = loc0.call<&res_barrier_participant>(1, std::uint64_t{0});
    int n = 0;
    for (auto* f : {&f0, &f1}) {
      try {
        (void)f->get();
      } catch (std::runtime_error const& e) {
        // The waiter's locality_down crossed an action response, so it
        // arrives re-wrapped; the cause must still be named.
        if (std::string(e.what()).find("locality_down") != std::string::npos)
          ++n;
      }
    }
    return n;
  });
  killer.join();
  EXPECT_EQ(failures, 2);
  dom.wait_all_quiescent();
}

// ---- heat solver kill + restore ------------------------------------------

px::dist::domain_config heat_kill_cfg() {
  px::dist::domain_config cfg;
  cfg.num_localities = 8;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.001;
  cfg.resilience.enabled = true;
  // Confirm sits far above worst-case heartbeat jitter (sanitizer builds
  // stretch delivery by several-fold): only the deliberately killed
  // locality may ever cross it, or the recovered field would be computed
  // against the wrong membership and the bitwise check below would lie.
  cfg.resilience.heartbeat_interval_us = 2'000.0;
  cfg.resilience.suspect_after_us = 100'000.0;
  cfg.resilience.confirm_after_us = 500'000.0;
  // Force the reliability layer on (no link faults are configured, so
  // `automatic` would leave it off): the recovery path then runs over
  // sequenced/acked links and the dedup-window invariant is live.
  cfg.reliability.activation = px::net::reliability_config::mode::on;
  return cfg;
}

px::stencil::dist_heat_config heat_kill_solver_cfg() {
  px::stencil::dist_heat_config hc;
  hc.steps = 60;
  hc.checkpoint_interval = 10;
  hc.max_recoveries = 8;
  return hc;
}

TEST(HeatKill, KillOneLocalityRunIsBitwiseIdenticalToFaultFree) {
  auto const initial = px::stencil::heat1d_sine_initial(401);
  auto const hc = heat_kill_solver_cfg();

  // Fault-free baseline on an identical topology.
  px::dist::domain_config clean = heat_kill_cfg();
  clean.resilience.enabled = false;
  px::dist::distributed_domain clean_dom(clean);
  auto const baseline = px::stencil::run_distributed_heat1d(clean_dom, initial, hc);
  clean_dom.wait_all_quiescent();

  auto const before_confirms = builtin().resilience_confirms.load();
  auto const before_restores = builtin().resilience_restores.load();
  auto const before_ckpt = builtin().resilience_checkpoint_bytes.load();

  px::dist::distributed_domain dom(heat_kill_cfg());
  dom.fabric().faults().fail_stop_at_step(3, 47);
  auto const result = px::stencil::run_distributed_heat1d(dom, initial, hc);
  dom.wait_all_quiescent();  // obligation balance must hold post-recovery

  EXPECT_TRUE(dom.is_confirmed_dead(3));
  EXPECT_GE(result.recoveries, 1u);
  EXPECT_GE(builtin().resilience_confirms.load() - before_confirms, 1u);
  // One restore per partition per rollback (step-0 rollbacks use the
  // driver's own copy of the initial condition, hence GE not EQ).
  EXPECT_GE(builtin().resilience_restores.load() - before_restores, 8u);
  EXPECT_GT(builtin().resilience_checkpoint_bytes.load() - before_ckpt, 0u);

  // Replay from a bitwise-faithful checkpoint is deterministic, so the
  // recovered run cannot be told apart from the fault-free one.
  ASSERT_EQ(result.values.size(), baseline.values.size());
  EXPECT_TRUE(result.values == baseline.values);
}

// Every partition registers a confirm hook on its host. A recovered solve
// must remove all of them, including those whose host died and so never
// saw a teardown.
TEST(HeatKill, RecoveredSolveRemovesEveryConfirmHook) {
  auto const initial = px::stencil::heat1d_sine_initial(97);
  auto const hc = heat_kill_solver_cfg();
  px::dist::distributed_domain dom(heat_kill_cfg());
  dom.fabric().faults().fail_stop_at_step(3, 47);
  auto const hooks_before = dom.confirm_hook_count();
  auto const out = px::stencil::run_distributed_heat1d(dom, initial, hc);
  dom.wait_all_quiescent();
  EXPECT_GE(out.recoveries, 1u);
  EXPECT_EQ(dom.confirm_hook_count(), hooks_before);
}

TEST(HeatKill, SixteenSeedTortureSweepStaysBitwiseIdentical) {
  namespace torture = px::torture;
  auto const initial = px::stencil::heat1d_sine_initial(97);
  auto const hc = heat_kill_solver_cfg();

  px::dist::domain_config clean = heat_kill_cfg();
  clean.resilience.enabled = false;
  px::dist::distributed_domain clean_dom(clean);
  auto const baseline = px::stencil::run_distributed_heat1d(clean_dom, initial, hc);
  clean_dom.wait_all_quiescent();

  torture::forall_options opts;
  opts.perturb.perturb_probability = 0.3;
  opts.perturb.max_sleep_us = 40;
  // Deadline jitter would stall whole heartbeat ticks, and a stalled tick
  // reads as cluster-wide silence; schedule exploration still bites via
  // the sleep/yield perturbations on the wire and confirm paths.
  opts.perturb.timer_jitter_ns = 0;
  opts.dump_stem = "torture-resilience";

  auto r = torture::forall_seeds(
      torture::seed_count(16),
      [&](std::uint64_t) {
        auto dom = std::make_unique<px::dist::distributed_domain>(
            heat_kill_cfg());
        dom->fabric().faults().fail_stop_at_step(3, 47);
        auto const out = px::stencil::run_distributed_heat1d(*dom, initial, hc);
        if (out.values.size() != baseline.values.size() ||
            !(out.values == baseline.values))
          throw std::runtime_error(
              "recovered heat1d diverged bitwise from the fault-free run");
        if (out.recoveries < 1)
          throw std::runtime_error("fail-stop at step 47 never recovered");
        if (!dom->wait_all_quiescent_for(60s)) {
          dom->detach_invariants();
          auto const leaked = dom->obligations_in_flight();
          (void)dom.release();  // corrupted: destructor would hang
          throw torture::invariant_violation(
              {{"obligation-balance",
                std::to_string(leaked) +
                    " obligation(s) in flight after kill+restore"}});
        }
      },
      opts);
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

// ---- checkpoint/restart cluster cost model -------------------------------

TEST(ResilienceModel, CleanRunAddsOnlyCheckpointOverhead) {
  px::arch::machine const m = px::arch::xeon_e5_2660v3();
  px::arch::cluster_sim_config cfg;
  cfg.nodes = 8;
  cfg.steps = 100;
  auto const clean =
      px::arch::simulate_heat1d_cluster(m, px::net::infiniband_edr(), cfg);

  px::arch::cluster_resilience_config rcfg;
  rcfg.checkpoint_interval = 10;
  rcfg.checkpoint_write_s = 1e-3;
  auto const r = px::arch::simulate_heat1d_cluster_resilient(
      m, px::net::infiniband_edr(), cfg, rcfg);

  EXPECT_EQ(r.replayed_steps, 0u);
  EXPECT_EQ(r.checkpoints_taken, 9u);  // steps 10..90
  EXPECT_NEAR(r.makespan_s, clean.makespan_s + 9e-3, 1e-9);
  EXPECT_EQ(r.messages, clean.messages);
  EXPECT_DOUBLE_EQ(r.lost_work_s, 0.0);
}

TEST(ResilienceModel, FailingRunReplaysFromNewestCoveredCheckpoint) {
  px::arch::machine const m = px::arch::xeon_e5_2660v3();
  px::arch::cluster_sim_config cfg;
  cfg.nodes = 8;
  cfg.steps = 100;
  auto const clean =
      px::arch::simulate_heat1d_cluster(m, px::net::infiniband_edr(), cfg);

  px::arch::cluster_resilience_config rcfg;
  rcfg.checkpoint_interval = 10;
  rcfg.fail_stop_step = 47;
  auto const r = px::arch::simulate_heat1d_cluster_resilient(
      m, px::net::infiniband_edr(), cfg, rcfg);

  EXPECT_EQ(r.replayed_steps, 7u);  // rollback to 40, failure at 47
  EXPECT_GT(r.makespan_s, clean.makespan_s);
  EXPECT_GT(r.lost_work_s, 0.0);
  EXPECT_GT(r.recovery_s, 0.0);
  EXPECT_GT(r.messages, clean.messages);  // the replayed window re-halos
}

TEST(ResilienceModel, NoCheckpointMeansReplayFromScratch) {
  px::arch::machine const m = px::arch::xeon_e5_2660v3();
  px::arch::cluster_sim_config cfg;
  cfg.nodes = 4;
  cfg.steps = 50;

  px::arch::cluster_resilience_config rcfg;
  rcfg.checkpoint_interval = 0;
  rcfg.fail_stop_step = 33;
  auto const r = px::arch::simulate_heat1d_cluster_resilient(
      m, px::net::infiniband_edr(), cfg, rcfg);
  EXPECT_EQ(r.replayed_steps, 33u);
  EXPECT_EQ(r.checkpoints_taken, 0u);
  EXPECT_DOUBLE_EQ(r.checkpoint_overhead_s, 0.0);
}

}  // namespace
