// Tests for the parcel subsystem: action registration, remote invocation
// with and without results, locality-aware actions, exception propagation,
// fire-and-forget, direct actions, migration, and fabric accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <thread>

#include "px/dist/distributed_domain.hpp"
#include "px/dist/migration.hpp"
#include "px/lcos/latch.hpp"
#include "px/lcos/mutex.hpp"
#include "px/runtime/runtime.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/stencil/reference.hpp"

namespace {

std::atomic<int> poke_count{0};

int add_action(int a, int b) { return a + b; }
int where_am_i(px::dist::locality& here, int x) {
  return static_cast<int>(here.id()) * 1000 + x;
}
void poke_action() { poke_count.fetch_add(1); }
int throwing_action(int) { throw std::runtime_error("remote boom"); }
std::vector<double> vector_echo(std::vector<double> v) {
  for (auto& x : v) x *= 2.0;
  return v;
}
std::string concat_action(std::string a, std::string b) { return a + b; }

// Direct actions: what the handler saw, written on the delivering thread.
std::atomic<int> direct_sum{0};
std::thread::id direct_thread;
std::uint32_t direct_here = 0;
void direct_poke(px::dist::locality& here, int x) {
  direct_thread = std::this_thread::get_id();
  direct_here = here.id();
  direct_sum.fetch_add(x);
}
int direct_double(int x) {
  if (x < 0) throw std::runtime_error("direct boom");
  return 2 * x;
}
void direct_waits() {
  px::latch never(1);
  never.wait();
}
void direct_throws() { throw std::runtime_error("escaped a direct handler"); }
void direct_yields() { px::this_task::yield(); }
px::mutex direct_contended;
std::atomic<bool> direct_locking{false};
void direct_locks() {
  direct_locking = true;
  std::lock_guard<px::mutex> hold(direct_contended);
}

struct migratable_counter {
  long value = 0;
  std::string label;
  template <typename Archive>
  void serialize(Archive& ar) {
    ar& value& label;
  }
};

}  // namespace

PX_REGISTER_ACTION(add_action)
PX_REGISTER_ACTION(where_am_i)
PX_REGISTER_ACTION(poke_action)
PX_REGISTER_ACTION(throwing_action)
PX_REGISTER_ACTION(vector_echo)
PX_REGISTER_ACTION(concat_action)
PX_REGISTER_DIRECT_ACTION(direct_poke)
PX_REGISTER_DIRECT_ACTION(direct_double)
PX_REGISTER_DIRECT_ACTION(direct_waits)
PX_REGISTER_DIRECT_ACTION(direct_throws)
PX_REGISTER_DIRECT_ACTION(direct_yields)
PX_REGISTER_DIRECT_ACTION(direct_locks)
PX_REGISTER_MIGRATABLE(migratable_counter)

namespace {

px::dist::domain_config test_domain(std::size_t n,
                                    double injection_scale = 0.0001) {
  px::dist::domain_config cfg;
  cfg.num_localities = n;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = injection_scale;
  return cfg;
}

TEST(ActionRegistry, RegistrationAssignsStableIds) {
  auto& reg = px::parcel::action_registry::instance();
  auto const id = reg.id_of("add_action");
  EXPECT_GT(id, 0u);
  EXPECT_EQ(reg.name(id), "add_action");
  EXPECT_NE(reg.entry(id).handler, nullptr);
  // Re-registration is idempotent.
  EXPECT_EQ(px::parcel::action_traits<&add_action>::id, id);
}

TEST(ActionRegistry, UnknownActionThrows) {
  auto& reg = px::parcel::action_registry::instance();
  EXPECT_THROW((void)reg.entry(100000), std::out_of_range);
  EXPECT_EQ(reg.id_of("no_such_action"), 0u);
}

TEST(ActionRegistry, ReRegisteringWithTheOtherDirectFlagThrows) {
  auto& reg = px::parcel::action_registry::instance();
  auto const direct = reg.id_of("direct_poke");
  auto const task = reg.id_of("add_action");
  ASSERT_NE(direct, 0u);
  ASSERT_NE(task, 0u);
  EXPECT_TRUE(reg.entry(direct).direct);
  EXPECT_FALSE(reg.entry(task).direct);
  EXPECT_THROW(reg.add("direct_poke", reg.entry(direct).handler, false),
               std::logic_error);
  EXPECT_THROW(reg.add("add_action", reg.entry(task).handler, true),
               std::logic_error);
  // The same flag again stays idempotent.
  EXPECT_EQ(reg.add("direct_poke", reg.entry(direct).handler, true), direct);
  EXPECT_EQ(reg.add("add_action", reg.entry(task).handler, false), task);
}

TEST(DirectAction, RunsOnTheDeliveringThreadWithoutATask) {
  // Clean fabric, no injected delay: delivery happens inside apply(), on
  // the sender's thread.
  px::dist::distributed_domain dom(test_domain(2, 0.0));
  auto& loc1 = dom.at(1);
  std::uint64_t spawned = 0;
  int sum = 0;
  bool same_thread = false;
  dom.run([&](px::dist::locality& loc0) {
    auto const before = loc1.sched().tasks_spawned();
    int const base = direct_sum.load();
    loc0.apply<&direct_poke>(1, 5);
    sum = direct_sum.load() - base;  // taken effect when apply returns
    same_thread = direct_thread == std::this_thread::get_id();
    spawned = loc1.sched().tasks_spawned() - before;
    return 0;
  });
  EXPECT_EQ(sum, 5);
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(direct_here, 1u);
  EXPECT_EQ(spawned, 0u);
  EXPECT_GE(loc1.parcels_handled(), 1u);
}

TEST(DirectAction, CallGetsTheResultAndTheException) {
  px::dist::distributed_domain dom(test_domain(2));
  auto const r = dom.run([](px::dist::locality& loc0) {
    return loc0.call<&direct_double>(1, 21).get();
  });
  EXPECT_EQ(r, 42);
  bool const threw = dom.run([](px::dist::locality& loc0) {
    try {
      (void)loc0.call<&direct_double>(1, -1).get();
      return false;
    } catch (std::runtime_error const& e) {
      return std::string(e.what()).find("direct boom") != std::string::npos;
    }
  });
  EXPECT_TRUE(threw);
}

TEST(DirectAction, HeatSolveSpawnsFewerTasksThanSteps) {
  // The halos of a 4-locality solve are direct puts: the solve's tasks are
  // its few wave and round tasks, not one per halo (at least 1200 here).
  px::dist::domain_config cfg;
  cfg.num_localities = 4;
  cfg.locality_cfg.num_workers = 1;
  cfg.injection_scale = 0.0;
  px::dist::distributed_domain dom(cfg);
  auto const spawned = [&] {
    std::uint64_t n = 0;
    for (std::size_t l = 0; l < dom.size(); ++l)
      n += dom.at(l).sched().tasks_spawned();
    return n;
  };
  auto const initial = px::stencil::heat1d_sine_initial(4 * 1024);
  px::stencil::dist_heat_config hc;
  hc.steps = 200;
  auto const before = spawned();
  auto const out = px::stencil::run_distributed_heat1d(dom, initial, hc);
  EXPECT_LT(spawned() - before, hc.steps);
  EXPECT_TRUE(out.values ==
              px::stencil::reference_heat1d(initial, hc.steps, hc.k));
}

// The children of these death tests re-run the test binary in a fresh
// process ("threadsafe" style), so they inherit none of the parent's
// running workers.
TEST(DirectActionDeathTest, WaitingInADirectHandlerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        px::dist::distributed_domain dom(test_domain(2, 0.0));
        dom.run([](px::dist::locality& loc0) {
          loc0.apply<&direct_waits>(1);
          return 0;
        });
      },
      "a direct action's handler must not wait");
}

TEST(DirectActionDeathTest, YieldingInADirectHandlerAborts) {
  // Clean fabric: the handler runs inside the sender's task, on its worker.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        px::dist::distributed_domain dom(test_domain(2, 0.0));
        dom.run([](px::dist::locality& loc0) {
          loc0.apply<&direct_yields>(1);
          return 0;
        });
      },
      "a direct action's handler must not wait");
}

TEST(DirectActionDeathTest, LockingAContendedMutexOnTheTimerThreadAborts) {
  // A full modeled delay: the frame is delivered by the timer thread, which
  // would block on the px::mutex the sender holds.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        px::dist::distributed_domain dom(test_domain(2, 1.0));
        dom.run([](px::dist::locality& loc0) {
          std::lock_guard<px::mutex> hold(direct_contended);
          loc0.apply<&direct_locks>(1);
          // Hold the mutex until the handler is in lock(), sleeping the OS
          // thread (a task sleep needs the timer thread): a handler that
          // blocks instead of aborting gets the mutex and the run ends.
          while (!direct_locking)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          return 0;
        });
      },
      "a direct action's handler must not wait");
}

TEST(DirectActionDeathTest, ExceptionEscapingAFireAndForgetHandlerEnds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        px::dist::distributed_domain dom(test_domain(2, 0.0));
        dom.run([](px::dist::locality& loc0) {
          try {
            loc0.apply<&direct_throws>(1);
          } catch (...) {
            // Must not get here: the sender's apply() never sees it.
            return 1;
          }
          return 0;
        });
      },
      "escaped a direct handler");
}

TEST(Parcel, CallReturnsRemoteResult) {
  px::dist::distributed_domain dom(test_domain(2));
  int r = dom.run([](px::dist::locality& loc0) {
    return loc0.call<&add_action>(1, 20, 22).get();
  });
  EXPECT_EQ(r, 42);
}

TEST(Parcel, LocalityAwareActionSeesDestination) {
  px::dist::distributed_domain dom(test_domain(3));
  auto r = dom.run([](px::dist::locality& loc0) {
    auto f1 = loc0.call<&where_am_i>(1, 5);
    auto f2 = loc0.call<&where_am_i>(2, 5);
    auto self = loc0.call<&where_am_i>(0, 5);
    return std::make_tuple(f1.get(), f2.get(), self.get());
  });
  EXPECT_EQ(std::get<0>(r), 1005);
  EXPECT_EQ(std::get<1>(r), 2005);
  EXPECT_EQ(std::get<2>(r), 5);
}

TEST(Parcel, ApplyIsFireAndForget) {
  poke_count.store(0);
  px::dist::distributed_domain dom(test_domain(2));
  dom.run([](px::dist::locality& loc0) {
    for (int i = 0; i < 10; ++i) loc0.apply<&poke_action>(1);
    return 0;
  });
  dom.wait_all_quiescent();
  EXPECT_EQ(poke_count.load(), 10);
}

TEST(Parcel, RemoteExceptionPropagatesToCaller) {
  px::dist::distributed_domain dom(test_domain(2));
  bool caught = dom.run([](px::dist::locality& loc0) {
    try {
      loc0.call<&throwing_action>(1, 0).get();
      return false;
    } catch (std::runtime_error const& e) {
      return std::string(e.what()).find("remote boom") != std::string::npos;
    }
  });
  EXPECT_TRUE(caught);
}

TEST(Parcel, LargePayloadRoundtrip) {
  px::dist::distributed_domain dom(test_domain(2));
  double sum = dom.run([](px::dist::locality& loc0) {
    std::vector<double> v(10000);
    std::iota(v.begin(), v.end(), 0.0);
    auto doubled = loc0.call<&vector_echo>(1, std::move(v)).get();
    return std::accumulate(doubled.begin(), doubled.end(), 0.0);
  });
  EXPECT_DOUBLE_EQ(sum, 2.0 * (9999.0 * 10000.0 / 2.0));
}

TEST(Parcel, ManyConcurrentCalls) {
  px::dist::distributed_domain dom(test_domain(4));
  long total = dom.run([](px::dist::locality& loc0) {
    std::vector<px::future<int>> futs;
    for (int i = 0; i < 100; ++i)
      futs.push_back(loc0.call<&add_action>(
          static_cast<std::uint32_t>(i % 4), i, 1));
    long sum = 0;
    for (auto& f : futs) sum += f.get();
    return sum;
  });
  EXPECT_EQ(total, 100L * 99 / 2 + 100);
}

TEST(Parcel, StringArguments) {
  px::dist::distributed_domain dom(test_domain(2));
  auto r = dom.run([](px::dist::locality& loc0) {
    return loc0.call<&concat_action>(1, std::string("foo"),
                                     std::string("bar")).get();
  });
  EXPECT_EQ(r, "foobar");
}

TEST(Parcel, FabricCountsInterLocalityTrafficOnly) {
  px::dist::distributed_domain dom(test_domain(2));
  dom.run([](px::dist::locality& loc0) {
    loc0.call<&add_action>(0, 1, 1).get();  // intra-node: free
    return 0;
  });
  dom.wait_all_quiescent();
  auto const free_msgs = dom.fabric().counters().messages.load();
  EXPECT_EQ(free_msgs, 0u);

  dom.run([](px::dist::locality& loc0) {
    loc0.call<&add_action>(1, 1, 1).get();  // remote: request + response
    return 0;
  });
  dom.wait_all_quiescent();
  EXPECT_EQ(dom.fabric().counters().messages.load(), 2u);
  EXPECT_GT(dom.fabric().counters().bytes.load(), 0u);
  EXPECT_GT(dom.fabric().counters().modeled_us(), 0.0);
}

TEST(Parcel, ParcelsHandledCounterAdvances) {
  px::dist::distributed_domain dom(test_domain(2));
  dom.run([](px::dist::locality& loc0) {
    loc0.call<&add_action>(1, 1, 2).get();
    return 0;
  });
  dom.wait_all_quiescent();
  EXPECT_GE(dom.at(1).parcels_handled(), 1u);
  EXPECT_GE(dom.at(0).parcels_handled(), 1u);  // the response
}

TEST(Migration, MovesObjectAndUpdatesResidence) {
  px::dist::distributed_domain dom(test_domain(3));
  auto moved_gid = dom.run([](px::dist::locality& loc0) {
    auto obj = std::make_shared<migratable_counter>();
    obj->value = 77;
    obj->label = "it";
    auto g = loc0.agas().bind(obj);
    auto ng = px::dist::migrate<migratable_counter>(loc0, g, 2).get();
    // Departed from here:
    PX_ASSERT(!loc0.agas().contains(g));
    return ng;
  });
  dom.wait_all_quiescent();
  EXPECT_EQ(moved_gid.locality(), 2u);
  auto resolved = dom.at(2).agas().resolve<migratable_counter>(moved_gid);
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved->value, 77);
  EXPECT_EQ(resolved->label, "it");
}

TEST(Migration, MigrateToSelfIsNoop) {
  px::dist::distributed_domain dom(test_domain(2));
  bool ok = dom.run([](px::dist::locality& loc0) {
    auto g = loc0.agas().bind(std::make_shared<migratable_counter>());
    auto ng = px::dist::migrate<migratable_counter>(loc0, g, 0).get();
    return ng == g && loc0.agas().contains(g);
  });
  EXPECT_TRUE(ok);
}

TEST(Migration, UnknownGidFails) {
  px::dist::distributed_domain dom(test_domain(2));
  bool threw = dom.run([](px::dist::locality& loc0) {
    auto f = px::dist::migrate<migratable_counter>(
        loc0, px::agas::gid::make(0, 424242), 1);
    try {
      f.get();
      return false;
    } catch (std::runtime_error const&) {
      return true;
    }
  });
  EXPECT_TRUE(threw);
}

TEST(Fabric, InjectedDelayStillDelivers) {
  // A visible injection scale: parcels take ~ms but everything completes.
  px::dist::distributed_domain dom(test_domain(2, /*injection_scale=*/100.0));
  int r = dom.run([](px::dist::locality& loc0) {
    return loc0.call<&add_action>(1, 2, 3).get();
  });
  EXPECT_EQ(r, 5);
}

}  // namespace
