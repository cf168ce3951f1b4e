// Tests for the scheduler/runtime: spawning, nesting, yielding, placement
// hints, quiescence, clean shutdown, multiple coexisting runtimes, stats.
#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "px/lcos/async.hpp"
#include "px/lcos/event.hpp"
#include "px/runtime/runtime.hpp"
#include "px/runtime/timer_service.hpp"

namespace {

px::scheduler_config cfg(std::size_t workers) {
  px::scheduler_config c;
  c.num_workers = workers;
  return c;
}

TEST(Scheduler, RunsASingleTask) {
  px::runtime rt(cfg(2));
  std::atomic<int> x{0};
  rt.post([&] { x.store(42); });
  rt.wait_quiescent();
  EXPECT_EQ(x.load(), 42);
}

TEST(Scheduler, RunsManyTasks) {
  px::runtime rt(cfg(4));
  std::atomic<long> sum{0};
  constexpr int n = 10000;
  for (int i = 0; i < n; ++i) rt.post([&sum, i] { sum.fetch_add(i); });
  rt.wait_quiescent();
  EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
  EXPECT_EQ(rt.sched().tasks_spawned(), static_cast<std::uint64_t>(n));
}

TEST(Scheduler, NestedSpawning) {
  px::runtime rt(cfg(3));
  std::atomic<int> count{0};
  rt.post([&] {
    for (int i = 0; i < 10; ++i)
      px::post([&] {
        for (int j = 0; j < 10; ++j) px::post([&] { count.fetch_add(1); });
      });
  });
  rt.wait_quiescent();
  EXPECT_EQ(count.load(), 100);
}

TEST(Scheduler, PlacementHintLandsOnRequestedWorker) {
  px::runtime rt(cfg(4));
  std::atomic<int> wrong{0};
  for (int w = 0; w < 4; ++w)
    for (int i = 0; i < 50; ++i)
      rt.post(
          [&wrong, w] {
            if (px::this_task::worker_index() != static_cast<std::size_t>(w))
              wrong.fetch_add(1);
          },
          w);
  rt.wait_quiescent();
  // Hinted tasks from an external thread land in the target worker's
  // injection queue, which only its owner pops — placement is exact.
  EXPECT_EQ(wrong.load(), 0);
}

TEST(Scheduler, YieldInterleavesTasks) {
  px::runtime rt(cfg(1));  // single worker forces interleaving via yield
  std::atomic<bool> flag{false};
  std::atomic<bool> saw_flag{false};
  rt.post([&] {
    while (!flag.load()) px::this_task::yield();
    saw_flag.store(true);
  });
  rt.post([&] { flag.store(true); });
  rt.wait_quiescent();
  EXPECT_TRUE(saw_flag.load());
}

TEST(Scheduler, SleepForSuspendsNotBlocks) {
  px::runtime rt(cfg(1));
  std::atomic<int> order{0};
  std::atomic<int> sleeper_rank{-1}, worker_rank{-1};
  rt.post([&] {
    px::this_task::sleep_for(std::chrono::milliseconds(50));
    sleeper_rank.store(order.fetch_add(1));
  });
  rt.post([&] { worker_rank.store(order.fetch_add(1)); });
  rt.wait_quiescent();
  // The non-sleeping task must have completed while the sleeper suspended,
  // even on a single worker.
  EXPECT_EQ(worker_rank.load(), 0);
  EXPECT_EQ(sleeper_rank.load(), 1);
}

TEST(Scheduler, StealingBalancesWork) {
  px::runtime rt(cfg(4));
  // Pin all initial tasks to worker 0; the others must steal.
  std::atomic<int> done{0};
  std::set<std::size_t> workers_seen;
  px::spinlock seen_lock;
  for (int i = 0; i < 200; ++i)
    rt.post(
        [&] {
          // Busy-ish work so stealing has time to happen.
          volatile double acc = 0;
          for (int k = 0; k < 2000; ++k) acc = acc + k;
          {
            std::lock_guard<px::spinlock> g(seen_lock);
            workers_seen.insert(px::this_task::worker_index());
          }
          done.fetch_add(1);
        },
        0);
  rt.wait_quiescent();
  EXPECT_EQ(done.load(), 200);
  // On a single-CPU host preemption still lets other workers steal
  // occasionally, but we only require correctness: all ran.
}

TEST(Scheduler, QuiescenceWaitsForAllWork) {
  px::runtime rt(cfg(2));
  std::atomic<int> completed{0};
  rt.post([&] {
    px::this_task::sleep_for(std::chrono::milliseconds(30));
    px::post([&] {
      px::this_task::sleep_for(std::chrono::milliseconds(20));
      completed.fetch_add(1);
    });
    completed.fetch_add(1);
  });
  rt.wait_quiescent();
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(rt.sched().active_tasks(), 0u);
}

TEST(Scheduler, ShutdownIsIdempotent) {
  px::runtime rt(cfg(2));
  rt.post([] {});
  rt.shutdown();
  rt.shutdown();
  SUCCEED();
}

TEST(Scheduler, MultipleRuntimesCoexist) {
  px::runtime a(cfg(2)), b(cfg(2));
  std::atomic<int> xa{0}, xb{0};
  for (int i = 0; i < 100; ++i) {
    a.post([&] { xa.fetch_add(1); });
    b.post([&] { xb.fetch_add(1); });
  }
  a.wait_quiescent();
  b.wait_quiescent();
  EXPECT_EQ(xa.load(), 100);
  EXPECT_EQ(xb.load(), 100);
}

TEST(Scheduler, RuntimeCurrentResolvesInsideTask) {
  px::runtime rt(cfg(2));
  px::runtime* seen = nullptr;
  rt.post([&] { seen = px::runtime::current(); });
  rt.wait_quiescent();
  EXPECT_EQ(seen, &rt);
  EXPECT_EQ(px::runtime::current(), nullptr);  // external thread
}

TEST(Scheduler, WorkerCountDefaultsToPhysicalCores) {
  px::runtime rt{px::scheduler_config{}};
  EXPECT_GE(rt.num_workers(), 1u);
}

TEST(Scheduler, NumaDomainsAssignedBlockwise) {
  px::scheduler_config c;
  c.num_workers = 4;
  c.numa_domains = 2;
  px::runtime rt(c);
  std::array<std::atomic<int>, 4> domain_of;
  for (auto& d : domain_of) d.store(-1);
  for (int w = 0; w < 4; ++w)
    rt.post([&domain_of, w] {
      domain_of[static_cast<std::size_t>(w)].store(
          static_cast<int>(px::this_task::numa_domain()));
    },
            w);
  rt.wait_quiescent();
  EXPECT_EQ(domain_of[0].load(), 0);
  EXPECT_EQ(domain_of[1].load(), 0);
  EXPECT_EQ(domain_of[2].load(), 1);
  EXPECT_EQ(domain_of[3].load(), 1);
}

TEST(IdleSpin, GateNeedsAHardwareThreadForEveryRunningWorker) {
  using px::rt::idle_spin_allowed;
  EXPECT_FALSE(idle_spin_allowed(1, 1));  // a 1-core host never spins
  EXPECT_FALSE(idle_spin_allowed(1, 0));  // unknown core count
  EXPECT_TRUE(idle_spin_allowed(1, 2));
  EXPECT_TRUE(idle_spin_allowed(4, 4));
  EXPECT_FALSE(idle_spin_allowed(5, 4));
  EXPECT_FALSE(idle_spin_allowed(8, 4));  // e.g. 4 localities x 2 workers
}

TEST(TimerService, CallbacksFireInDeadlineOrder) {
  auto& ts = px::rt::timer_service::instance();
  std::vector<int> order;
  px::spinlock lock;
  px::event done;
  auto const now = px::rt::timer_service::clock::now();
  ts.call_at(now + std::chrono::milliseconds(30), [&] {
    std::lock_guard<px::spinlock> g(lock);
    order.push_back(2);
    done.set();
  });
  ts.call_at(now + std::chrono::milliseconds(10), [&] {
    std::lock_guard<px::spinlock> g(lock);
    order.push_back(1);
  });
  done.wait();
  std::lock_guard<px::spinlock> g(lock);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerService, CancelAndWaitBlocksUntilRunningCallbackReturns) {
  // Regression: a canceller that loses the token claim must not proceed
  // to tear down the callback's captures while the callback is still
  // executing (coalesce flush-deadline vs ~distributed_domain race).
  auto& ts = px::rt::timer_service::instance();
  std::atomic<bool> entered{false}, release{false}, finished{false};
  auto token = std::make_shared<px::rt::timer_token>();
  ts.call_at(px::rt::timer_service::clock::now(),
             [&] {
               entered.store(true);
               while (!release.load()) std::this_thread::yield();
               finished.store(true);
             },
             token);
  while (!entered.load()) std::this_thread::yield();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    release.store(true);
  });
  EXPECT_FALSE(token->cancel_and_wait());  // claim already lost to the timer
  EXPECT_TRUE(finished.load());            // ...but callback has fully run
  releaser.join();
}

TEST(TimerService, CancelAndWaitWinningClaimSuppressesCallback) {
  auto& ts = px::rt::timer_service::instance();
  std::atomic<bool> ran{false};
  auto token = std::make_shared<px::rt::timer_token>();
  ts.call_at(px::rt::timer_service::clock::now() + std::chrono::hours(1),
             [&] { ran.store(true); }, token);
  EXPECT_TRUE(token->cancel_and_wait());  // timer never claimed: instant win
  EXPECT_FALSE(token->is_armed());
  EXPECT_FALSE(ran.load());
}

}  // namespace
