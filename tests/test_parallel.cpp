// Tests for the parallel algorithms and executors, with parameterized size
// sweeps covering empty, tiny, chunk-boundary and large inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "px/px.hpp"

namespace {

struct ParallelTest : ::testing::Test {
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 4;
    return c;
  }()};
};

// Parameterized over input size, exercising chunk boundary conditions.
class ForEachSizes : public ParallelTest,
                     public ::testing::WithParamInterface<std::size_t> {};

TEST_P(ForEachSizes, DoublesEveryElement) {
  std::size_t const n = GetParam();
  std::vector<long> v(n);
  std::iota(v.begin(), v.end(), 0L);
  px::sync_wait(rt, [&v] {
    px::parallel::for_each(px::execution::par, v.begin(), v.end(),
                           [](long& x) { x *= 2; });
    return 0;
  });
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(v[i], static_cast<long>(2 * i));
}

TEST_P(ForEachSizes, ForLoopTouchesEveryIndexOnce) {
  std::size_t const n = GetParam();
  std::vector<std::atomic<int>> touched(n);
  for (auto& t : touched) t.store(0);
  px::sync_wait(rt, [&] {
    px::parallel::for_loop(px::execution::par, 0, n,
                           [&](std::size_t i) { touched[i].fetch_add(1); });
    return 0;
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(touched[i].load(), 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForEachSizes,
                         ::testing::Values(0, 1, 2, 3, 7, 31, 32, 33, 100,
                                           1000, 4096, 10001));

class ChunkSizes : public ParallelTest,
                   public ::testing::WithParamInterface<std::size_t> {};

TEST_P(ChunkSizes, ExplicitChunkingIsCorrect) {
  std::size_t const chunk = GetParam();
  std::vector<int> v(1000, 1);
  px::sync_wait(rt, [&] {
    px::parallel::for_each(px::execution::par.with(chunk), v.begin(), v.end(),
                           [](int& x) { ++x; });
    return 0;
  });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 2000);
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkSizes,
                         ::testing::Values(1, 2, 3, 10, 100, 999, 1000,
                                           5000));

TEST_F(ParallelTest, SequencedPolicyRunsInline) {
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  int order_check = 0;
  bool ordered = true;
  px::parallel::for_each(px::execution::seq, v.begin(), v.end(),
                         [&](int x) { ordered = ordered && (x == order_check++); });
  EXPECT_TRUE(ordered);  // seq preserves order, needs no runtime
}

TEST_F(ParallelTest, TransformMatchesStd) {
  std::vector<int> in(5000), out(5000), expect(5000);
  std::iota(in.begin(), in.end(), -2500);
  std::transform(in.begin(), in.end(), expect.begin(),
                 [](int x) { return x * x - 1; });
  px::sync_wait(rt, [&] {
    px::parallel::transform(px::execution::par, in.begin(), in.end(),
                            out.begin(), [](int x) { return x * x - 1; });
    return 0;
  });
  EXPECT_EQ(out, expect);
}

TEST_F(ParallelTest, ReduceMatchesStd) {
  std::vector<long> v(10007);
  std::iota(v.begin(), v.end(), 1L);
  long const expect = std::accumulate(v.begin(), v.end(), 0L);
  long const got = px::sync_wait(rt, [&] {
    return px::parallel::reduce(px::execution::par, v.begin(), v.end(), 0L,
                                std::plus<>{});
  });
  EXPECT_EQ(got, expect);
}

TEST_F(ParallelTest, ReduceWithNonCommutativeIsStillDeterministicChunked) {
  // max is associative+commutative; use it to verify chunk combination.
  std::vector<int> v(5000);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<int>((i * 37) % 4999);
  int const got = px::sync_wait(rt, [&] {
    return px::parallel::reduce(px::execution::par, v.begin(), v.end(), 0,
                                [](int a, int b) { return a > b ? a : b; });
  });
  EXPECT_EQ(got, *std::max_element(v.begin(), v.end()));
}

TEST_F(ParallelTest, TransformReduceDotProduct) {
  std::vector<double> v(4001, 2.0);
  double const got = px::sync_wait(rt, [&] {
    return px::parallel::transform_reduce(
        px::execution::par, v.begin(), v.end(), 0.0, std::plus<>{},
        [](double x) { return x * x; });
  });
  EXPECT_DOUBLE_EQ(got, 4.0 * 4001);
}

TEST_F(ParallelTest, FillAndCopy) {
  std::vector<int> a(3000, 0), b(3000, 0);
  px::sync_wait(rt, [&] {
    px::parallel::fill(px::execution::par, a.begin(), a.end(), 9);
    px::parallel::copy(px::execution::par, a.begin(), a.end(), b.begin());
    return 0;
  });
  EXPECT_EQ(std::accumulate(b.begin(), b.end(), 0L), 27000L);
}

TEST_F(ParallelTest, ExceptionInChunkPropagates) {
  std::vector<int> v(1000, 1);
  EXPECT_THROW(px::sync_wait(rt, [&] {
                 px::parallel::for_each(px::execution::par, v.begin(),
                                        v.end(), [](int& x) {
                                          if (x == 1)
                                            throw std::runtime_error("bad");
                                        });
                 return 0;
               }),
               std::runtime_error);
}

void busy_wait(std::chrono::microseconds d) {
  auto const until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// A throw from a forked task, not the caller's own slice, reaches the
// caller: the body is heavy enough that plain `par` forks, and the last
// index runs in the last forked chunk. `.with(1)` forks every iteration.
TEST_F(ParallelTest, ExceptionInForkedTaskPropagates) {
  for (auto const& policy :
       {px::execution::par, px::execution::par.with(1)}) {
    std::uint64_t spawned = 0;
    EXPECT_THROW(px::sync_wait(rt,
                               [&] {
                                 std::uint64_t const before =
                                     rt.sched().tasks_spawned();
                                 try {
                                   px::parallel::for_loop(
                                       policy, 0, 64, [](std::size_t i) {
                                         busy_wait(
                                             std::chrono::microseconds(20));
                                         if (i == 63)
                                           throw std::runtime_error("bad");
                                       });
                                 } catch (...) {
                                   spawned =
                                       rt.sched().tasks_spawned() - before;
                                   throw;
                                 }
                                 return 0;
                               }),
                 std::runtime_error);
    EXPECT_GE(spawned, 2u);
  }
}

TEST_F(ParallelTest, WorksFromExternalThreadWithBoundExecutor) {
  std::vector<int> v(500, 1);
  px::thread_pool_executor ex(rt.sched());
  px::parallel::for_each(px::execution::par.on(ex), v.begin(), v.end(),
                         [](int& x) { ++x; });
  EXPECT_EQ(std::accumulate(v.begin(), v.end(), 0), 1000);
}

TEST_F(ParallelTest, BlockExecutorPlacementIsBlockwise) {
  px::block_executor ex(rt.sched());
  std::size_t const chunks = 8;
  // 8 chunks over 4 workers: chunks {0,1}->w0, {2,3}->w1, ...
  for (std::size_t c = 0; c < chunks; ++c)
    EXPECT_EQ(ex.placement(c, chunks), static_cast<int>(c / 2));
}

TEST_F(ParallelTest, BlockExecutorKeepsChunkOnSameWorkerAcrossCalls) {
  px::block_executor ex(rt.sched());
  auto policy = px::execution::par.on(ex).with(100);
  std::vector<std::size_t> first(10, 99), second(10, 98);
  std::vector<int> data(1000);
  px::sync_wait(rt, [&] {
    px::parallel::for_loop(policy, 0, data.size(), [&](std::size_t i) {
      first[i / 100] = px::this_task::worker_index();
    });
    px::parallel::for_loop(policy, 0, data.size(), [&](std::size_t i) {
      second[i / 100] = px::this_task::worker_index();
    });
    return 0;
  });
  // First-touch emulation: each chunk revisits the worker that touched it.
  EXPECT_EQ(first, second);
}

TEST_F(ParallelTest, LimitingExecutorUsesOnlyRequestedWorkers) {
  px::limiting_executor ex(rt.sched(), 2);
  std::set<std::size_t> seen;
  px::spinlock lock;
  px::sync_wait(rt, [&] {
    px::parallel::for_loop(px::execution::par.on(ex).with(16), 0, 256,
                           [&](std::size_t) {
                             std::lock_guard<px::spinlock> g(lock);
                             seen.insert(px::this_task::worker_index());
                           });
    return 0;
  });
  for (auto w : seen) EXPECT_LT(w, 2u);
}

// Fewest tasks `loop` spawns over three runs, counted inside the calling
// task (sync_wait spawns that task itself). A timer interrupt that lands in
// one run's sub-microsecond leading slice inflates that run's estimate;
// it does not land in all three.
template <typename Loop>
std::uint64_t spawns_of(px::runtime& rt, Loop const& loop) {
  return px::sync_wait(rt, [&] {
    std::uint64_t fewest = ~std::uint64_t{0};
    for (int run = 0; run < 3; ++run) {
      std::uint64_t const before = rt.sched().tasks_spawned();
      loop();
      fewest = std::min(fewest, rt.sched().tasks_spawned() - before);
    }
    return fewest;
  });
}

px::scheduler_config one_worker() {
  px::scheduler_config c;
  c.num_workers = 1;
  return c;
}

// The fork decision from a timed slice, without a clock. fork_join_ns is
// the unit: a task must be worth one, and the caller takes one task.
TEST(MeasuredGrain, ForkTasksFromTheTimedSlice) {
  using px::parallel::detail::fork_tasks;
  using px::parallel::detail::timed_slice_ns;
  auto const fj =
      static_cast<std::int64_t>(px::parallel::detail::fork_join_ns);
  // An empty 16384-item loop: one iteration timed with the clock read
  // (~25 ns) looks like 400 us of work and forks the cap; a slice of 4096
  // iterations that took timed_slice_ns shows 3 us left, run inline.
  EXPECT_EQ(fork_tasks(25, 1, 16383, 32, 4), 32u);
  EXPECT_EQ(fork_tasks(timed_slice_ns, 4096, 12288, 32, 4), 0u);
  // Below two fork-join costs the caller finishes inline.
  EXPECT_EQ(fork_tasks(fj, 1, 1, 32, 4), 0u);
  EXPECT_EQ(fork_tasks(fj, 10, 19, 32, 4), 0u);
  // Nine tasks' worth on 4 workers round up to three whole rounds ...
  EXPECT_EQ(fork_tasks(9 * fj, 1000, 1000, 32, 4), 12u);
  EXPECT_EQ(fork_tasks(2 * fj, 1000, 1000, 24, 3), 3u);
  // ... capped by the tasks per call and by the units left.
  EXPECT_EQ(fork_tasks(1000 * fj, 1, 1000, 32, 4), 32u);
  EXPECT_EQ(fork_tasks(fj, 1, 3, 32, 4), 3u);  // n == workers, coarse
  EXPECT_EQ(fork_tasks(fj, 1, 6, 32, 4), 6u);
  // One worker, or one unit left: nothing to fork.
  EXPECT_EQ(fork_tasks(1000 * fj, 1, 1000, 32, 1), 0u);
  EXPECT_EQ(fork_tasks(1000 * fj, 1, 1, 32, 4), 0u);
}

TEST(MeasuredGrain, OneWorkerNeverSpawns) {
  px::runtime rt(one_worker());
  std::vector<std::size_t> out(16384);
  EXPECT_EQ(spawns_of(rt,
                      [&] {
                        px::parallel::for_loop(px::execution::par, 0,
                                               out.size(),
                                               [&](std::size_t i) {
                                                 out[i] = 2 * i;
                                               });
                      }),
            0u);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], 2 * i);
}

TEST(MeasuredGrain, OneWorkerRethrowsToTheCaller) {
  px::runtime rt(one_worker());
  EXPECT_THROW(px::sync_wait(rt,
                             [] {
                               px::parallel::for_loop(
                                   px::execution::par, 0, 1000,
                                   [](std::size_t i) {
                                     if (i == 700)
                                       throw std::runtime_error("bad");
                                   });
                               return 0;
                             }),
               std::runtime_error);
}

TEST_F(ParallelTest, SmallLoopRunsInline) {
  std::vector<std::size_t> out(128);
  EXPECT_EQ(spawns_of(rt,
                      [&] {
                        px::parallel::for_loop(px::execution::par, 0,
                                               out.size(),
                                               [&](std::size_t i) {
                                                 out[i] = i + 1;
                                               });
                      }),
            0u);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i + 1);
}

// The grain comes from a timed slice of many iterations: timing a single
// empty iteration measures the clock read and forks this loop. Only an
// optimized, uninstrumented build makes the empty body free; under -O0 or
// ASan 16384 calls of it cost tens of microseconds, and forking is right.
TEST_F(ParallelTest, EmptyLoopRunsInline) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "the empty body is not free in this build";
#endif
  EXPECT_EQ(spawns_of(rt,
                      [] {
                        px::parallel::for_loop(px::execution::par, 0, 16384,
                                               [](std::size_t) {});
                      }),
            0u);
}

// Guard: a loop of 64 x 20 us must not run serialized on the caller.
TEST_F(ParallelTest, HeavyLoopStillForks) {
  std::atomic<int> ran{0};
  std::uint64_t const spawned = spawns_of(rt, [&] {
    px::parallel::for_loop(px::execution::par, 0, 64, [&](std::size_t) {
      busy_wait(std::chrono::microseconds(20));
      ran.fetch_add(1);
    });
  });
  EXPECT_EQ(ran.load(), 3 * 64);  // spawns_of runs the loop three times
  EXPECT_GE(spawned, 2u);
}

// Explicit grains fork every level (8 outer tasks, each forking 10 inner
// ones and waiting on them inside a task); plain `par` would run these
// cheap loops inline.
TEST_F(ParallelTest, NestedParallelism) {
  std::atomic<long> total{0};
  px::sync_wait(rt, [&] {
    px::parallel::for_loop(px::execution::par.with(1), 0, 8,
                           [&](std::size_t) {
                             px::parallel::for_loop(
                                 px::execution::par.with(10), 0, 100,
                                 [&](std::size_t) { total.fetch_add(1); });
                           });
    return 0;
  });
  EXPECT_EQ(total.load(), 800);
}

}  // namespace
