// Task-block pool (PR 5 spawn hot path): steady-state spawns must not
// touch the global allocator. The whole binary replaces operator new —
// including the aligned form the pool's miss path actually uses, which does
// NOT forward to the plain overload — and the acceptance test spawns a
// warm batch while asserting the allocation counter stands still.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "px/counters/counters.hpp"
#include "px/px.hpp"
#include "px/runtime/task_pool.hpp"

// ---- global allocation guard ----------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc{};
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

// ---- pool primitives -------------------------------------------------------

TEST(TaskFreelist, GetPutRoundTrip) {
  px::rt::task_freelist fl;
  EXPECT_EQ(fl.get(), nullptr);  // empty: caller must allocate
  alignas(64) static std::byte blocks[4][256];
  for (auto& b : blocks) EXPECT_TRUE(fl.put(b));
  EXPECT_EQ(fl.cached(), 4u);
  // LIFO: the hottest (most recently retired) block comes back first.
  EXPECT_EQ(fl.get(), static_cast<void*>(blocks[3]));
  EXPECT_EQ(fl.get(), static_cast<void*>(blocks[2]));
  EXPECT_EQ(fl.cached(), 2u);
}

TEST(TaskFreelist, BoundedAndOverflowRefused) {
  px::rt::task_freelist fl(/*max_cached=*/2);
  alignas(64) static std::byte blocks[3][256];
  EXPECT_TRUE(fl.put(blocks[0]));
  EXPECT_TRUE(fl.put(blocks[1]));
  EXPECT_FALSE(fl.put(blocks[2]));  // full: caller routes to shared level
  EXPECT_EQ(fl.cached(), 2u);
}

TEST(TaskBlockPool, SharedLevelBatchedHandoff) {
  px::rt::task_block_pool pool;
  alignas(64) static std::byte blocks[8][256];
  for (auto& b : blocks) EXPECT_TRUE(pool.put(b));
  void* out[16];
  std::size_t const n = pool.get_batch(out, 16);
  EXPECT_EQ(n, 8u);  // hands over what it has, never allocates
  EXPECT_EQ(pool.get_batch(out, 16), 0u);
  for (std::size_t i = 0; i < n; ++i) EXPECT_TRUE(pool.put(out[i]));
  std::size_t drained = 0;
  while (pool.take_one() != nullptr) ++drained;
  EXPECT_EQ(drained, 8u);
}

TEST(TaskBlockPool, BoundedAndCapacityFreedByTakers) {
  px::rt::task_block_pool pool(/*max_blocks=*/2);
  alignas(64) static std::byte blocks[3][256];
  EXPECT_TRUE(pool.put(blocks[0]));
  EXPECT_TRUE(pool.put(blocks[1]));
  EXPECT_FALSE(pool.put(blocks[2]));  // full: caller frees instead
  // get_batch/take_one release capacity — the bound tracks live contents,
  // not lifetime puts (a full-then-drained pool accepts blocks again).
  void* out[2];
  EXPECT_EQ(pool.get_batch(out, 2), 2u);
  EXPECT_TRUE(pool.put(blocks[2]));
  EXPECT_NE(pool.take_one(), nullptr);
  EXPECT_TRUE(pool.put(blocks[0]));
  EXPECT_TRUE(pool.put(blocks[1]));
  EXPECT_FALSE(pool.put(blocks[2]));
  while (pool.take_one() != nullptr) {
  }
}

// ---- the acceptance property ----------------------------------------------

px::scheduler_config cfg() {
  px::scheduler_config c;
  c.num_workers = 2;
  return c;
}

constexpr int batch = 256;

// One spawn/drain cycle driven from inside task-land (worker-thread spawns
// are the pooled path; external threads legitimately hit the allocator).
// The orchestrator fans out `batch` children and spin-yields until all ran;
// no futures or latches — their shared state would allocate and hide the
// property under test.
void spawn_drain_cycle(px::runtime& rt, std::atomic<std::uint64_t>* delta) {
  std::atomic<bool> done{false};
  rt.post([&rt, &done, delta] {
    std::atomic<int> ran{0};
    std::uint64_t const before = g_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < batch; ++i) {
      rt.sched().spawn(
          [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    while (ran.load(std::memory_order_relaxed) < batch) px::this_task::yield();
    if (delta != nullptr) {
      delta->store(g_allocs.load(std::memory_order_relaxed) - before,
                   std::memory_order_relaxed);
    }
    done.store(true, std::memory_order_release);
  });
  rt.wait_quiescent();
  ASSERT_TRUE(done.load(std::memory_order_acquire));
}

// Warm-up for the task-block inventory. Blocks cached in another worker's
// local freelist (up to its cap) are invisible to the spawning worker, so a
// spawn burst of `batch` is allocation-free only once batch + cap per
// other worker blocks circulate. Plain spawn/drain cycles reach that level
// only by chance (steals decide where blocks retire); one cycle that keeps
// that many tasks alive at once reaches it for good, since the inventory
// never shrinks below it.
void grow_block_inventory(px::runtime& rt) {
  int const cap = 128;  // task_freelist's default max_cached
  int const live = batch + cap * static_cast<int>(cfg().num_workers - 1);
  std::atomic<bool> done{false};
  rt.post([&rt, &done, live] {
    std::atomic<bool> release{false};
    std::atomic<int> ran{0};
    for (int i = 0; i < live; ++i) {
      rt.sched().spawn([&release, &ran] {
        while (!release.load(std::memory_order_acquire))
          px::this_task::yield();
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    release.store(true, std::memory_order_release);
    while (ran.load(std::memory_order_relaxed) < live) px::this_task::yield();
    done.store(true, std::memory_order_release);
  });
  rt.wait_quiescent();
  ASSERT_TRUE(done.load(std::memory_order_acquire));
}

TEST(TaskPool, SteadyStateSpawnIsAllocationFree) {
  px::runtime rt(cfg());
  // Warm-up: grow the task-block inventory past the level the measured
  // cycle can need, then run ordinary cycles so the deques and the stack
  // pool reach the working-set high-water mark too.
  grow_block_inventory(rt);
  for (int round = 0; round < 4; ++round) spawn_drain_cycle(rt, nullptr);

  std::atomic<std::uint64_t> delta{~std::uint64_t{0}};
  spawn_drain_cycle(rt, &delta);
  // The measured region covers this binary's only running threads (the
  // main thread is blocked in wait_quiescent), so a zero delta means the
  // spawn path — task block, fiber, unique_function, queue links — touched
  // no allocator at all.
  EXPECT_EQ(delta.load(), 0u)
      << "steady-state spawn allocated; the task-block pool or the "
         "unique_function SBO regressed";
}

TEST(TaskPool, HitCountersVisibleInRegistry) {
  px::runtime rt(cfg());
  for (int round = 0; round < 2; ++round) spawn_drain_cycle(rt, nullptr);
  auto const stats = rt.stats();
  EXPECT_GT(stats.task_pool_hits, 0u);

  // Per-worker counters are registered under the scheduler instance.
  auto& reg = px::counters::registry::instance();
  std::string const prefix =
      "/px/scheduler{" + rt.counter_instance() + "/worker#0}/";
  std::uint64_t hits = 0;
  ASSERT_TRUE(reg.value_of(prefix + "task_pool_hits", hits));
  std::uint64_t misses = 0;
  ASSERT_TRUE(reg.value_of(prefix + "task_pool_misses", misses));
}

TEST(TaskPool, BlocksRecycleAcrossRuntimes) {
  // The scheduler destructor must return every pooled block to the
  // allocator: cycling runtimes under the guard must not leak (ASan/LSan
  // lanes catch the leak itself; here we just exercise the drain path).
  for (int i = 0; i < 3; ++i) {
    px::runtime rt(cfg());
    spawn_drain_cycle(rt, nullptr);
  }
  SUCCEED();
}

}  // namespace
