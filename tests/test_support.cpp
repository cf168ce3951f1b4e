// Tests for px/support: aligned allocation, math helpers, RNG, env parsing,
// unique_function, spinlock, timer, topology.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "px/support/affinity.hpp"
#include "px/support/aligned.hpp"
#include "px/support/env.hpp"
#include "px/support/math.hpp"
#include "px/support/random.hpp"
#include "px/support/spin.hpp"
#include "px/support/timer.hpp"
#include "px/support/topology.hpp"
#include "px/support/unique_function.hpp"

namespace {

TEST(Aligned, RawAllocationRespectsAlignment) {
  for (std::size_t align : {8u, 16u, 64u, 256u, 4096u}) {
    void* p = px::aligned_alloc_bytes(100, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "alignment " << align;
    px::aligned_free(p);
  }
}

TEST(Aligned, ZeroBytesStillReturnsUsablePointer) {
  void* p = px::aligned_alloc_bytes(0, 64);
  ASSERT_NE(p, nullptr);
  px::aligned_free(p);
}

TEST(Aligned, AllocatorWorksWithVector) {
  std::vector<double, px::aligned_allocator<double, 64>> v(1000, 1.5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  EXPECT_DOUBLE_EQ(v[999], 1.5);
}

TEST(Aligned, AllocatorEquality) {
  px::aligned_allocator<int, 64> a, b;
  EXPECT_TRUE(a == b);
}

TEST(Aligned, RebindPreservesUsableAlignment) {
  using A = px::aligned_allocator<char, 8>;
  using B = A::rebind<double>::other;
  static_assert(B::alignment >= alignof(double));
  SUCCEED();
}

TEST(Math, DivCeil) {
  EXPECT_EQ(px::div_ceil(10, 3), 4);
  EXPECT_EQ(px::div_ceil(9, 3), 3);
  EXPECT_EQ(px::div_ceil(1, 5), 1);
  EXPECT_EQ(px::div_ceil(0, 5), 0);
}

TEST(Math, RoundUpDown) {
  EXPECT_EQ(px::round_up(13, 8), 16);
  EXPECT_EQ(px::round_up(16, 8), 16);
  EXPECT_EQ(px::round_down(13, 8), 8);
  EXPECT_EQ(px::round_down(16, 8), 16);
}

TEST(Math, PowerOfTwo) {
  EXPECT_TRUE(px::is_power_of_two(1));
  EXPECT_TRUE(px::is_power_of_two(64));
  EXPECT_FALSE(px::is_power_of_two(0));
  EXPECT_FALSE(px::is_power_of_two(48));
  EXPECT_EQ(px::floor_pow2(1), 1u);
  EXPECT_EQ(px::floor_pow2(63), 32u);
  EXPECT_EQ(px::floor_pow2(64), 64u);
}

TEST(Random, DeterministicForSeed) {
  px::xoshiro256ss a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Random, DifferentSeedsDiffer) {
  px::xoshiro256ss a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Random, BelowIsInRange) {
  px::xoshiro256ss rng(7);
  for (int i = 0; i < 10000; ++i) {
    auto v = rng.below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Random, BelowCoversRange) {
  px::xoshiro256ss rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, UniformInUnitInterval) {
  px::xoshiro256ss rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Env, ParsesSizes) {
  ::setenv("PX_TEST_SIZE", "12345", 1);
  EXPECT_EQ(px::env_size("PX_TEST_SIZE"), 12345u);
  ::setenv("PX_TEST_SIZE", "junk", 1);
  EXPECT_FALSE(px::env_size("PX_TEST_SIZE").has_value());
  ::unsetenv("PX_TEST_SIZE");
  EXPECT_FALSE(px::env_size("PX_TEST_SIZE").has_value());
}

TEST(Env, ParsesU64InAnyBase) {
  ::setenv("PX_TEST_U64", "0xdeadbeefcafe", 1);
  EXPECT_EQ(px::env_u64("PX_TEST_U64"), 0xdeadbeefcafeull);
  ::setenv("PX_TEST_U64", "12345", 1);
  EXPECT_EQ(px::env_u64("PX_TEST_U64"), 12345u);
  ::setenv("PX_TEST_U64", "0x", 1);
  EXPECT_FALSE(px::env_u64("PX_TEST_U64").has_value());
  ::unsetenv("PX_TEST_U64");
  EXPECT_FALSE(px::env_u64("PX_TEST_U64").has_value());
}

TEST(Env, RejectsTrailingGarbage) {
  // "123abc" silently parsing as 123 is exactly the trap the strict
  // end-pointer check exists to close: a typo'd knob must fall back to the
  // documented default (nullopt here), not to a half-parsed value.
  ::setenv("PX_TEST_TRAIL", "123abc", 1);
  EXPECT_FALSE(px::env_size("PX_TEST_TRAIL").has_value());
  EXPECT_FALSE(px::env_u64("PX_TEST_TRAIL").has_value());
  ::setenv("PX_TEST_TRAIL", "64k", 1);
  EXPECT_FALSE(px::env_size("PX_TEST_TRAIL").has_value());
  ::setenv("PX_TEST_TRAIL", "12 ", 1);  // even trailing whitespace
  EXPECT_FALSE(px::env_u64("PX_TEST_TRAIL").has_value());
  // Exact parses still succeed.
  ::setenv("PX_TEST_TRAIL", "123", 1);
  EXPECT_EQ(px::env_size("PX_TEST_TRAIL"), 123u);
  ::unsetenv("PX_TEST_TRAIL");
}

TEST(Env, ParsesBools) {
  ::setenv("PX_TEST_BOOL", "yes", 1);
  EXPECT_EQ(px::env_bool("PX_TEST_BOOL"), true);
  ::setenv("PX_TEST_BOOL", "OFF", 1);
  EXPECT_EQ(px::env_bool("PX_TEST_BOOL"), false);
  ::setenv("PX_TEST_BOOL", "maybe", 1);
  EXPECT_FALSE(px::env_bool("PX_TEST_BOOL").has_value());
  ::unsetenv("PX_TEST_BOOL");
}

TEST(UniqueFunction, SmallCallableNoAlloc) {
  int x = 5;
  px::unique_function<int()> f([x] { return x + 1; });
  EXPECT_EQ(f(), 6);
}

TEST(UniqueFunction, LargeCallableHeap) {
  std::array<char, 256> big{};
  big[0] = 'a';
  px::unique_function<char()> f([big] { return big[0]; });
  EXPECT_EQ(f(), 'a');
}

TEST(UniqueFunction, MoveOnlyCapture) {
  auto p = std::make_unique<int>(42);
  px::unique_function<int()> f([p = std::move(p)] { return *p; });
  EXPECT_EQ(f(), 42);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  px::unique_function<int()> f([] { return 7; });
  px::unique_function<int()> g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(static_cast<bool>(g));
  EXPECT_EQ(g(), 7);
  f = std::move(g);
  EXPECT_EQ(f(), 7);
}

TEST(UniqueFunction, ArgumentsForwarded) {
  px::unique_function<int(int, int)> f([](int a, int b) { return a * b; });
  EXPECT_EQ(f(6, 7), 42);
}

TEST(UniqueFunction, DestructorRunsForCapturedState) {
  auto counter = std::make_shared<int>(0);
  {
    px::unique_function<void()> f([counter] {});
    EXPECT_EQ(counter.use_count(), 2);
  }
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(Spinlock, MutualExclusion) {
  px::spinlock lock;
  long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        std::lock_guard<px::spinlock> guard(lock);
        ++counter;
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 80000);
}

TEST(Spinlock, TryLock) {
  px::spinlock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

TEST(Timer, MeasuresElapsedTime) {
  px::high_resolution_timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double const e = t.elapsed();
  EXPECT_GE(e, 0.015);
  EXPECT_LT(e, 5.0);
  t.restart();
  EXPECT_LT(t.elapsed(), 0.015);
}

TEST(Topology, DetectsSomethingSane) {
  auto const& topo = px::host_topology();
  EXPECT_GE(topo.logical_cpus, 1u);
  EXPECT_GE(topo.physical_cores, 1u);
  EXPECT_LE(topo.physical_cores, topo.logical_cpus);
  EXPECT_GE(topo.numa_domains, 1u);
  EXPECT_EQ(topo.numa_of.size(), topo.logical_cpus);
  EXPECT_FALSE(topo.physical_pus.empty());
}

TEST(Affinity, PinToCore0Succeeds) {
  // CPU 0 always exists; restricted containers may refuse, so only check
  // the call does not crash and returns a bool.
  bool ok = px::pin_this_thread(0);
  (void)ok;
  SUCCEED();
}

TEST(Backoff, EventuallyYields) {
  px::backoff bo;
  EXPECT_FALSE(bo.yielding());
  for (int i = 0; i < 10; ++i) bo.pause();
  EXPECT_TRUE(bo.yielding());
  bo.reset();
  EXPECT_FALSE(bo.yielding());
}

}  // namespace
