// Cross-cutting coverage: cases the per-module suites leave out — explicit
// scheduler targets for continuations, deep stacks, SIMD comparison masks,
// policy/executor combinations on the numeric algorithms, cross-locality
// concurrent traffic, and fabric accounting arithmetic.
#include <gtest/gtest.h>

#include <numeric>

#include "px/dist/distributed_domain.hpp"
#include "px/px.hpp"
#include "px/simd/simd.hpp"

namespace {

long chain_self(px::dist::locality& here, int depth) {
  if (depth == 0) return 1;
  return 1 + here.call<&chain_self>(here.id(), depth - 1).get();
}

std::vector<double> scale_vec(std::vector<double> v, double f) {
  for (auto& x : v) x *= f;
  return v;
}

}  // namespace

PX_REGISTER_ACTION(chain_self)
PX_REGISTER_ACTION(scale_vec)

namespace {

px::scheduler_config wcfg(std::size_t w) {
  px::scheduler_config c;
  c.num_workers = w;
  return c;
}

// ---- futures: explicit scheduler targets -----------------------------------

TEST(CoverageFutures, ThenOnExplicitSchedulerFromExternalThread) {
  px::runtime rt(wcfg(2));
  auto f = px::async_on(rt, [] { return 20; });
  // then() needs an ambient worker; then_on works from anywhere.
  auto g = f.then_on(rt.sched(), [](px::future<int> x) {
    return x.get() * 2 + 2;
  });
  EXPECT_EQ(g.get(), 42);
}

TEST(CoverageFutures, DataflowOnExplicitScheduler) {
  px::runtime a(wcfg(2)), b(wcfg(2));
  // Inputs produced on runtime a, combined on runtime b.
  auto x = px::async_on(a, [] { return 30; });
  auto y = px::async_on(a, [] { return 12; });
  auto sum = px::dataflow_on(
      b.sched(),
      [](px::future<int> p, px::future<int> q) { return p.get() + q.get(); },
      std::move(x), std::move(y));
  EXPECT_EQ(sum.get(), 42);
}

TEST(CoverageFutures, SharedFutureWaitFromExternalThread) {
  px::runtime rt(wcfg(2));
  px::promise<int> p;
  px::shared_future<int> sf = p.get_future().share();
  std::thread setter([&p] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    p.set_value(9);
  });
  sf.wait();
  EXPECT_EQ(sf.get(), 9);
  setter.join();
}

// ---- scheduler: stack size config ------------------------------------------

TEST(CoverageScheduler, LargeStacksSupportDeepRecursion) {
  px::scheduler_config c;
  c.num_workers = 1;
  c.stack_size = 1024 * 1024;  // 1 MiB
  px::runtime rt(c);
  // ~600 KiB of live stack across the recursion; would overflow the
  // default 128 KiB stacks.
  std::function<long(int)> deep = [&](int n) -> long {
    volatile char pad[4096];
    pad[0] = static_cast<char>(n);
    if (n == 0) return pad[0];
    return deep(n - 1) + 1;
  };
  long r = px::sync_wait(rt, [&] { return deep(150); });
  EXPECT_EQ(r, 150);
}

// ---- SIMD: comparison masks -------------------------------------------------

TEST(CoverageSimd, ComparisonMasksAreAllOnesOrZero) {
  using pk = px::simd::pack<float, 4>;
  pk a(1.0f), b(1.0f), c(2.0f);
  auto eq = cmp_eq(a, b);
  auto lt = cmp_lt(a, c);
  auto le = cmp_le(c, a);
  for (std::size_t l = 0; l < 4; ++l) {
    EXPECT_EQ(eq[l], -1);  // all-ones lane
    EXPECT_EQ(lt[l], -1);
    EXPECT_EQ(le[l], 0);
  }
}

TEST(CoverageSimd, SelectWithMixedMask) {
  using pk = px::simd::pack<double, 4>;
  pk a, b;
  for (std::size_t l = 0; l < 4; ++l) {
    a.set(l, static_cast<double>(l));
    b.set(l, 10.0 + static_cast<double>(l));
  }
  auto m = cmp_lt(a, pk(2.0));  // lanes 0,1 true
  auto sel = px::simd::select(m, a, b);
  EXPECT_DOUBLE_EQ(sel[0], 0.0);
  EXPECT_DOUBLE_EQ(sel[1], 1.0);
  EXPECT_DOUBLE_EQ(sel[2], 12.0);
  EXPECT_DOUBLE_EQ(sel[3], 13.0);
}

TEST(CoverageSimd, UnaryNegation) {
  using pk = px::simd::pack<double, 2>;
  pk a;
  a.set(0, 3.0);
  a.set(1, -4.0);
  auto n = -a;
  EXPECT_DOUBLE_EQ(n[0], -3.0);
  EXPECT_DOUBLE_EQ(n[1], 4.0);
}

// ---- numeric algorithms on executors ----------------------------------------

TEST(CoverageParallel, ScanOnBlockExecutor) {
  px::runtime rt(wcfg(3));
  px::block_executor ex(rt.sched());
  std::vector<long> v(5000, 1), out(5000);
  px::sync_wait(rt, [&] {
    px::parallel::inclusive_scan(px::execution::par.on(ex), v.begin(),
                                 v.end(), out.begin(), 0L, std::plus<>{});
    return 0;
  });
  for (std::size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], static_cast<long>(i + 1));
}

TEST(CoverageParallel, SortOnLimitingExecutor) {
  px::runtime rt(wcfg(4));
  px::limiting_executor ex(rt.sched(), 2);
  std::vector<int> v(30000);
  px::xoshiro256ss rng(4);
  for (auto& x : v) x = static_cast<int>(rng.below(1u << 24));
  px::sync_wait(rt, [&] {
    px::parallel::sort(px::execution::par.on(ex), v.begin(), v.end());
    return 0;
  });
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
}

TEST(CoverageParallel, ReduceEmptyRangeReturnsInit) {
  px::runtime rt(wcfg(2));
  std::vector<int> v;
  int r = px::sync_wait(rt, [&] {
    return px::parallel::reduce(px::execution::par, v.begin(), v.end(), 7,
                                std::plus<>{});
  });
  EXPECT_EQ(r, 7);
}

TEST(CoverageParallel, TransformReduceEmptyRange) {
  px::runtime rt(wcfg(2));
  std::vector<int> v;
  double r = px::sync_wait(rt, [&] {
    return px::parallel::transform_reduce(px::execution::par, v.begin(),
                                          v.end(), 1.5, std::plus<>{},
                                          [](int x) { return double(x); });
  });
  EXPECT_DOUBLE_EQ(r, 1.5);
}

// ---- distributed: concurrent cross traffic ----------------------------------

TEST(CoverageDist, ConcurrentCallsFromEveryLocality) {
  px::dist::domain_config cfg;
  cfg.num_localities = 4;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0005;
  px::dist::distributed_domain dom(cfg);

  double total = dom.run([&](px::dist::locality&) {
    // Every locality simultaneously bombards every other with work.
    std::vector<px::future<double>> roots;
    for (std::size_t src = 0; src < dom.size(); ++src) {
      auto& from = dom.at(src);
      roots.push_back(px::async_on(from.rt(), [&from, &dom] {
        double acc = 0;
        std::vector<px::future<std::vector<double>>> futs;
        for (std::size_t dst = 0; dst < dom.size(); ++dst)
          futs.push_back(from.call<&scale_vec>(
              static_cast<std::uint32_t>(dst),
              std::vector<double>{1, 2, 3}, 2.0));
        for (auto& f : futs) {
          auto v = f.get();
          acc += std::accumulate(v.begin(), v.end(), 0.0);
        }
        return acc;
      }));
    }
    double sum = 0;
    for (auto& f : roots) sum += f.get();
    return sum;
  });
  // 16 calls x sum(2,4,6) = 16 x 12.
  EXPECT_DOUBLE_EQ(total, 192.0);
}

TEST(CoverageDist, DeepSelfCallChain) {
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  px::dist::distributed_domain dom(cfg);
  long depth = dom.run([](px::dist::locality& loc0) {
    return loc0.call<&chain_self>(1, 40).get();
  });
  EXPECT_EQ(depth, 41);
}

TEST(CoverageDist, FabricBytesScaleWithTraffic) {
  auto run_steps = [](std::size_t reps) {
    px::dist::domain_config cfg;
    cfg.num_localities = 2;
    cfg.locality_cfg.num_workers = 1;
    cfg.injection_scale = 0.0;
    px::dist::distributed_domain dom(cfg);
    dom.run([&](px::dist::locality& loc0) {
      for (std::size_t i = 0; i < reps; ++i)
        loc0.call<&scale_vec>(1, std::vector<double>(64, 1.0), 1.0).get();
      return 0;
    });
    dom.wait_all_quiescent();
    return dom.fabric().counters().bytes.load();
  };
  auto const b1 = run_steps(5);
  auto const b2 = run_steps(10);
  EXPECT_NEAR(static_cast<double>(b2) / static_cast<double>(b1), 2.0,
              0.05);
}

// ---- env: config integration -----------------------------------------------

TEST(CoverageEnv, StackSizeFromEnvIsApplied) {
  ::setenv("PX_WORKERS", "1", 1);
  ::setenv("PX_STACK_SIZE", "1048576", 1);
  px::runtime rt(px::scheduler_config::from_env());
  ::unsetenv("PX_WORKERS");
  ::unsetenv("PX_STACK_SIZE");
  EXPECT_EQ(rt.sched().config().stack_size, 1048576u);
  EXPECT_EQ(rt.sched().stacks().stack_size(), 1048576u);
}

}  // namespace
