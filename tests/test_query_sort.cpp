// Tests for the parallel query algorithms and parallel sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <vector>

#include "px/px.hpp"
#include "px/support/random.hpp"

namespace {

struct QuerySortTest : ::testing::Test {
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 4;
    return c;
  }()};
};

TEST_F(QuerySortTest, CountAndCountIf) {
  std::vector<int> v(10000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i % 7);
  auto [threes, evens] = px::sync_wait(rt, [&] {
    return std::make_pair(
        px::parallel::count(px::execution::par, v.begin(), v.end(), 3),
        px::parallel::count_if(px::execution::par, v.begin(), v.end(),
                               [](int x) { return x % 2 == 0; }));
  });
  EXPECT_EQ(threes, static_cast<std::size_t>(
                        std::count(v.begin(), v.end(), 3)));
  EXPECT_EQ(evens, static_cast<std::size_t>(std::count_if(
                       v.begin(), v.end(),
                       [](int x) { return x % 2 == 0; })));
}

TEST_F(QuerySortTest, AllAnyNone) {
  std::vector<int> v(5000, 2);
  auto r = px::sync_wait(rt, [&] {
    bool const all_even = px::parallel::all_of(
        px::execution::par, v.begin(), v.end(),
        [](int x) { return x % 2 == 0; });
    v[4999] = 3;
    bool const any_odd = px::parallel::any_of(
        px::execution::par, v.begin(), v.end(),
        [](int x) { return x % 2 == 1; });
    bool const none_big = px::parallel::none_of(
        px::execution::par, v.begin(), v.end(), [](int x) { return x > 5; });
    return std::make_tuple(all_even, any_odd, none_big);
  });
  EXPECT_TRUE(std::get<0>(r));
  EXPECT_TRUE(std::get<1>(r));
  EXPECT_TRUE(std::get<2>(r));
}

// Regression: transform_reduce kept its per-chunk partials in a
// std::vector<T>, which for T = bool packs neighbouring chunks' partials
// into one word. Chunks finishing together then raced on that word and an
// any_of could lose its only `true`. Oversubscribed workers (8 on a
// 4-CPU host) make chunks finish together; the race is rare per call, so
// the stress runs for at least a second and 2000 calls. The explicit grain
// keeps 64 chunk tasks (8 per worker) writing their slots concurrently:
// under plain `par` this cheap a call runs inline on the caller.
TEST(QueryRace, AnyOfNeverLosesALoneMatch) {
  px::scheduler_config c;
  c.num_workers = 8;
  px::runtime rt(c);
  std::vector<int> v(4096, 0);
  v[2048] = 1;
  auto const [calls, missed] = px::sync_wait(rt, [&] {
    auto const until =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    int n = 0, m = 0;
    for (; n < 2000 || std::chrono::steady_clock::now() < until; ++n)
      m += !px::parallel::any_of(px::execution::par.with(64), v.begin(),
                                 v.end(), [](int x) { return x == 1; });
    return std::make_pair(n, m);
  });
  EXPECT_EQ(missed, 0) << "of " << calls << " calls";
}

TEST_F(QuerySortTest, MinMaxElement) {
  std::vector<int> v(9999);
  px::xoshiro256ss rng(17);
  for (auto& x : v) x = static_cast<int>(rng.below(1000000));
  v[1234] = -5;
  v[7777] = 2000000;
  auto [mn, mx] = px::sync_wait(rt, [&] {
    auto mn_it =
        px::parallel::min_element(px::execution::par, v.begin(), v.end());
    auto mx_it =
        px::parallel::max_element(px::execution::par, v.begin(), v.end());
    return std::make_pair(mn_it - v.begin(), mx_it - v.begin());
  });
  EXPECT_EQ(mn, 1234);
  EXPECT_EQ(mx, 7777);
}

TEST_F(QuerySortTest, FindIfReturnsFirstMatch) {
  std::vector<int> v(20000, 0);
  v[13777] = 1;
  v[19999] = 1;
  auto idx = px::sync_wait(rt, [&] {
    return px::parallel::find_if(px::execution::par, v.begin(), v.end(),
                                 [](int x) { return x == 1; }) -
           v.begin();
  });
  EXPECT_EQ(idx, 13777);
}

TEST_F(QuerySortTest, FindIfNoMatchReturnsEnd) {
  std::vector<int> v(5000, 0);
  bool at_end = px::sync_wait(rt, [&] {
    return px::parallel::find_if(px::execution::par, v.begin(), v.end(),
                                 [](int x) { return x == 9; }) == v.end();
  });
  EXPECT_TRUE(at_end);
}

TEST_F(QuerySortTest, FindValue) {
  std::vector<int> v(10000);
  std::iota(v.begin(), v.end(), 0);
  auto idx = px::sync_wait(rt, [&] {
    return px::parallel::find(px::execution::par, v.begin(), v.end(),
                              4242) -
           v.begin();
  });
  EXPECT_EQ(idx, 4242);
}

TEST_F(QuerySortTest, FindIfEmptyRange) {
  std::vector<int> v;
  bool at_end = px::sync_wait(rt, [&] {
    return px::parallel::find_if(px::execution::par, v.begin(), v.end(),
                                 [](int) { return true; }) == v.end();
  });
  EXPECT_TRUE(at_end);
}

TEST_F(QuerySortTest, MinElementTieBreaksToFirst) {
  std::vector<int> v(1000, 7);
  auto idx = px::sync_wait(rt, [&] {
    return px::parallel::min_element(px::execution::par, v.begin(),
                                     v.end()) -
           v.begin();
  });
  EXPECT_EQ(idx, 0);
}

class SortSizes : public QuerySortTest,
                  public ::testing::WithParamInterface<std::size_t> {};

TEST_P(SortSizes, SortsRandomData) {
  std::size_t const n = GetParam();
  std::vector<std::uint64_t> v(n);
  px::xoshiro256ss rng(n);
  for (auto& x : v) x = rng();
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  px::sync_wait(rt, [&] {
    px::parallel::sort(px::execution::par, v.begin(), v.end());
    return 0;
  });
  EXPECT_EQ(v, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SortSizes,
                         ::testing::Values(0, 1, 2, 100, 1023, 4096, 50000,
                                           100001));

TEST_F(QuerySortTest, SortWithComparator) {
  std::vector<int> v(20000);
  px::xoshiro256ss rng(3);
  for (auto& x : v) x = static_cast<int>(rng.below(1 << 20));
  px::sync_wait(rt, [&] {
    px::parallel::sort(px::execution::par, v.begin(), v.end(),
                       std::greater<>{});
    return px::parallel::is_sorted(px::execution::par, v.begin(), v.end(),
                                   std::greater<>{});
  });
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<>{}));
}

TEST_F(QuerySortTest, SortAlreadySorted) {
  std::vector<int> v(30000);
  std::iota(v.begin(), v.end(), 0);
  auto expect = v;
  px::sync_wait(rt, [&] {
    px::parallel::sort(px::execution::par, v.begin(), v.end());
    return 0;
  });
  EXPECT_EQ(v, expect);
}

TEST_F(QuerySortTest, IsSortedDetectsViolation) {
  std::vector<int> v(10000);
  std::iota(v.begin(), v.end(), 0);
  bool sorted_before = false, sorted_after = true;
  px::sync_wait(rt, [&] {
    sorted_before =
        px::parallel::is_sorted(px::execution::par, v.begin(), v.end());
    v[5000] = -1;
    sorted_after =
        px::parallel::is_sorted(px::execution::par, v.begin(), v.end());
    return 0;
  });
  EXPECT_TRUE(sorted_before);
  EXPECT_FALSE(sorted_after);
}

TEST_F(QuerySortTest, SortDuplicateHeavyData) {
  std::vector<int> v(60000);
  px::xoshiro256ss rng(9);
  for (auto& x : v) x = static_cast<int>(rng.below(16));
  auto expect = v;
  std::sort(expect.begin(), expect.end());
  px::sync_wait(rt, [&] {
    px::parallel::sort(px::execution::par, v.begin(), v.end());
    return 0;
  });
  EXPECT_EQ(v, expect);
}

}  // namespace
