// Tests for parallel scans (inclusive/exclusive) against their sequential
// counterparts, including non-commutative operations and size sweeps.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "px/px.hpp"
#include "px/support/random.hpp"

namespace {

struct NumericTest : ::testing::Test {
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 4;
    return c;
  }()};
};

class ScanSizes : public NumericTest,
                  public ::testing::WithParamInterface<std::size_t> {};

TEST_P(ScanSizes, InclusiveScanMatchesSequential) {
  std::size_t const n = GetParam();
  std::vector<long> in(n);
  for (std::size_t i = 0; i < n; ++i)
    in[i] = static_cast<long>((i * 7 + 3) % 23);
  std::vector<long> expect(n), got(n);
  px::parallel::inclusive_scan(px::execution::seq, in.begin(), in.end(),
                               expect.begin(), 0L, std::plus<>{});
  px::sync_wait(rt, [&] {
    px::parallel::inclusive_scan(px::execution::par, in.begin(), in.end(),
                                 got.begin(), 0L, std::plus<>{});
    return 0;
  });
  EXPECT_EQ(got, expect);
}

TEST_P(ScanSizes, ExclusiveScanMatchesSequential) {
  std::size_t const n = GetParam();
  std::vector<long> in(n, 2);
  std::vector<long> expect(n), got(n);
  px::parallel::exclusive_scan(px::execution::seq, in.begin(), in.end(),
                               expect.begin(), 100L, std::plus<>{});
  px::sync_wait(rt, [&] {
    px::parallel::exclusive_scan(px::execution::par, in.begin(), in.end(),
                                 got.begin(), 100L, std::plus<>{});
    return 0;
  });
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(1, 2, 3, 17, 64, 100, 1000,
                                           10000));

TEST_F(NumericTest, InclusiveScanEmptyRange) {
  std::vector<int> in, out;
  px::sync_wait(rt, [&] {
    px::parallel::inclusive_scan(px::execution::par, in.begin(), in.end(),
                                 out.begin(), 0, std::plus<>{});
    return 0;
  });
  SUCCEED();
}

TEST_F(NumericTest, InclusiveScanNonCommutativeOp) {
  // String concatenation is associative but not commutative: the scan must
  // preserve order.
  std::vector<std::string> in{"a", "b", "c", "d", "e", "f", "g", "h",
                              "i", "j", "k", "l", "m", "n", "o", "p"};
  std::vector<std::string> expect(in.size()), got(in.size());
  px::parallel::inclusive_scan(px::execution::seq, in.begin(), in.end(),
                               expect.begin(), std::string{},
                               std::plus<>{});
  px::sync_wait(rt, [&] {
    px::parallel::inclusive_scan(px::execution::par.with(3), in.begin(),
                                 in.end(), got.begin(), std::string{},
                                 std::plus<>{});
    return 0;
  });
  EXPECT_EQ(got, expect);
  EXPECT_EQ(got.back(), "abcdefghijklmnop");
}

TEST_F(NumericTest, InclusiveScanWithInit) {
  std::vector<int> in{1, 2, 3};
  std::vector<int> got(3);
  px::sync_wait(rt, [&] {
    px::parallel::inclusive_scan(px::execution::par, in.begin(), in.end(),
                                 got.begin(), 10, std::plus<>{});
    return 0;
  });
  EXPECT_EQ(got, (std::vector<int>{11, 13, 16}));
}

TEST_F(NumericTest, ExclusiveScanFirstElementIsInit) {
  std::vector<int> in{5, 6, 7};
  std::vector<int> got(3);
  px::sync_wait(rt, [&] {
    px::parallel::exclusive_scan(px::execution::par, in.begin(), in.end(),
                                 got.begin(), 1, std::plus<>{});
    return 0;
  });
  EXPECT_EQ(got, (std::vector<int>{1, 6, 12}));
}

// Regression: with T = bool the scans' per-chunk totals (and
// exclusive_scan's old scratch row) were std::vector<bool>, whose
// neighbouring bits share a word that concurrent chunks raced on.
// Oversubscribed workers make the chunks write together. The explicit
// grain keeps 128 chunk tasks (8 per worker): under plain `par` a scan
// this cheap runs inline on the caller.
TEST(ScanRace, BoolScansMatchSequential) {
  px::scheduler_config c;
  c.num_workers = 16;
  px::runtime rt(c);
  std::vector<int> in(4096);
  px::xoshiro256ss rng(5);
  for (auto& x : in) x = rng.below(2) != 0 ? 1 : 0;
  auto const parity = [](bool a, bool b) { return a != b; };
  std::vector<int> inc_expect(in.size()), exc_expect(in.size());
  std::inclusive_scan(in.begin(), in.end(), inc_expect.begin(), parity,
                      false);
  std::exclusive_scan(in.begin(), in.end(), exc_expect.begin(), true,
                      parity);
  int const rounds = 200;
  int const wrong = px::sync_wait(rt, [&] {
    int w = 0;
    std::vector<int> got(in.size());
    for (int r = 0; r < rounds; ++r) {
      px::parallel::inclusive_scan(px::execution::par.with(32), in.begin(),
                                   in.end(), got.begin(), false, parity);
      w += got != inc_expect;
      px::parallel::exclusive_scan(px::execution::par.with(32), in.begin(),
                                   in.end(), got.begin(), true, parity);
      w += got != exc_expect;
    }
    return w;
  });
  EXPECT_EQ(wrong, 0) << "of " << 2 * rounds << " scans";
}

TEST_F(NumericTest, ScanInPlace) {
  // Output aliasing the input is allowed (each pass reads before writing
  // within its own index).
  std::vector<long> v(5000, 1);
  px::sync_wait(rt, [&] {
    px::parallel::inclusive_scan(px::execution::par, v.begin(), v.end(),
                                 v.begin(), 0L, std::plus<>{});
    return 0;
  });
  for (std::size_t i = 0; i < v.size(); ++i)
    ASSERT_EQ(v[i], static_cast<long>(i + 1));
}

}  // namespace
