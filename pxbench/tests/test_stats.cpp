// Unit tests of the benchmark's statistics: nearest-rank percentiles and
// their exact ranks, pooling across segments, failed requests as +inf, and
// span self time.
#include <gtest/gtest.h>

#include <limits>

#include "../src/harness.hpp"

using pxbench::percentile;

TEST(Percentile, NearestRankOnSmallSets) {
  std::vector<double> const v{5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0.5), 3.0);
  EXPECT_EQ(percentile(v, 0.99), 5.0);
  EXPECT_EQ(percentile(v, 0.2), 1.0);   // ceil(0.2*5)=1 -> smallest
  EXPECT_EQ(percentile(v, 0.21), 2.0);  // ceil(1.05)=2
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
}

TEST(Percentile, P99OfAThousandHasTenSamplesAbove) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 0.99), 990.0);
  EXPECT_EQ(percentile(v, 0.50), 500.0);
}

TEST(Percentile, FailedRequestsCountAsOverAnyLimit) {
  double const inf = std::numeric_limits<double>::infinity();
  std::vector<double> v(98, 1.0);
  v.push_back(inf);
  v.push_back(inf);
  EXPECT_EQ(percentile(v, 0.98), 1.0);
  EXPECT_EQ(percentile(v, 0.99), inf);
}

TEST(Percentile, PooledSegmentsWeighInBySampleCount) {
  std::vector<double> pooled(90, 1.0);  // a fast segment
  std::vector<double> const slow(10, 9.0);  // a short slow one
  pooled.insert(pooled.end(), slow.begin(), slow.end());
  ASSERT_EQ(pooled.size(), 100u);
  EXPECT_EQ(percentile(pooled, 0.50), 1.0);
  EXPECT_EQ(percentile(pooled, 0.90), 1.0);
  EXPECT_EQ(percentile(pooled, 0.91), 9.0);
  EXPECT_EQ(percentile(pooled, 0.99), 9.0);
  EXPECT_DOUBLE_EQ(pxbench::mean(pooled), (90.0 + 90.0) / 100.0);
}

TEST(SpanLog, SelfTimeSubtractsTheUnionOfChildren) {
  pxbench::span_log log(true);
  auto const root = log.add("op", 0, 10'000'000);     // 10 ms
  log.add("a", 1'000'000, 4'000'000, root);           // 3 ms
  log.add("b", 3'000'000, 6'000'000, root);           // overlaps a by 1 ms
  log.add("c", 9'000'000, 12'000'000, root);          // 1 ms inside root
  auto const rows = log.layer_table();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "op");
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_DOUBLE_EQ(rows[0].sum_ms, 10.0);
  EXPECT_DOUBLE_EQ(rows[0].self_ms, 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(rows[1].self_ms, 3.0);
}

TEST(SpanLog, DisabledLogRecordsNothing) {
  pxbench::span_log log(false);
  EXPECT_EQ(log.add("op", 0, 1), 0u);
  { pxbench::scoped_span s(log, "x"); }
  EXPECT_TRUE(log.spans().empty());
}
