// Tests of the benchmark's own statistics: the percentile rule and the
// failed_share count.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "perfbench/stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Mean, AveragesAndIsZeroWhenEmpty) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(TailPercentile, PicksHighestRungWithTenSamplesBeyond) {
  const Tail t100 = tail_percentile(one_to(100));
  EXPECT_TRUE(t100.qualified);
  EXPECT_DOUBLE_EQ(t100.pct, 90.0);
  EXPECT_DOUBLE_EQ(t100.value, 90.0);
  EXPECT_EQ(t100.beyond, 10u);
  EXPECT_EQ(t100.samples, 100u);

  const Tail t1000 = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t1000.pct, 99.0);
  EXPECT_DOUBLE_EQ(t1000.value, 990.0);

  const Tail t10000 = tail_percentile(one_to(10000));
  EXPECT_DOUBLE_EQ(t10000.pct, 99.9);
  EXPECT_DOUBLE_EQ(t10000.value, 9990.0);
}

TEST(TailPercentile, JustBelowARungFallsToTheNextOne) {
  // 99 samples leave only 9 beyond p90, so the rule drops to p50.
  const Tail t = tail_percentile(one_to(99));
  EXPECT_TRUE(t.qualified);
  EXPECT_DOUBLE_EQ(t.pct, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 50.0);
  EXPECT_EQ(t.beyond, 49u);
}

TEST(TailPercentile, TooFewSamplesIsUnqualifiedMedian) {
  const Tail t = tail_percentile(one_to(19));
  EXPECT_FALSE(t.qualified);
  EXPECT_DOUBLE_EQ(t.pct, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_EQ(t.beyond, 9u);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(100);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_percentile(v).value, 90.0);
}

TEST(Checks, CountsFailedShare) {
  Checks checks;
  EXPECT_FALSE(checks.correct());  // nothing checked is not correct
  EXPECT_DOUBLE_EQ(checks.failed_share(), 0.0);
  EXPECT_TRUE(checks.expect(true, "a"));
  EXPECT_TRUE(checks.expect(true, "b"));
  EXPECT_TRUE(checks.correct());
  EXPECT_FALSE(checks.expect(false, "c"));
  EXPECT_TRUE(checks.expect(true, "d"));
  EXPECT_EQ(checks.attempted(), 4u);
  EXPECT_EQ(checks.failed(), 1u);
  EXPECT_DOUBLE_EQ(checks.failed_share(), 0.25);
  EXPECT_FALSE(checks.correct());
  ASSERT_EQ(checks.failures().size(), 1u);
  EXPECT_EQ(checks.failures()[0], "c");
}

TEST(Checks, KeepsOnlyTheFirstFailureDescriptions) {
  Checks checks;
  for (int i = 0; i < 20; ++i) checks.expect(false, std::to_string(i));
  EXPECT_EQ(checks.failed(), 20u);
  EXPECT_EQ(checks.failures().size(), 8u);
  EXPECT_EQ(checks.failures().front(), "0");
}

}  // namespace
}  // namespace perfbench
