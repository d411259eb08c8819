#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dicer::util {
namespace {

const std::vector<double> kSimple = {1.0, 2.0, 4.0};

TEST(Stats, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean(kSimple), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, GmeanBasics) {
  EXPECT_DOUBLE_EQ(gmean(kSimple), 2.0);  // cbrt(8)
  EXPECT_DOUBLE_EQ(gmean({}), 0.0);
}

TEST(Stats, GmeanRejectsNonPositive) {
  EXPECT_DOUBLE_EQ(gmean(std::vector<double>{1.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(gmean(std::vector<double>{1.0, -2.0}), 0.0);
}

TEST(Stats, MeanInequalityChain) {
  // gmean <= mean for positive samples.
  const std::vector<double> xs = {0.3, 1.7, 2.9, 0.8, 5.5};
  EXPECT_LE(gmean(xs), mean(xs) + 1e-12);
}

TEST(Stats, MinMax) {
  EXPECT_DOUBLE_EQ(max(kSimple), 4.0);
  EXPECT_DOUBLE_EQ(max({}), 0.0);
}

TEST(Stats, PercentileEndpoints) {
  EXPECT_DOUBLE_EQ(percentile(kSimple, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(kSimple, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(kSimple, 50.0), 2.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Stats, PercentileClampsOutOfRange) {
  EXPECT_DOUBLE_EQ(percentile(kSimple, -10.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(kSimple, 200.0), 4.0);
}

TEST(Stats, MedianUnsortedInput) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{9.0, 1.0, 5.0}), 5.0);
}

TEST(Stats, CdfAtThresholds) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(cdf_at(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf_at(xs, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf_at({}, 1.0), 0.0);
}

TEST(Stats, FractionAtLeast) {
  const std::vector<double> xs = {0.7, 0.8, 0.9, 1.0};
  EXPECT_DOUBLE_EQ(fraction_at_least(xs, 0.9), 0.5);
  EXPECT_DOUBLE_EQ(fraction_at_least(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(fraction_at_least({}, 0.5), 0.0);
}

TEST(RecentWindow, KeepsOnlyRecent) {
  RecentWindow w(3);
  for (double x : {1.0, 2.0, 3.0, 4.0}) w.add(x);
  EXPECT_TRUE(w.full());
  // Window now holds {2, 3, 4}: gmean = cbrt(24).
  EXPECT_NEAR(w.gmean(), std::cbrt(24.0), 1e-12);
  EXPECT_NEAR(w.mean(), 3.0, 1e-12);
}

TEST(RecentWindow, NotFullUntilCapacity) {
  RecentWindow w(3);
  w.add(2.0);
  EXPECT_FALSE(w.full());
  EXPECT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.gmean(), 2.0);
}

TEST(RecentWindow, GmeanZeroOnNonPositive) {
  RecentWindow w(2);
  w.add(1.0);
  w.add(0.0);
  EXPECT_DOUBLE_EQ(w.gmean(), 0.0);
}

TEST(RecentWindow, ResetEmpties) {
  RecentWindow w(2);
  w.add(1.0);
  w.reset();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_DOUBLE_EQ(w.gmean(), 0.0);
}

TEST(RecentWindow, ZeroCapacityClampedToOne) {
  RecentWindow w(0);
  w.add(3.0);
  w.add(5.0);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
}

// Paper Eq. 2 usage pattern: geometric mean of last three bandwidths.
TEST(RecentWindow, PhaseDetectorUsage) {
  RecentWindow w(3);
  for (double bw : {4.0e9, 5.0e9, 6.0e9}) w.add(bw);
  const double ref = w.gmean();
  EXPECT_GT(8.0e9, 1.3 * ref);   // 8 GB/s would trip a 30% threshold
  EXPECT_LT(6.0e9, 1.3 * ref);   // 6 GB/s would not
}

class CdfProperty : public ::testing::TestWithParam<int> {};

TEST_P(CdfProperty, MonotoneNondecreasing) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(std::fmod(static_cast<double>(i * GetParam() % 97), 13.0));
  }
  double prev = -1.0;
  for (double t = 0.0; t <= 13.0; t += 0.5) {
    const double c = cdf_at(xs, t);
    EXPECT_GE(c, prev);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

INSTANTIATE_TEST_SUITE_P(Shuffles, CdfProperty, ::testing::Values(3, 7, 11, 29));

}  // namespace
}  // namespace dicer::util
