#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace dicer::util {
namespace {

TEST(SplitMix64, DeterministicForSameSeed) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 2);
}

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, UniformInUnitInterval) {
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256, UniformRangeRespected) {
  Xoshiro256 rng(2);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(3.0, 5.5);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Xoshiro256, UniformMeanNearOneHalf) {
  Xoshiro256 rng(3);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Xoshiro256, BelowStaysBelow) {
  Xoshiro256 rng(4);
  for (std::uint64_t n : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(n), n);
  }
}

TEST(Xoshiro256, BelowCoversAllResidues) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, NormalMomentsMatch) {
  Xoshiro256 rng(6);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Xoshiro256, NormalScaledMoments) {
  Xoshiro256 rng(7);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Xoshiro256, BernoulliFrequency) {
  Xoshiro256 rng(9);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Xoshiro256, BernoulliExtremes) {
  Xoshiro256 rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Xoshiro256, SplitProducesIndependentStream) {
  Xoshiro256 parent(11);
  Xoshiro256 child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += parent.next() == child.next();
  EXPECT_LT(equal, 2);
}

class XoshiroSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XoshiroSeedSweep, ReproducibleAndWellDistributed) {
  Xoshiro256 a(GetParam()), b(GetParam());
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = a.uniform();
    EXPECT_EQ(x, b.uniform());
    sum += x;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XoshiroSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 0xD1CE5EEDull,
                                           ~0ull));

}  // namespace
}  // namespace dicer::util
