#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dicer::metrics {
namespace {

TEST(Slowdown, Basics) {
  EXPECT_DOUBLE_EQ(slowdown(1.0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(slowdown(0.8, 0.8), 1.0);
  EXPECT_THROW(slowdown(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(slowdown(1.0, 0.0), std::invalid_argument);
}

TEST(Efu, NoImpactGivesOne) {
  const std::vector<IpcPair> apps = {{1.0, 1.0}, {0.5, 0.5}, {2.0, 2.0}};
  EXPECT_DOUBLE_EQ(effective_utilisation(apps), 1.0);
}

TEST(Efu, Equation1HandExample) {
  // Two apps at half speed: EFU = 2 / (2 + 2) = 0.5.
  const std::vector<IpcPair> apps = {{1.0, 0.5}, {1.0, 0.5}};
  EXPECT_DOUBLE_EQ(effective_utilisation(apps), 0.5);
  // Mixed: one at full, one at half -> 2 / (1 + 2) = 2/3.
  const std::vector<IpcPair> mixed = {{1.0, 1.0}, {1.0, 0.5}};
  EXPECT_DOUBLE_EQ(effective_utilisation(mixed), 2.0 / 3.0);
}

TEST(Efu, HarmonicMeanPunishesStarvation) {
  // One starved app drags EFU down much harder than an arithmetic mean
  // would — the fairness property the paper picked Eq. 1 for.
  const std::vector<IpcPair> apps = {{1.0, 1.0}, {1.0, 1.0}, {1.0, 0.01}};
  EXPECT_LT(effective_utilisation(apps), 0.03 * 3);
}

TEST(Efu, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(effective_utilisation({}), 0.0);
  const std::vector<IpcPair> bad = {{1.0, 0.0}};
  EXPECT_DOUBLE_EQ(effective_utilisation(bad), 0.0);
}

TEST(Efu, BoundedByBestAndWorstRatio) {
  const std::vector<IpcPair> apps = {{1.0, 0.9}, {2.0, 1.0}, {0.5, 0.45}};
  const double efu = effective_utilisation(apps);
  EXPECT_GE(efu, 0.5);   // worst normalised IPC
  EXPECT_LE(efu, 0.9);   // best normalised IPC
}

TEST(Slo, AchievedAtBoundary) {
  EXPECT_TRUE(slo_achieved(1.0, 0.9, 0.9));
  EXPECT_FALSE(slo_achieved(1.0, 0.8999, 0.9));
  EXPECT_TRUE(slo_achieved(1.0, 1.2, 1.0));
}

TEST(Slo, Validation) {
  EXPECT_THROW(slo_achieved(0.0, 1.0, 0.9), std::invalid_argument);
  EXPECT_THROW(slo_achieved(1.0, 1.0, 1.5), std::invalid_argument);
  EXPECT_THROW(slo_achieved(1.0, 1.0, -0.1), std::invalid_argument);
}

TEST(Suci, MissedSloZeroesIndex) {
  EXPECT_DOUBLE_EQ(suci(false, 0.9, 1.0), 0.0);
}

TEST(Suci, LambdaOneIsEfu) {
  EXPECT_DOUBLE_EQ(suci(true, 0.7, 1.0), 0.7);
}

TEST(Suci, LambdaWeighting) {
  // lambda > 1 punishes low utilisation harder; < 1 is more forgiving.
  EXPECT_LT(suci(true, 0.7, 2.0), suci(true, 0.7, 1.0));
  EXPECT_GT(suci(true, 0.7, 0.5), suci(true, 0.7, 1.0));
  EXPECT_DOUBLE_EQ(suci(true, 0.49, 0.5), 0.7);
}

TEST(Suci, Validation) {
  EXPECT_THROW(suci(true, -0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(suci(true, 0.5, 0.0), std::invalid_argument);
}

TEST(Suci, FromPairsUsesHpFirstConvention) {
  // HP at 95%: meets SLO 0.9, misses 0.99.
  const std::vector<IpcPair> apps = {{1.0, 0.95}, {1.0, 0.5}};
  EXPECT_GT(suci(apps, 0.90, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(suci(apps, 0.99, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(suci({}, 0.9, 1.0), 0.0);
}

TEST(SloConformance, CountsFraction) {
  const std::vector<double> norms = {0.95, 0.85, 0.91, 0.70};
  EXPECT_DOUBLE_EQ(slo_conformance(norms, 0.90), 0.5);
  EXPECT_DOUBLE_EQ(slo_conformance(norms, 0.50), 1.0);
}

struct SuciCase {
  double efu;
  double lambda;
};

class SuciProperty : public ::testing::TestWithParam<SuciCase> {};

TEST_P(SuciProperty, StaysInUnitInterval) {
  const auto [efu, lambda] = GetParam();
  const double v = suci(true, efu, lambda);
  EXPECT_GE(v, 0.0);
  EXPECT_LE(v, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Grid, SuciProperty,
                         ::testing::Values(SuciCase{0.0, 1.0},
                                           SuciCase{0.3, 0.5},
                                           SuciCase{0.5, 2.0},
                                           SuciCase{1.0, 0.5},
                                           SuciCase{1.0, 2.0}));

}  // namespace
}  // namespace dicer::metrics
