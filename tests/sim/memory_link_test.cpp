#include "sim/mem/memory_link.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dicer::sim {
namespace {

/// An arbitration together with the per-requester rates it wrote.
struct Arbitrated : LinkArbitration {
  std::vector<double> achieved_bytes_per_sec;
};

Arbitrated arbitrate(const MemoryLink& link,
                     const std::vector<double>& demand) {
  Arbitrated arb;
  arb.achieved_bytes_per_sec.resize(demand.size());
  link.arbitrate_into(demand, arb.achieved_bytes_per_sec, arb);
  return arb;
}

TEST(MemoryLink, DefaultsMatchPaperTable1) {
  MemoryLink link;
  EXPECT_NEAR(link.config().capacity_bytes_per_sec * 8.0 / 1e9, 68.3, 1e-9);
}

TEST(MemoryLink, ValidationRejectsBadConfig) {
  MemoryLinkConfig c;
  c.capacity_bytes_per_sec = 0.0;
  EXPECT_THROW(MemoryLink{c}, std::invalid_argument);
  c = MemoryLinkConfig{};
  c.base_latency_cycles = -1.0;
  EXPECT_THROW(MemoryLink{c}, std::invalid_argument);
  c = MemoryLinkConfig{};
  c.congestion_exponent = 0.0;
  EXPECT_THROW(MemoryLink{c}, std::invalid_argument);
  c = MemoryLinkConfig{};
  c.congestion_linear = -0.1;
  EXPECT_THROW(MemoryLink{c}, std::invalid_argument);
}

TEST(MemoryLink, LatencyAtZeroIsBase) {
  MemoryLink link;
  EXPECT_DOUBLE_EQ(link.latency_at(0.0), link.config().base_latency_cycles);
}

TEST(MemoryLink, LatencyMonotoneInUtilisation) {
  MemoryLink link;
  double prev = 0.0;
  for (double rho = 0.0; rho <= 2.0; rho += 0.05) {
    const double lat = link.latency_at(rho);
    EXPECT_GE(lat, prev);
    prev = lat;
  }
}

TEST(MemoryLink, KneeIsSharpNearSaturation) {
  // The rise from 70% to 100% utilisation dwarfs the rise from 0% to 70% —
  // that's what makes the paper's 50 Gbps threshold a sensible trip point.
  MemoryLink link;
  const double low_rise = link.latency_at(0.7) - link.latency_at(0.0);
  const double high_rise = link.latency_at(1.0) - link.latency_at(0.7);
  EXPECT_GT(high_rise, low_rise);
}

TEST(MemoryLink, OversubscriptionStretchesLinearly) {
  MemoryLink link;
  const double at1 = link.latency_at(1.0);
  EXPECT_NEAR(link.latency_at(2.0), 2.0 * at1, 1e-9);
  EXPECT_NEAR(link.latency_at(3.0), 3.0 * at1, 1e-9);
}

TEST(MemoryLink, LatencySlopeMatchesCentralDifferences) {
  // Below saturation the knee polynomial's slope, above it the
  // oversubscription stretch's.
  MemoryLink link;
  for (const double rho : {0.05, 0.3, 0.73, 0.93, 0.999, 1.2, 3.0}) {
    const double h = 1e-7;
    const double fd =
        (link.latency_at(rho + h) - link.latency_at(rho - h)) / (2.0 * h);
    EXPECT_NEAR(link.latency_slope_at(rho), fd, 1e-6 * fd) << "rho " << rho;
  }
}

TEST(MemoryLink, ArbitrationUnderCapacity) {
  MemoryLink link;
  const std::vector<double> demand = {1e9, 2e9};
  const auto arb = arbitrate(link, demand);
  EXPECT_DOUBLE_EQ(arb.throttle, 1.0);
  EXPECT_DOUBLE_EQ(arb.achieved_bytes_per_sec[0], 1e9);
  EXPECT_DOUBLE_EQ(arb.achieved_bytes_per_sec[1], 2e9);
  EXPECT_NEAR(arb.raw_utilisation, 3e9 / link.config().capacity_bytes_per_sec,
              1e-12);
}

TEST(MemoryLink, ArbitrationOverCapacityThrottlesProportionally) {
  MemoryLinkConfig c;
  c.capacity_bytes_per_sec = 10e9;
  MemoryLink link(c);
  const std::vector<double> demand = {15e9, 5e9};
  const auto arb = arbitrate(link, demand);
  EXPECT_DOUBLE_EQ(arb.raw_utilisation, 2.0);
  EXPECT_DOUBLE_EQ(arb.throttle, 0.5);
  EXPECT_DOUBLE_EQ(arb.achieved_bytes_per_sec[0], 7.5e9);
  EXPECT_DOUBLE_EQ(arb.achieved_bytes_per_sec[1], 2.5e9);
  // Achieved traffic never exceeds capacity.
  EXPECT_NEAR(arb.achieved_bytes_per_sec[0] + arb.achieved_bytes_per_sec[1],
              10e9, 1.0);
}

TEST(MemoryLink, ArbitrationEmptyDemand) {
  MemoryLink link;
  const auto arb = arbitrate(link, {});
  EXPECT_DOUBLE_EQ(arb.utilisation, 0.0);
  EXPECT_TRUE(arb.achieved_bytes_per_sec.empty());
  EXPECT_DOUBLE_EQ(arb.total_achieved_bytes_per_sec, 0.0);
}

TEST(MemoryLink, TotalAchievedMatchesOrderedSum) {
  // The machine's telemetry uses the pre-accumulated total; it must equal
  // the per-requester vector summed in requester order, bit for bit.
  MemoryLinkConfig c;
  c.capacity_bytes_per_sec = 10e9;
  MemoryLink link(c);
  const std::vector<double> demand = {7.3e9, 1.1e9, 5.77e9, 0.0, 2.9e9};
  const auto arb = arbitrate(link, demand);
  double sum = 0.0;
  for (double a : arb.achieved_bytes_per_sec) sum += a;
  EXPECT_EQ(arb.total_achieved_bytes_per_sec, sum);
}

TEST(MemoryLink, NegativeDemandThrows) {
  MemoryLink link;
  EXPECT_THROW(arbitrate(link, {-1.0}), std::invalid_argument);
}

TEST(MemoryLink, OneAchievedRatePerDemand) {
  MemoryLink link;
  const std::vector<double> demand = {1e9, 2e9};
  std::vector<double> achieved(1);
  LinkArbitration arb;
  EXPECT_THROW(link.arbitrate_into(demand, achieved, arb),
               std::invalid_argument);
}

TEST(MemoryLink, UtilisationClampedAtOne) {
  MemoryLinkConfig c;
  c.capacity_bytes_per_sec = 1e9;
  MemoryLink link(c);
  const auto arb = arbitrate(link, {5e9});
  EXPECT_DOUBLE_EQ(arb.utilisation, 1.0);
  EXPECT_DOUBLE_EQ(arb.raw_utilisation, 5.0);
}

class LinkConservation : public ::testing::TestWithParam<double> {};

TEST_P(LinkConservation, AchievedNeverExceedsCapacity) {
  MemoryLinkConfig c;
  c.capacity_bytes_per_sec = 8.5e9;
  MemoryLink link(c);
  const double scale = GetParam();
  const std::vector<double> demand = {1e9 * scale, 2e9 * scale, 0.0,
                                      0.5e9 * scale};
  const auto arb = arbitrate(link, demand);
  double achieved = 0.0;
  for (double a : arb.achieved_bytes_per_sec) achieved += a;
  EXPECT_LE(achieved, c.capacity_bytes_per_sec * 1.0001);
  for (std::size_t i = 0; i < demand.size(); ++i) {
    EXPECT_LE(arb.achieved_bytes_per_sec[i], demand[i] + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(DemandScales, LinkConservation,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 20.0));

}  // namespace
}  // namespace dicer::sim
