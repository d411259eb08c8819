#include "harness/solo.hpp"

#include <gtest/gtest.h>

#include "sim/core/catalog.hpp"
#include "support/solo_oracle.hpp"

namespace dicer::harness {
namespace {

const sim::AppProfile& app(const char* name) {
  return sim::default_catalog().by_name(name);
}

TEST(SoloSteadyState, ValidatesWayCount) {
  const sim::MachineConfig mc;
  EXPECT_THROW(solo_steady_state(app("namd1"), 0, mc), std::invalid_argument);
  EXPECT_THROW(solo_steady_state(app("namd1"), 21, mc), std::invalid_argument);
}

TEST(SoloSteadyState, MoreCacheNeverHurtsAlone) {
  const sim::MachineConfig mc;
  for (const char* name : {"gcc_base3", "mcf1", "namd1", "milc1", "Xalan1"}) {
    double prev = 0.0;
    for (unsigned w = 1; w <= 20; ++w) {
      const double ipc = solo_steady_state(app(name), w, mc).ipc;
      EXPECT_GE(ipc, prev * 0.999) << name << " at " << w << " ways";
      prev = ipc;
    }
  }
}

TEST(SoloSteadyState, CacheSensitiveAppGainsFromWays) {
  const sim::MachineConfig mc;
  const double one = solo_steady_state(app("omnetpp1"), 1, mc).ipc;
  const double twenty = solo_steady_state(app("omnetpp1"), 20, mc).ipc;
  EXPECT_GT(twenty, 1.3 * one);
}

TEST(SoloSteadyState, StreamingAppIndifferentToWays) {
  const sim::MachineConfig mc;
  const double two = solo_steady_state(app("lbm1"), 2, mc).ipc;
  const double twenty = solo_steady_state(app("lbm1"), 20, mc).ipc;
  EXPECT_LT(twenty / two, 1.10);
}

TEST(SoloSteadyState, TimeMatchesInstructionsOverIps) {
  const sim::MachineConfig mc;
  const auto& a = app("povray1");
  const auto res = solo_steady_state(a, 20, mc);
  EXPECT_NEAR(res.time_sec,
              a.total_instructions() / (res.ipc * mc.freq_hz), 1e-6);
}

TEST(SoloSteadyState, BandwidthWithinLink) {
  const sim::MachineConfig mc;
  for (const char* name : {"lbm1", "libquantum1", "milc1"}) {
    const auto res = solo_steady_state(app(name), 20, mc);
    EXPECT_LE(res.mem_bw_bytes_per_sec,
              mc.link.capacity_bytes_per_sec * 1.0001) << name;
    EXPECT_GT(res.mem_bw_bytes_per_sec, 0.0) << name;
  }
}

TEST(MinWaysForFraction, ValidatesFraction) {
  const sim::MachineConfig mc;
  EXPECT_THROW(min_ways_for_fraction(app("namd1"), 0.0, mc),
               std::invalid_argument);
  EXPECT_THROW(min_ways_for_fraction(app("namd1"), 1.5, mc),
               std::invalid_argument);
}

TEST(MinWaysForFraction, MonotoneInFraction) {
  const sim::MachineConfig mc;
  for (const char* name : {"gcc_base3", "omnetpp1", "namd1"}) {
    const unsigned w90 = min_ways_for_fraction(app(name), 0.90, mc);
    const unsigned w95 = min_ways_for_fraction(app(name), 0.95, mc);
    const unsigned w99 = min_ways_for_fraction(app(name), 0.99, mc);
    EXPECT_LE(w90, w95) << name;
    EXPECT_LE(w95, w99) << name;
  }
}

TEST(MinWaysForFraction, FullFractionAlwaysReachable) {
  const sim::MachineConfig mc;
  EXPECT_LE(min_ways_for_fraction(app("mcf1"), 1.0, mc), 20u);
}

// The steady-state fast path agrees with the quantum-stepped machine —
// the cross-validation that justifies using the fast path everywhere.
class SteadyStateAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(SteadyStateAgreement, MatchesSimulatedMachine) {
  sim::MachineConfig mc;
  mc.quantum_sec = 0.05;
  const auto& a = app(GetParam());
  const auto fast = solo_steady_state(a, 20, mc);
  const auto slow = test::solo_simulated(a, 20, mc);
  EXPECT_NEAR(fast.ipc, slow.ipc, 0.03 * slow.ipc) << GetParam();
  EXPECT_NEAR(fast.time_sec, slow.time_sec, 0.05 * slow.time_sec + mc.quantum_sec)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Apps, SteadyStateAgreement,
                         ::testing::Values("gcc_base3", "milc1", "namd1",
                                           "mcf1", "lbm1", "GemsFDTD1",
                                           "canneal1"));

}  // namespace
}  // namespace dicer::harness
