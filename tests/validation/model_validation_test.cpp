// Model-level validation: the machine's emergent behaviour reproduces the
// paper's three key observations (Section 2.3) and the occupancy claims.
#include <gtest/gtest.h>

#include "harness/consolidation.hpp"
#include "harness/solo.hpp"
#include "policy/baselines.hpp"
#include "sim/core/catalog.hpp"

namespace dicer {
namespace {

using harness::ConsolidationConfig;
using harness::run_consolidation;

const sim::AppProfile& app(const char* name) {
  return sim::default_catalog().by_name(name);
}

// Key Observation 1: most applications keep (almost) solo performance
// from a fraction of the LLC.
TEST(ModelValidation, MostAppsNeedFewWays) {
  const sim::MachineConfig mc;
  std::size_t within_six = 0;
  const auto& catalog = sim::default_catalog();
  for (const auto& a : catalog.profiles()) {
    if (harness::min_ways_for_fraction(a, 0.95, mc) <= 6) ++within_six;
  }
  EXPECT_GT(within_six, catalog.size() / 2);
}

// Key Observation 2: for a bandwidth-sensitive HP, CT's squeeze of the BEs
// saturates the link and hurts the HP relative to a small static partition
// (the Fig 3 U-shape).
TEST(ModelValidation, Fig3ShapeCtWorseThanSmallPartition) {
  ConsolidationConfig cfg;
  auto hp_ipc_at = [&](unsigned ways) {
    policy::StaticPartition pol(ways);
    return run_consolidation(app("milc1"), app("gcc_base3"), pol, cfg).hp_ipc;
  };
  const double small = hp_ipc_at(2);
  const double ct = hp_ipc_at(19);
  EXPECT_GT(small, ct * 1.05);
  // And the curve degrades monotonically-ish towards CT: 12 ways sits
  // between.
  const double mid = hp_ipc_at(12);
  EXPECT_GT(small, mid);
  EXPECT_GT(mid, ct);
}

// The paper's UM observation: milc left unmanaged holds roughly a quarter
// of the LLC against nine gcc BEs (they report ~26%).
TEST(ModelValidation, UnmanagedMilcHoldsModestShare) {
  sim::Machine machine{sim::MachineConfig{}};
  machine.attach(0, &app("milc1"));
  for (unsigned c = 1; c < 10; ++c) machine.attach(c, &app("gcc_base3"));
  machine.run_until(machine.quantum() + 200);
  const double share = machine.telemetry(0).occupancy_bytes /
                       static_cast<double>(machine.config().llc.size_bytes);
  EXPECT_GT(share, 0.08);
  EXPECT_LT(share, 0.45);
}

// Key Observation 3 (Fig 4): UM gives better utilisation, CT protects the
// HP better, averaged over mixed workloads.
TEST(ModelValidation, UmUtilisationVsCtProtection) {
  ConsolidationConfig cfg;
  const struct {
    const char* hp;
    const char* be;
  } workloads[] = {{"omnetpp1", "gcc_base3"},
                   {"Xalan1", "bzip22"},
                   {"soplex1", "gcc_base7"},
                   {"mcf1", "dedup1"}};
  double um_efu_sum = 0.0, ct_efu_sum = 0.0;
  double um_hp_sum = 0.0, ct_hp_sum = 0.0;
  for (const auto& w : workloads) {
    const double hp_alone =
        harness::solo_steady_state(app(w.hp), 20, cfg.machine).ipc;
    const double be_alone =
        harness::solo_steady_state(app(w.be), 20, cfg.machine).ipc;
    policy::Unmanaged um;
    const auto um_res = run_consolidation(app(w.hp), app(w.be), um, cfg);
    policy::CacheTakeover ct;
    const auto ct_res = run_consolidation(app(w.hp), app(w.be), ct, cfg);
    um_efu_sum += metrics::effective_utilisation(
        um_res.ipc_pairs(hp_alone, be_alone));
    ct_efu_sum += metrics::effective_utilisation(
        ct_res.ipc_pairs(hp_alone, be_alone));
    um_hp_sum += um_res.hp_ipc / hp_alone;
    ct_hp_sum += ct_res.hp_ipc / hp_alone;
  }
  EXPECT_GT(um_efu_sum, ct_efu_sum);  // UM wins utilisation
  EXPECT_GT(ct_hp_sum, um_hp_sum);    // CT wins HP protection
}

// The link saturation detection point: nine streaming BEs push measured
// traffic beyond the paper's 50 Gbps threshold.
TEST(ModelValidation, StreamingBesTripSaturationThreshold) {
  sim::Machine machine{sim::MachineConfig{}};
  machine.attach(0, &app("namd1"));
  for (unsigned c = 1; c < 10; ++c) machine.attach(c, &app("lbm1"));
  machine.run_until(machine.quantum() + 100);
  EXPECT_GT(machine.last_link_traffic(), 50e9 / 8.0);
}

// ...while a compute-bound ensemble stays far below it.
TEST(ModelValidation, ComputeEnsembleStaysBelowThreshold) {
  sim::Machine machine{sim::MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) machine.attach(c, &app("povray1"));
  machine.run_until(machine.quantum() + 100);
  EXPECT_LT(machine.last_link_traffic(), 50e9 / 8.0);
}

// Squeezing BEs into one way must *increase* total memory traffic compared
// to leaving them unmanaged — the mechanism behind CT-Thwarted workloads.
TEST(ModelValidation, SqueezeMultipliesTraffic) {
  auto traffic = [&](bool squeezed) {
    sim::Machine machine{sim::MachineConfig{}};
    machine.attach(0, &app("milc1"));
    for (unsigned c = 1; c < 10; ++c) machine.attach(c, &app("gcc_base3"));
    if (squeezed) {
      machine.set_fill_mask(0, sim::WayMask::high(19, 20));
      for (unsigned c = 1; c < 10; ++c) {
        machine.set_fill_mask(c, sim::WayMask::low(1));
      }
    }
    machine.run_until(machine.quantum() + 200);
    return machine.last_link_traffic();
  };
  EXPECT_GT(traffic(true), 1.3 * traffic(false));
}

}  // namespace
}  // namespace dicer
