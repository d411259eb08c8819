#include "policy/admission.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "policy/factory.hpp"
#include "policy/host.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::policy {
namespace {

struct AdmFixture : ::testing::Test {
  std::optional<Host> host;

  void wire(const char* hp, const char* be) {
    const auto& catalog = sim::default_catalog();
    host.emplace(HostConfig{}, catalog.by_name(hp), &catalog.by_name(be));
  }
  sim::Machine& machine() { return host->machine(); }
  PolicyContext& ctx() { return host->context(); }

  void drive(Dicer& pol, double seconds) {
    const double t_end = machine().time_sec() + seconds;
    while (machine().time_sec() < t_end) host->step(pol);
  }
};

TEST_F(AdmFixture, ConfigValidation) {
  AdmissionConfig cfg;
  cfg.park_after_saturated_periods = 0;
  EXPECT_THROW(DicerAdmission{cfg}, std::invalid_argument);
  cfg = AdmissionConfig{};
  cfg.readmit_fraction = 1.0;
  EXPECT_THROW(DicerAdmission{cfg}, std::invalid_argument);
}

TEST_F(AdmFixture, FactoryKnowsIt) {
  EXPECT_EQ(make_policy("DICER+ADM")->name(), "DICER+ADM");
}

TEST_F(AdmFixture, StartsWithAllBesRunning) {
  wire("namd1", "gcc_base3");
  DicerAdmission pol;
  pol.setup(ctx());
  EXPECT_EQ(pol.running_bes(), 9u);
  EXPECT_EQ(pol.parked_bes(), 0u);
}

TEST_F(AdmFixture, NeverParksOnQuietWorkload) {
  wire("omnetpp1", "namd1");
  DicerAdmission pol;
  pol.setup(ctx());
  drive(pol, 15.0);
  EXPECT_EQ(pol.parks(), 0u);
  EXPECT_EQ(pol.running_bes(), 9u);
}

TEST_F(AdmFixture, ParksBesUnderHopelessSaturation) {
  // Nine lbm BEs keep the link saturated at every allocation: cache
  // partitioning cannot help, so admission control must shed load.
  wire("milc1", "lbm1");
  DicerAdmission pol;
  pol.setup(ctx());
  drive(pol, 40.0);
  EXPECT_GT(pol.parks(), 0u);
  EXPECT_LT(pol.running_bes(), 9u);
  // Parked cores are genuinely descheduled.
  EXPECT_FALSE(machine().occupied(9));
}

TEST_F(AdmFixture, ParkingImprovesHpOverPlainDicer) {
  auto hp_ipc_with = [&](bool admission) {
    wire("milc1", "lbm1");
    std::unique_ptr<Dicer> pol;
    if (admission) pol = std::make_unique<DicerAdmission>();
    else pol = std::make_unique<Dicer>();
    pol->setup(ctx());
    while (machine().time_sec() < 50.0) host->step(*pol);
    const auto& hp = machine().telemetry(0);
    return hp.instructions / hp.active_cycles;
  };
  EXPECT_GT(hp_ipc_with(true), 1.1 * hp_ipc_with(false));
}

TEST_F(AdmFixture, RespectsMinimumRunningBes) {
  AdmissionConfig cfg;
  cfg.min_running_bes = 7;
  wire("milc1", "lbm1");
  DicerAdmission pol(cfg);
  pol.setup(ctx());
  drive(pol, 60.0);
  EXPECT_GE(pol.running_bes(), 7u);
}

TEST_F(AdmFixture, ReadmitsWhenLoadLightens) {
  // Force quick parking, then verify the quiet-streak path re-admits: use
  // a BE whose phases alternate between heavy and light demand... the
  // catalog's GemsFDTD (quiet setup, loud solver) gives the machine-level
  // variation; with aggressive thresholds the policy must both park and
  // readmit at least once over a long window.
  AdmissionConfig cfg;
  cfg.park_after_saturated_periods = 2;
  cfg.readmit_after_quiet_periods = 2;
  cfg.readmit_fraction = 0.9;
  wire("namd1", "GemsFDTD1");
  DicerAdmission pol(cfg);
  pol.setup(ctx());
  drive(pol, 90.0);
  if (pol.parks() > 0) {
    EXPECT_GT(pol.readmissions(), 0u);
  }
}

}  // namespace
}  // namespace dicer::policy
