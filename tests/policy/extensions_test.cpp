#include "policy/extensions.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "policy/factory.hpp"
#include "policy/host.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::policy {
namespace {

struct ExtFixture : ::testing::Test {
  std::optional<Host> host;

  void wire(const char* hp, const char* be, bool with_mba = true) {
    const auto& catalog = sim::default_catalog();
    host.emplace(HostConfig{.enable_mba = with_mba}, catalog.by_name(hp),
                 &catalog.by_name(be));
  }
  sim::Machine& machine() { return host->machine(); }
  PolicyContext& ctx() { return host->context(); }

  void drive(Policy& pol, double seconds) {
    const double t_end = machine().time_sec() + seconds;
    while (machine().time_sec() < t_end) host->step(pol);
  }
};

TEST_F(ExtFixture, NoBwNeverSamples) {
  // Even with the link saturated by nine lbm BEs, the DCP-QoS-style
  // variant must never enter the sampling path.
  wire("milc1", "lbm1");
  DicerNoBw pol;
  pol.setup(ctx());
  drive(pol, 15.0);
  EXPECT_EQ(pol.stats().samplings, 0u);
  EXPECT_TRUE(pol.ct_favoured());
  EXPECT_EQ(pol.name(), "DICER-noBW");
}

TEST_F(ExtFixture, MbaRequiresController) {
  wire("milc1", "lbm1", /*with_mba=*/false);
  DicerMba pol;
  EXPECT_THROW(pol.setup(ctx()), std::invalid_argument);
}

TEST_F(ExtFixture, MbaThrottlesBesUnderSaturation) {
  wire("milc1", "lbm1");
  DicerMba pol;
  pol.setup(ctx());
  EXPECT_EQ(pol.be_throttle_pct(), 100u);
  drive(pol, 10.0);
  EXPECT_LT(pol.be_throttle_pct(), 100u);
  // The throttle reached the machine through the MBA CLOS plumbing.
  EXPECT_LT(machine().mem_throttle(1), 1.0);
  EXPECT_DOUBLE_EQ(machine().mem_throttle(0), 1.0);  // HP never throttled
}

TEST_F(ExtFixture, MbaReleasesWhenQuiet) {
  wire("povray1", "namd1");  // almost no memory traffic
  DicerMba pol;
  pol.setup(ctx());
  drive(pol, 6.0);
  EXPECT_EQ(pol.be_throttle_pct(), 100u);
}

TEST_F(ExtFixture, MbaRespectsFloor) {
  wire("lbm1", "lbm1");  // hopelessly saturated
  DicerMbaConfig cfg;
  cfg.min_throttle_pct = 30;
  DicerMba pol(cfg);
  pol.setup(ctx());
  drive(pol, 30.0);
  EXPECT_GE(pol.be_throttle_pct(), 30u);
}

TEST_F(ExtFixture, MbaConfigValidation) {
  DicerMbaConfig cfg;
  cfg.release_fraction = 0.0;
  EXPECT_THROW(DicerMba{cfg}, std::invalid_argument);
  cfg.release_fraction = 1.0;
  EXPECT_THROW(DicerMba{cfg}, std::invalid_argument);
}

TEST(PolicyFactory, KnownNames) {
  EXPECT_EQ(make_policy("UM")->name(), "UM");
  EXPECT_EQ(make_policy("CT")->name(), "CT");
  EXPECT_EQ(make_policy("DICER")->name(), "DICER");
  EXPECT_EQ(make_policy("DICER-noBW")->name(), "DICER-noBW");
  EXPECT_EQ(make_policy("DICER+MBA")->name(), "DICER+MBA");
  EXPECT_EQ(make_policy("Static(7)")->name(), "Static(7)");
}

TEST(PolicyFactory, RejectsUnknownOrMalformed) {
  EXPECT_THROW(make_policy("HAL9000"), std::invalid_argument);
  EXPECT_THROW(make_policy("DICER+ADM"), std::invalid_argument);
  EXPECT_THROW(make_policy("Static(0)"), std::invalid_argument);
  EXPECT_THROW(make_policy("Static(x)"), std::invalid_argument);
}

}  // namespace
}  // namespace dicer::policy
