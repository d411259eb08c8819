#include "policy/dicer.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "policy/host.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::policy {
namespace {

// Drives a live consolidation under DICER through the policy host, the way
// the harness does.
struct DicerFixture : ::testing::Test {
  std::optional<Host> host;

  void wire(const char* hp, const char* be, unsigned cores = 10) {
    const auto& catalog = sim::default_catalog();
    host.emplace(HostConfig{.cores_used = cores}, catalog.by_name(hp),
                 &catalog.by_name(be));
  }
  sim::Machine& machine() { return host->machine(); }
  PolicyContext& ctx() { return host->context(); }

  void drive(Dicer& dicer, double seconds) {
    const double t_end = machine().time_sec() + seconds;
    while (machine().time_sec() < t_end) host->step(dicer);
  }
};

TEST_F(DicerFixture, ConfigValidation) {
  DicerConfig c;
  c.period_sec = 0.0;
  EXPECT_THROW(Dicer{c}, std::invalid_argument);
  c = DicerConfig{};
  c.alpha = 0.0;
  EXPECT_THROW(Dicer{c}, std::invalid_argument);
  c = DicerConfig{};
  c.alpha = 1.0;
  EXPECT_THROW(Dicer{c}, std::invalid_argument);
  c = DicerConfig{};
  c.phase_threshold = 0.0;
  EXPECT_THROW(Dicer{c}, std::invalid_argument);
  c = DicerConfig{};
  c.sample_stride = 0;
  EXPECT_THROW(Dicer{c}, std::invalid_argument);
  c = DicerConfig{};
  c.min_hp_ways = 0;
  EXPECT_THROW(Dicer{c}, std::invalid_argument);
}

TEST_F(DicerFixture, PaperDefaults) {
  Dicer dicer;
  EXPECT_EQ(dicer.name(), "DICER");
  EXPECT_DOUBLE_EQ(dicer.config().period_sec, 1.0);
  EXPECT_NEAR(dicer.config().membw_threshold_bytes_per_sec * 8.0 / 1e9, 50.0,
              1e-9);
  EXPECT_DOUBLE_EQ(dicer.config().phase_threshold, 0.30);
  EXPECT_DOUBLE_EQ(dicer.config().alpha, 0.05);
}

TEST_F(DicerFixture, StartsLikeCacheTakeover) {
  wire("omnetpp1", "gcc_base3");
  Dicer dicer;
  dicer.setup(ctx());
  EXPECT_EQ(dicer.hp_ways(), 19u);
  EXPECT_TRUE(dicer.ct_favoured());
  EXPECT_EQ(machine().fill_mask(0), sim::WayMask::high(19, 20));
  EXPECT_EQ(machine().fill_mask(1), sim::WayMask::low(1));
}

TEST_F(DicerFixture, IntervalIsMonitoringPeriodInSteadyState) {
  wire("omnetpp1", "gcc_base3");
  Dicer dicer;
  dicer.setup(ctx());
  EXPECT_DOUBLE_EQ(dicer.interval_sec(), 1.0);
}

TEST_F(DicerFixture, DonatesWaysWhileStable) {
  // omnetpp vs compute-light BEs: no saturation, stable IPC -> DICER keeps
  // shrinking HP's partition and donating to the BEs (Listing 2).
  wire("omnetpp1", "namd1");
  Dicer dicer;
  dicer.setup(ctx());
  drive(dicer, 8.0);
  EXPECT_LT(dicer.hp_ways(), 19u);
  EXPECT_GT(dicer.stats().way_donations, 0u);
  EXPECT_TRUE(dicer.ct_favoured());
  EXPECT_EQ(dicer.stats().samplings, 0u);
  // BEs received the donated ways.
  EXPECT_EQ(machine().fill_mask(1),
            sim::WayMask::low(20 - dicer.hp_ways()));
}

TEST_F(DicerFixture, SamplesWhenLinkSaturates) {
  // Nine lbm BEs saturate the link far beyond 50 Gbps: first monitoring
  // period must reclassify the workload CT-Thwarted and sample.
  wire("milc1", "lbm1");
  Dicer dicer;
  dicer.setup(ctx());
  drive(dicer, 10.0);
  EXPECT_FALSE(dicer.ct_favoured());
  EXPECT_GE(dicer.stats().samplings, 1u);
  EXPECT_GT(dicer.stats().sampling_steps, 0u);
}

TEST_F(DicerFixture, SamplingPicksLargeAllocationForCacheHungryHp) {
  // Force the sampling path (threshold ~ 0) on a workload where the HP
  // demonstrably wants cache: the argmax must land on a fat allocation.
  DicerConfig cfg;
  cfg.membw_threshold_bytes_per_sec = 1.0;
  cfg.resample_cooldown_periods = 1000;  // sample exactly once
  wire("omnetpp1", "gcc_base3");
  Dicer dicer(cfg);
  dicer.setup(ctx());
  drive(dicer, 10.0);
  EXPECT_FALSE(dicer.ct_favoured());
  EXPECT_GE(dicer.stats().samplings, 1u);
  EXPECT_GE(dicer.hp_ways(), 11u);
}

TEST_F(DicerFixture, SamplingPicksSmallAllocationForStreamingHp) {
  // ...and for a phase-stable streaming HP (bwaves) that gains nothing
  // beyond its small working set while its gcc neighbours convert extra
  // cache into less traffic, the argmax must land on a lean allocation.
  // (milc would also work qualitatively, but its warm->solver phase
  // transition can fall inside the sampling window and bias the argmax —
  // a real limitation of IPC-based sampling the paper does not address.)
  DicerConfig cfg;
  cfg.membw_threshold_bytes_per_sec = 3e9;  // bwaves+9gcc trips this at CT
  cfg.resample_cooldown_periods = 1000;
  wire("bwaves1", "gcc_base3");
  Dicer dicer(cfg);
  dicer.setup(ctx());
  drive(dicer, 10.0);
  EXPECT_FALSE(dicer.ct_favoured());
  EXPECT_GE(dicer.stats().samplings, 1u);
  EXPECT_LE(dicer.hp_ways(), 9u);
}

TEST_F(DicerFixture, SamplingIntervalUsedDuringSampling) {
  DicerConfig cfg;
  cfg.membw_threshold_bytes_per_sec = 1.0;  // any traffic saturates
  wire("milc1", "lbm1");
  Dicer dicer(cfg);
  dicer.setup(ctx());
  host->step(dicer);  // warmup period: saturation detected, sampling starts
  EXPECT_DOUBLE_EQ(dicer.interval_sec(), dicer.config().sample_interval_sec);
}

TEST_F(DicerFixture, SamplingPlanRespectsMinimumWays) {
  DicerConfig cfg;
  cfg.min_hp_ways = 3;
  wire("milc1", "lbm1");
  Dicer dicer(cfg);
  dicer.setup(ctx());
  drive(dicer, 12.0);
  EXPECT_GE(dicer.hp_ways(), 3u);
}

TEST_F(DicerFixture, PhaseChangeTriggersReset) {
  // GemsFDTD has a quiet setup phase followed by bandwidth-hungry solver
  // phases: the Eq. 2 detector must fire at least once across restarts.
  wire("GemsFDTD1", "namd1");
  Dicer dicer;
  dicer.setup(ctx());
  drive(dicer, 60.0);
  EXPECT_GT(dicer.stats().phase_resets, 0u);
}

TEST_F(DicerFixture, StatsPeriodsCounted) {
  wire("omnetpp1", "namd1");
  Dicer dicer;
  dicer.setup(ctx());
  drive(dicer, 5.0);
  EXPECT_GE(dicer.stats().periods, 5u);
}

TEST_F(DicerFixture, NeverViolatesPartitionInvariants) {
  wire("mcf1", "gcc_base5");
  Dicer dicer;
  dicer.setup(ctx());
  for (int i = 0; i < 40; ++i) {
    host->step(dicer);
    const auto hp = machine().fill_mask(0);
    const auto be = machine().fill_mask(1);
    EXPECT_FALSE(hp.overlaps(be));
    EXPECT_TRUE(hp.contiguous());
    EXPECT_TRUE(be.contiguous());
    EXPECT_EQ(hp.count() + be.count(), 20u);
    EXPECT_GE(hp.count(), dicer.config().min_hp_ways);
    EXPECT_GE(be.count(), dicer.config().min_be_ways);
  }
}

TEST_F(DicerFixture, ResampleCooldownLimitsSamplingRate) {
  // Permanently saturated workload: the literal listing resamples every
  // period; the cooldown caps that.
  wire("lbm1", "lbm1");
  DicerConfig with_cooldown;
  with_cooldown.resample_cooldown_periods = 5;
  Dicer dicer(with_cooldown);
  dicer.setup(ctx());
  drive(dicer, 20.0);
  const auto sampled = dicer.stats().samplings;
  EXPECT_GE(sampled, 1u);
  EXPECT_LE(sampled, 6u);
}

TEST_F(DicerFixture, LiteralListingResamplesMore) {
  auto run_variant = [&](unsigned cooldown) {
    wire("lbm1", "lbm1");
    DicerConfig cfg;
    cfg.resample_cooldown_periods = cooldown;
    Dicer d(cfg);
    d.setup(ctx());
    while (machine().time_sec() < 20.0) host->step(d);
    return d.stats().samplings;
  };
  EXPECT_GT(run_variant(0), run_variant(5));
}

TEST_F(DicerFixture, MinWaysExceedingCacheRejectedAtSetup) {
  DicerConfig cfg;
  cfg.min_hp_ways = 15;
  cfg.min_be_ways = 10;
  wire("omnetpp1", "namd1");
  Dicer dicer(cfg);
  EXPECT_THROW(dicer.setup(ctx()), std::invalid_argument);
}

class DicerCoreSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DicerCoreSweep, RunsCleanlyAtAnyCoreCount) {
  const auto& catalog = sim::default_catalog();
  Host host({.cores_used = GetParam()}, catalog.by_name("soplex1"),
            &catalog.by_name("bzip22"));
  Dicer dicer;
  dicer.setup(host.context());
  for (int i = 0; i < 10; ++i) host.step(dicer);
  EXPECT_GE(dicer.hp_ways(), 1u);
  EXPECT_LE(dicer.hp_ways(), 19u);
}

INSTANTIATE_TEST_SUITE_P(Cores, DicerCoreSweep,
                         ::testing::Values(2u, 3u, 5u, 7u, 10u));

}  // namespace
}  // namespace dicer::policy
