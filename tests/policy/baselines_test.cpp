#include "policy/baselines.hpp"

#include <gtest/gtest.h>

#include "policy/host.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::policy {
namespace {

struct PolicyFixture : ::testing::Test {
  Host host{HostConfig{}, sim::default_catalog().by_name("omnetpp1"),
            &sim::default_catalog().by_name("gcc_base3")};
  sim::Machine& machine = host.machine();
  rdt::CatController& cat = host.cat();
  rdt::Monitor& monitor = host.monitor();
  PolicyContext& ctx = host.context();
};

TEST_F(PolicyFixture, UnmanagedLeavesFullMasks) {
  Unmanaged um;
  um.setup(ctx);
  EXPECT_EQ(um.name(), "UM");
  for (unsigned c = 0; c < 10; ++c) {
    EXPECT_EQ(machine.fill_mask(c), sim::WayMask::full(20));
  }
  // All cores monitored.
  for (unsigned c = 0; c < 10; ++c) EXPECT_TRUE(monitor.tracked(c));
}

TEST_F(PolicyFixture, UnmanagedActIsHarmless) {
  Unmanaged um;
  um.setup(ctx);
  host.step(um);
  for (unsigned c = 0; c < 10; ++c) {
    EXPECT_EQ(machine.fill_mask(c), sim::WayMask::full(20));
  }
}

/// A policy that only keeps a given cadence.
struct Cadence : Policy {
  double interval = 1.0;
  std::string name() const override { return "cadence"; }
  void setup(PolicyContext&) override {}
  double interval_sec() const override { return interval; }
  void act(PolicyContext&) override {}
};

TEST_F(PolicyFixture, HostStepsWholeQuantaOfTheInterval) {
  // An interval becomes the nearest whole count of quanta, at least one:
  // DICER's 0.25 s settle is 25 quanta, its 1 s period 100, the static
  // baselines' 5 s 500 — and 40 settles land on 10 s exactly.
  Cadence pol;
  const std::pair<double, std::uint64_t> cases[] = {
      {0.25, 25}, {1.0, 100}, {5.0, 500}, {0.014, 1}, {0.001, 1}, {0.0, 1}};
  for (const auto& [interval, quanta] : cases) {
    pol.interval = interval;
    const std::uint64_t before = machine.quantum();
    host.step(pol);
    EXPECT_EQ(machine.quantum() - before, quanta) << interval;
  }
  pol.interval = 0.25;
  const std::uint64_t start = machine.quantum();
  for (int i = 0; i < 40; ++i) host.step(pol);
  EXPECT_EQ(machine.quantum() - start, 1000u);
  host.run_until(pol, 2000);  // the last step is cut at the target
  EXPECT_EQ(machine.quantum(), 2000u);
  EXPECT_EQ(machine.time_sec(), 20.0);
}

TEST_F(PolicyFixture, CacheTakeoverSplitsNineteenToOne) {
  CacheTakeover ct;
  ct.setup(ctx);
  EXPECT_EQ(ct.name(), "CT");
  EXPECT_EQ(machine.fill_mask(0), sim::WayMask::high(19, 20));
  for (unsigned c = 1; c < 10; ++c) {
    EXPECT_EQ(machine.fill_mask(c), sim::WayMask::low(1));
  }
}

TEST_F(PolicyFixture, CtUsesDistinctClos) {
  CacheTakeover ct;
  ct.setup(ctx);
  EXPECT_EQ(cat.clos_of(0), kHpClos);
  for (unsigned c = 1; c < 10; ++c) EXPECT_EQ(cat.clos_of(c), kBeClos);
}

TEST_F(PolicyFixture, StaticPartitionArbitrarySplit) {
  StaticPartition pol(6);
  pol.setup(ctx);
  EXPECT_EQ(pol.name(), "Static(6)");
  EXPECT_EQ(pol.hp_ways(), 6u);
  EXPECT_EQ(machine.fill_mask(0), sim::WayMask::high(6, 20));
  EXPECT_EQ(machine.fill_mask(1), sim::WayMask::low(14));
}

TEST_F(PolicyFixture, ApplySplitValidatesRange) {
  EXPECT_THROW(apply_split(ctx, 0), std::invalid_argument);
  EXPECT_THROW(apply_split(ctx, 20), std::invalid_argument);
  EXPECT_NO_THROW(apply_split(ctx, 19));
}

TEST_F(PolicyFixture, ContextRequiresWiring) {
  PolicyContext empty;
  EXPECT_THROW(associate_and_track(empty), std::invalid_argument);
}

class StaticSplitSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(StaticSplitSweep, PartitionsNeverOverlap) {
  const auto& catalog = sim::default_catalog();
  Host host({.cores_used = 4}, catalog.at(0));
  sim::Machine& machine = host.machine();
  for (unsigned c = 1; c < 4; ++c) machine.attach(c, &catalog.at(c));

  StaticPartition pol(GetParam());
  pol.setup(host.context());
  const auto hp = machine.fill_mask(0);
  const auto be = machine.fill_mask(1);
  EXPECT_FALSE(hp.overlaps(be));
  EXPECT_EQ(hp.count() + be.count(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Splits, StaticSplitSweep,
                         ::testing::Values(1u, 5u, 10u, 19u));

}  // namespace
}  // namespace dicer::policy
