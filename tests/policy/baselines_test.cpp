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
