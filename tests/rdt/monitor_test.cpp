#include "rdt/monitor.hpp"

#include <gtest/gtest.h>

#include "sim/core/catalog.hpp"

namespace dicer::rdt {
namespace {

using sim::Machine;
using sim::MachineConfig;

struct MonitorFixture : ::testing::Test {
  Machine machine{MachineConfig{}};
  Capability cap = Capability::probe(machine);
  Monitor monitor{machine, cap};

  const sim::AppProfile& app(const char* name) {
    return sim::default_catalog().by_name(name);
  }
};

TEST_F(MonitorFixture, TrackUntrack) {
  EXPECT_FALSE(monitor.tracked(0));
  monitor.track(0);
  EXPECT_TRUE(monitor.tracked(0));
  monitor.track(0);  // idempotent
  monitor.untrack(0);
  EXPECT_FALSE(monitor.tracked(0));
}

TEST_F(MonitorFixture, PollUntrackedThrows) {
  EXPECT_THROW(monitor.poll(0), std::logic_error);
}

TEST_F(MonitorFixture, OutOfRangeCoreThrows) {
  EXPECT_THROW(monitor.track(10), std::out_of_range);
  EXPECT_THROW(monitor.untrack(10), std::out_of_range);
  EXPECT_THROW(monitor.tracked(10), std::out_of_range);
}

TEST_F(MonitorFixture, DeltaSemantics) {
  machine.attach(0, &app("gcc_base3"));
  monitor.track(0);
  machine.run_until(machine.quantum() + 100);
  const auto s1 = monitor.poll(0);
  EXPECT_NEAR(s1.interval_sec, 1.0, 1e-9);
  EXPECT_GT(s1.instructions, 0.0);
  EXPECT_GT(s1.ipc, 0.0);
  EXPECT_GT(s1.mbm_bytes, 0.0);
  EXPECT_NEAR(s1.mbm_bytes_per_sec, s1.mbm_bytes / s1.interval_sec, 1.0);

  // A second poll right away covers an empty interval.
  const auto s2 = monitor.poll(0);
  EXPECT_NEAR(s2.interval_sec, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(s2.instructions, 0.0);

  // And after another period the counters are deltas, not totals.
  machine.run_until(machine.quantum() + 100);
  const auto s3 = monitor.poll(0);
  EXPECT_NEAR(s3.instructions, s1.instructions, 0.2 * s1.instructions);
}

TEST_F(MonitorFixture, OccupancyIsInstantaneous) {
  machine.attach(0, &app("omnetpp1"));
  monitor.track(0);
  machine.run_until(machine.quantum() + 50);
  const auto s = monitor.poll(0);
  EXPECT_GT(s.llc_occupancy_bytes, 0.0);
  EXPECT_LE(s.llc_occupancy_bytes, 25.0 * 1024 * 1024 * 1.001);
}

TEST_F(MonitorFixture, PollAllAggregatesBandwidth) {
  machine.attach(0, &app("milc1"));
  machine.attach(1, &app("lbm1"));
  monitor.track(0);
  monitor.track(1);
  machine.run_until(machine.quantum() + 100);
  const auto all = monitor.poll_all();
  ASSERT_EQ(all.size(), 2u);
  double sum = 0.0;
  for (const auto& [core, s] : all) sum += s.mbm_bytes_per_sec;
  EXPECT_NEAR(monitor.last_total_mbm_bytes_per_sec(), sum, 1.0);
  EXPECT_GT(sum, 1e9);  // two streaming apps move real traffic
}

// poll_all() hands back one reused snapshot: each poll replaces the
// previous one instead of appending to it.
TEST_F(MonitorFixture, PollAllReplacesItsSnapshot) {
  machine.attach(0, &app("milc1"));
  monitor.track(0);
  monitor.track(1);
  machine.run_until(machine.quantum() + 50);
  const auto& first = monitor.poll_all();
  ASSERT_EQ(first.size(), 2u);
  monitor.untrack(1);
  machine.run_until(machine.quantum() + 50);
  const auto& second = monitor.poll_all();
  EXPECT_EQ(&second, &first);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].first, 0u);
  EXPECT_GT(second[0].second.ipc, 0.0);
}

TEST_F(MonitorFixture, IdleCoreReportsZeroIpc) {
  monitor.track(4);  // nothing attached
  machine.run_until(machine.quantum() + 100);
  const auto s = monitor.poll(4);
  EXPECT_DOUBLE_EQ(s.ipc, 0.0);
  EXPECT_DOUBLE_EQ(s.instructions, 0.0);
}

TEST_F(MonitorFixture, RmidExhaustion) {
  Capability small = cap;
  small.num_rmids = 2;
  Monitor tight(machine, small);
  tight.track(0);
  tight.track(1);
  EXPECT_THROW(tight.track(2), std::runtime_error);
  tight.untrack(0);
  EXPECT_NO_THROW(tight.track(2));
}

TEST(Monitor, RequiresCmtAndMbm) {
  Machine machine{MachineConfig{}};
  Capability cap = Capability::probe(machine);
  cap.cmt_supported = false;
  EXPECT_THROW(Monitor(machine, cap), std::runtime_error);
}

}  // namespace
}  // namespace dicer::rdt
