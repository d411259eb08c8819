#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sim/core/catalog.hpp"

namespace dicer::sim {
namespace {

const AppProfile& app(const char* name) {
  return default_catalog().by_name(name);
}

TEST(Machine, ValidatesConfig) {
  MachineConfig c;
  c.num_cores = 0;
  EXPECT_THROW(Machine{c}, std::invalid_argument);
  c = MachineConfig{};
  c.quantum_sec = 0.0;
  EXPECT_THROW(Machine{c}, std::invalid_argument);
  c = MachineConfig{};
  c.freq_hz = -1.0;
  EXPECT_THROW(Machine{c}, std::invalid_argument);
  c = MachineConfig{};
  c.llc.ways = 0;
  EXPECT_THROW(Machine{c}, std::invalid_argument);
}

TEST(Machine, AttachDetachLifecycle) {
  Machine m{MachineConfig{}};
  EXPECT_FALSE(m.occupied(0));
  m.attach(0, &app("namd1"));
  EXPECT_TRUE(m.occupied(0));
  EXPECT_THROW(m.attach(0, &app("namd1")), std::logic_error);
  m.detach(0);
  EXPECT_FALSE(m.occupied(0));
  m.detach(0);  // idempotent
  EXPECT_THROW(m.attach(10, &app("namd1")), std::out_of_range);
}

TEST(Machine, DetachResetsActuatorState) {
  // Regression: detach used to leave the departing tenant's fill mask and
  // MBA throttle in place, so the next attach on the core silently
  // inherited the previous tenant's partition.
  Machine m{MachineConfig{}};
  m.attach(3, &app("omnetpp1"));
  m.set_fill_mask(3, WayMask::low(2));
  m.set_mem_throttle(3, 0.25);
  m.detach(3);
  EXPECT_EQ(m.fill_mask(3), WayMask::full(m.num_ways()));
  EXPECT_DOUBLE_EQ(m.mem_throttle(3), 1.0);

  // A new tenant on the reclaimed core runs unthrottled on the full LLC:
  // byte-identical to attaching it to a never-used machine.
  auto run = [](Machine& machine) {
    machine.attach(3, &app("milc1"));
    machine.run_for(1.0);
    return machine.telemetry(3).last_quantum_ipc;
  };
  Machine fresh{MachineConfig{}};
  EXPECT_EQ(run(m), run(fresh));
}

TEST(Machine, RuntimeAccess) {
  Machine m{MachineConfig{}};
  EXPECT_THROW(m.runtime(0), std::logic_error);
  m.attach(0, &app("namd1"));
  EXPECT_EQ(m.runtime(0).profile().name, "namd1");
}

TEST(Machine, FillMaskValidation) {
  Machine m{MachineConfig{}};
  EXPECT_THROW(m.set_fill_mask(0, WayMask()), std::invalid_argument);
  EXPECT_THROW(m.set_fill_mask(0, WayMask::span(15, 10)),
               std::invalid_argument);
  m.set_fill_mask(0, WayMask::low(5));
  EXPECT_EQ(m.fill_mask(0), WayMask::low(5));
}

TEST(Machine, MemThrottleValidation) {
  Machine m{MachineConfig{}};
  EXPECT_THROW(m.set_mem_throttle(0, 0.0), std::invalid_argument);
  EXPECT_THROW(m.set_mem_throttle(0, 1.5), std::invalid_argument);
  m.set_mem_throttle(0, 0.4);
  EXPECT_DOUBLE_EQ(m.mem_throttle(0), 0.4);
}

TEST(Machine, TimeAdvancesPerQuantum) {
  Machine m{MachineConfig{}};
  m.step();
  EXPECT_DOUBLE_EQ(m.time_sec(), m.config().quantum_sec);
  m.run_for(1.0);
  EXPECT_NEAR(m.time_sec(), 1.0 + m.config().quantum_sec, 1e-9);
}

TEST(Machine, IdleMachineAccumulatesNothing) {
  Machine m{MachineConfig{}};
  m.run_for(1.0);
  EXPECT_DOUBLE_EQ(m.telemetry(0).instructions, 0.0);
  EXPECT_DOUBLE_EQ(m.last_link_traffic(), 0.0);
}

TEST(Machine, TelemetryAccumulates) {
  Machine m{MachineConfig{}};
  m.attach(0, &app("gcc_base3"));
  m.run_for(1.0);
  const auto& t = m.telemetry(0);
  EXPECT_GT(t.instructions, 0.0);
  EXPECT_NEAR(t.active_cycles, m.config().freq_hz * 1.0, 1.0);
  EXPECT_GT(t.mem_bytes, 0.0);
  EXPECT_GT(t.occupancy_bytes, 0.0);
  EXPECT_GT(t.last_quantum_ipc, 0.0);
}

TEST(Machine, SoloIpcIsSane) {
  Machine m{MachineConfig{}};
  m.attach(0, &app("povray1"));
  m.run_for(2.0);
  const auto& t = m.telemetry(0);
  const double ipc = t.instructions / t.active_cycles;
  EXPECT_GT(ipc, 1.0);  // povray is compute bound
  EXPECT_LT(ipc, 2.5);
}

TEST(Machine, CompletionsCountWholeRuns) {
  Machine m{MachineConfig{}};
  m.attach(0, &app("milc1"));
  while (m.telemetry(0).completions == 0 && m.time_sec() < 200.0) m.step();
  EXPECT_GE(m.telemetry(0).completions, 1u);
  EXPECT_LT(m.time_sec(), 200.0) << "milc1 never completed";
}

TEST(Machine, AchievedTrafficNeverExceedsLinkCapacity) {
  Machine m{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) m.attach(c, &app("lbm1"));
  m.run_for(3.0);  // past lbm's init phase, into the streaming solver
  EXPECT_LE(m.last_link_traffic(),
            m.config().link.capacity_bytes_per_sec * 1.001);
  EXPECT_GT(m.last_link_utilisation(), 1.0);  // 10x lbm oversubscribes
}

TEST(Machine, ContentionSlowsEveryoneDown) {
  MachineConfig cfg;
  Machine solo{cfg};
  solo.attach(0, &app("omnetpp1"));
  solo.run_for(2.0);
  const double ipc_solo =
      solo.telemetry(0).instructions / solo.telemetry(0).active_cycles;

  Machine crowded{cfg};
  crowded.attach(0, &app("omnetpp1"));
  for (unsigned c = 1; c < 10; ++c) crowded.attach(c, &app("gcc_base3"));
  crowded.run_for(2.0);
  const double ipc_crowded =
      crowded.telemetry(0).instructions / crowded.telemetry(0).active_cycles;

  EXPECT_LT(ipc_crowded, ipc_solo);
}

TEST(Machine, PartitionProtectsCacheSensitiveApp) {
  // Isolating omnetpp behind a 19-way partition must beat being squeezed
  // in the unmanaged melee with nine gcc instances.
  MachineConfig cfg;
  auto run = [&](bool partitioned) {
    Machine m{cfg};
    m.attach(0, &app("omnetpp1"));
    for (unsigned c = 1; c < 10; ++c) m.attach(c, &app("gcc_base3"));
    if (partitioned) {
      m.set_fill_mask(0, WayMask::high(19, 20));
      for (unsigned c = 1; c < 10; ++c) m.set_fill_mask(c, WayMask::low(1));
    }
    m.run_for(3.0);
    return m.telemetry(0).instructions / m.telemetry(0).active_cycles;
  };
  EXPECT_GT(run(true), run(false));
}

TEST(Machine, SqueezedNeighboursRaiseLinkUtilisation) {
  // CT's side effect (paper 2.3.2): containing BEs in one way multiplies
  // their miss traffic.
  MachineConfig cfg;
  auto rho = [&](bool squeezed) {
    Machine m{cfg};
    for (unsigned c = 0; c < 10; ++c) m.attach(c, &app("gcc_base3"));
    if (squeezed) {
      m.set_fill_mask(0, WayMask::high(19, 20));
      for (unsigned c = 1; c < 10; ++c) m.set_fill_mask(c, WayMask::low(1));
    }
    m.run_for(2.0);
    return m.last_link_utilisation();
  };
  EXPECT_GT(rho(true), rho(false));
}

TEST(Machine, MemThrottleSlowsMemoryBoundApp) {
  MachineConfig cfg;
  auto ipc_with_throttle = [&](double t) {
    Machine m{cfg};
    m.attach(0, &app("lbm1"));
    m.set_mem_throttle(0, t);
    m.run_for(2.0);
    return m.telemetry(0).instructions / m.telemetry(0).active_cycles;
  };
  EXPECT_LT(ipc_with_throttle(0.2), 0.8 * ipc_with_throttle(1.0));
}

TEST(Machine, MaskChangeTakesEffect) {
  // Shrinking a cache-hungry app's partition lowers its quantum IPC.
  Machine m{MachineConfig{}};
  m.attach(0, &app("omnetpp1"));
  m.set_fill_mask(0, WayMask::full(20));
  m.run_for(1.0);
  const double ipc_big = m.telemetry(0).last_quantum_ipc;
  m.set_fill_mask(0, WayMask::low(1));
  m.run_for(1.0);
  const double ipc_small = m.telemetry(0).last_quantum_ipc;
  EXPECT_LT(ipc_small, ipc_big);
}

TEST(Machine, DeterministicAcrossRuns) {
  auto run = []() {
    Machine m{MachineConfig{}};
    m.attach(0, &app("milc1"));
    m.attach(1, &app("gcc_base3"));
    m.run_for(1.0);
    return m.telemetry(0).instructions;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Machine, MovedMachineStepsLikeTheOriginal) {
  // Phase constants, scratch and the solve cache live in the machine by
  // value and point only at app profiles — no self-pointer for a move to
  // leave dangling.
  Machine a{MachineConfig{}};
  Machine ref{MachineConfig{}};
  for (Machine* m : {&a, &ref}) {
    m->attach(0, &app("milc1"));
    m->attach(1, &app("gcc_base3"));
    m->run_for(0.5);
  }
  Machine moved = std::move(a);
  moved.attach(2, &app("lbm1"));  // a new phase: fresh phase constants
  ref.attach(2, &app("lbm1"));
  moved.run_for(0.5);
  ref.run_for(0.5);
  for (unsigned c = 0; c < 3; ++c) {
    EXPECT_EQ(moved.telemetry(c).instructions, ref.telemetry(c).instructions)
        << "core " << c;
    EXPECT_EQ(moved.telemetry(c).mem_bytes, ref.telemetry(c).mem_bytes)
        << "core " << c;
  }
}

class MachineCoreCount : public ::testing::TestWithParam<unsigned> {};

TEST_P(MachineCoreCount, MoreNeighboursNeverHelp) {
  const unsigned n = GetParam();
  MachineConfig cfg;
  Machine m{cfg};
  m.attach(0, &app("soplex1"));
  for (unsigned c = 1; c < n; ++c) m.attach(c, &app("bzip22"));
  m.run_for(2.0);
  const double ipc = m.telemetry(0).instructions / m.telemetry(0).active_cycles;

  Machine more{cfg};
  more.attach(0, &app("soplex1"));
  for (unsigned c = 1; c < n + 1; ++c) more.attach(c, &app("bzip22"));
  more.run_for(2.0);
  const double ipc_more =
      more.telemetry(0).instructions / more.telemetry(0).active_cycles;

  EXPECT_LE(ipc_more, ipc * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Cores, MachineCoreCount,
                         ::testing::Values(2u, 4u, 6u, 9u));

TEST(Machine, SolverStatsAccountForEveryQuantum) {
  Machine m{MachineConfig{}};
  m.attach(0, &app("milc1"));
  m.attach(1, &app("gcc_base3"));
  m.run_for(5.0);
  const auto& s = m.solver_stats();
  EXPECT_EQ(s.quanta, 500u);
  EXPECT_EQ(s.replays + s.solves, s.quanta);
  EXPECT_EQ(s.stable_solves + s.unstable_solves, s.solves);
  EXPECT_GT(s.replays, 0u) << "a 5 s settle must reach steady-state replay";
  std::uint64_t hist_sum = 0;
  for (auto h : s.rounds_hist) hist_sum += h;
  EXPECT_EQ(hist_sum, s.solves);
  EXPECT_GE(s.total_rounds(), s.solves);

  // Actuator changes must drop an armed replay cache (and count as such).
  const auto inv_before = s.invalidations_actuator;
  m.set_fill_mask(0, WayMask::low(10));
  m.run_for(1.0);
  EXPECT_GT(m.solver_stats().invalidations_actuator, inv_before);
}

TEST(Machine, SolverStatsMergeAccumulates) {
  SolverStats a, b;
  a.quanta = 10;
  a.rounds_hist = {4, 3};
  b.quanta = 5;
  b.rounds_hist = {1, 1, 1};
  a.merge(b);
  EXPECT_EQ(a.quanta, 15u);
  ASSERT_EQ(a.rounds_hist.size(), 3u);
  EXPECT_EQ(a.rounds_hist[0], 5u);
  EXPECT_EQ(a.rounds_hist[1], 4u);
  EXPECT_EQ(a.rounds_hist[2], 1u);
  EXPECT_EQ(a.total_rounds(), 5u * 1 + 4u * 2 + 1u * 3);
}

}  // namespace
}  // namespace dicer::sim
