// Equivalence tests for the Machine's speed paths, each checked against a
// slower reference with exact floating-point equality — never NEAR: the
// sweep cache, the golden figures and the fleet exports pin bytes.
//   - Replay + bit-stable early exit vs a reference machine that runs the
//     full fixed point every quantum, under arbitrary actuator churn.
//   - run_for/run_until, whose bulk replay commits advance whole budgeted
//     stretches at once, vs a twin machine advanced by step() — across
//     actuator churn, phase boundaries and whole-run restarts. Each bulk
//     test also proves the bulk path ran (a positive replay budget when
//     run_for/run_until is entered), so it cannot pass vacuously.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/cache/way_mask.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace dicer::sim {

/// The test-side oracle: steps a machine with its replay cache disarmed,
/// so every quantum runs the full fixed point — the pre-shortcut solve
/// path. Clearing the flag directly (not via an actuator) counts no
/// invalidation, so the reference's solver stats stay those of a machine
/// that never replays.
struct MachineTestPeer {
  static void step_without_replay(Machine& m) {
    m.solve_cache_.armed = false;
    m.step();
  }
  /// Quanta run_for/run_until may commit in bulk right now; they take the
  /// bulk path whenever this is positive (and no kQuantum subscriber
  /// listens).
  static std::uint64_t replay_budget(const Machine& m) {
    return m.solve_cache_.budget;
  }
};

namespace {

void expect_machines_identical(Machine& a, Machine& b, std::uint64_t step) {
  ASSERT_EQ(a.time_sec(), b.time_sec()) << "step " << step;
  EXPECT_EQ(a.last_link_utilisation(), b.last_link_utilisation())
      << "step " << step;
  EXPECT_EQ(a.last_link_traffic(), b.last_link_traffic()) << "step " << step;
  for (unsigned c = 0; c < a.num_cores(); ++c) {
    const auto& ta = a.telemetry(c);
    const auto& tb = b.telemetry(c);
    EXPECT_EQ(ta.instructions, tb.instructions)
        << "core " << c << " step " << step;
    EXPECT_EQ(ta.active_cycles, tb.active_cycles)
        << "core " << c << " step " << step;
    EXPECT_EQ(ta.mem_bytes, tb.mem_bytes) << "core " << c << " step " << step;
    EXPECT_EQ(ta.occupancy_bytes, tb.occupancy_bytes)
        << "core " << c << " step " << step;
    EXPECT_EQ(ta.completions, tb.completions)
        << "core " << c << " step " << step;
    EXPECT_EQ(ta.last_quantum_ipc, tb.last_quantum_ipc)
        << "core " << c << " step " << step;
  }
}

void expect_solver_stats_equal(const SolverStats& sa, const SolverStats& sb) {
  EXPECT_EQ(sa.quanta, sb.quanta);
  EXPECT_EQ(sa.replays, sb.replays);
  EXPECT_EQ(sa.solves, sb.solves);
  EXPECT_EQ(sa.stable_solves, sb.stable_solves);
  EXPECT_EQ(sa.invalidations_actuator, sb.invalidations_actuator);
  EXPECT_EQ(sa.invalidations_fingerprint, sb.invalidations_fingerprint);
  EXPECT_EQ(sa.rounds_hist, sb.rounds_hist);
}

/// The reference for a bulk-stepped machine: step() until `twin` reaches
/// `target`'s time. Both clocks are the same chain of additions, so equal
/// quantum counts land on bit-equal times.
void step_to(Machine& twin, const Machine& target) {
  while (twin.time_sec() < target.time_sec()) twin.step();
}

/// Catalog apps cut to their first phase: they settle into permanent
/// replay, and every completion restarts them into the same phase.
std::vector<AppProfile> single_phase_profiles() {
  const auto& catalog = default_catalog();
  std::vector<AppProfile> ps;
  for (unsigned c = 0; c < 10; ++c) {
    AppProfile p = catalog.at(c * 5);
    p.phases.resize(1);
    ps.push_back(std::move(p));
  }
  return ps;
}

/// One random actuator mutation (attach/detach, repartition, MBA throttle
/// or none), applied to both machines.
void churn_once(util::Xoshiro256& rng, std::vector<bool>& occupied,
                Machine& a, Machine& b) {
  const auto& catalog = default_catalog();
  const unsigned core = static_cast<unsigned>(rng.below(a.num_cores()));
  const unsigned ways = a.num_ways();
  switch (rng.below(4)) {
    case 0: {  // attach or detach
      if (occupied[core]) {
        a.detach(core);
        b.detach(core);
        occupied[core] = false;
      } else {
        const AppProfile* app =
            &catalog.at(static_cast<std::size_t>(rng.below(59)));
        a.attach(core, app);
        b.attach(core, app);
        occupied[core] = true;
      }
      break;
    }
    case 1: {  // repartition: a contiguous mask somewhere in the cache
      const unsigned width = 1 + static_cast<unsigned>(rng.below(ways));
      const unsigned shift =
          static_cast<unsigned>(rng.below(ways - width + 1));
      const WayMask mask = WayMask::span(shift, width);
      a.set_fill_mask(core, mask);
      b.set_fill_mask(core, mask);
      break;
    }
    case 2: {  // MBA throttle (sometimes releasing it entirely)
      const double fraction =
          rng.below(3) == 0 ? 1.0 : rng.uniform(0.2, 1.0);
      a.set_mem_throttle(core, fraction);
      b.set_mem_throttle(core, fraction);
      break;
    }
    default:
      break;  // no mutation: an extra-long settle stretch
  }
}

TEST(MachineEquivalence, ShortcutsAreBitIdenticalUnderRandomChurn) {
  const auto& catalog = default_catalog();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  const unsigned cores = a.num_cores();

  util::Xoshiro256 rng(0xD1CE2024ULL);
  std::vector<bool> occupied(cores, false);

  // Start with a few tenants so the first settle stretch has work.
  for (unsigned c = 0; c < 4; ++c) {
    const AppProfile* app = &catalog.at(c * 7);
    a.attach(c, app);
    b.attach(c, app);
    occupied[c] = true;
  }

  std::uint64_t steps = 0;
  for (int round = 0; round < 60; ++round) {
    churn_once(rng, occupied, a, b);

    // Settle long enough for the fixed point to go bit-stable and the
    // replay cache to arm and serve (phase changes keep breaking it).
    const std::uint64_t quanta = 50 + rng.below(250);
    for (std::uint64_t q = 0; q < quanta; ++q) {
      a.step();
      MachineTestPeer::step_without_replay(b);
      ++steps;
      expect_machines_identical(a, b, steps);
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure()) {
        return;  // first divergence pinpoints the step; don't spam
      }
    }
  }

  // The schedule must actually have exercised both paths: the shortcut
  // machine replayed and invalidated, the reference machine never did.
  const auto& sa = a.solver_stats();
  const auto& sb = b.solver_stats();
  EXPECT_GT(sa.replays, 0u);
  EXPECT_GT(sa.stable_solves, 0u);
  EXPECT_GT(sa.invalidations_actuator, 0u);
  EXPECT_GT(sa.invalidations_fingerprint, 0u);
  EXPECT_EQ(sb.replays, 0u);
  EXPECT_EQ(sa.quanta, sb.quanta);
  EXPECT_EQ(sb.solves, sb.quanta);
}

TEST(MachineEquivalence, SteadyStateFusesAndStaysBitIdentical) {
  // Single-phase apps settle into permanent replay: nearly every interval
  // must enter run_for with a replay budget to spend, and every byte must
  // still match the step()-driven twin — also across whole-run restarts,
  // which return each app to the phase its armed solve was computed for
  // and so earn a fresh budget without a re-solve.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }

  unsigned bulk_intervals = 0;
  unsigned bulk_after_restart = 0;
  for (std::uint64_t it = 1; it <= 120; ++it) {
    const bool restarted = a.telemetry(0).completions > 0;
    if (MachineTestPeer::replay_budget(a) > 0) {
      ++bulk_intervals;
      if (restarted) ++bulk_after_restart;
    }
    a.run_for(0.5);
    step_to(b, a);
    expect_machines_identical(a, b, it);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_GT(bulk_intervals, 110u);
  EXPECT_GT(bulk_after_restart, 0u);
  EXPECT_EQ(a.solver_stats().invalidations_fingerprint, 0u);
}

TEST(MachineEquivalence, BitIdenticalUnderRandomActuatorChurn) {
  // A machine driven in control intervals through run_for and a twin
  // driven by step() go through the same randomized attach/detach, mask
  // and MBA churn, one mutation between intervals as a policy would make
  // it. Multi-phase catalog apps keep phases drifting underneath, so
  // budgets keep running out and being re-earned; churn keeps disarming
  // the solve cache, so the step() quanta inside run_for get exercised too.
  const auto& catalog = default_catalog();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  util::Xoshiro256 rng(0xBA7C42ULL);
  std::vector<bool> occupied(a.num_cores(), false);
  for (unsigned c = 0; c < 4; ++c) {
    const AppProfile* app = &catalog.at(c * 7);
    a.attach(c, app);
    b.attach(c, app);
    occupied[c] = true;
  }

  const double intervals[] = {0.1, 1.0, 0.05, 0.37, 2.5};
  unsigned bulk_intervals = 0;
  for (std::uint64_t it = 1; it <= 150; ++it) {
    churn_once(rng, occupied, a, b);
    if (MachineTestPeer::replay_budget(a) > 0) ++bulk_intervals;
    a.run_for(intervals[it % 5]);
    step_to(b, a);
    expect_machines_identical(a, b, it);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;  // first divergence pinpoints the interval; don't spam
    }
  }
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  const auto& sa = a.solver_stats();
  EXPECT_GT(bulk_intervals, 0u);
  EXPECT_GT(sa.invalidations_actuator, 0u);
  EXPECT_GT(sa.invalidations_fingerprint, 0u);
}

TEST(MachineEquivalence, BulkIntervalCommitsMatchSerialExactly) {
  // The call shape the grid and the fleet drive: one control interval at
  // a time, a mask change every few intervals, across phase boundaries
  // and whole-run restarts, then run_until to an interval-unaligned
  // target. The bulk-committed machine must match the step()-driven twin
  // bit for bit after every call.
  const auto& catalog = default_catalog();
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  const unsigned ways = a.num_ways();
  for (unsigned c = 0; c < a.num_cores(); ++c) {
    // Even cores run multi-phase catalog apps (phase boundaries), odd
    // cores single-phase ones (restarts into the same phase).
    const AppProfile* app =
        c % 2 == 0 ? &catalog.at((c * 3) % 59) : &profiles[c];
    a.attach(c, app);
    b.attach(c, app);
  }

  util::Xoshiro256 rng(0x0B51D1AULL);
  const double intervals[] = {0.1, 1.0, 0.05, 0.37, 2.5};
  unsigned bulk_calls = 0;
  for (std::uint64_t it = 1; it <= 120; ++it) {
    if (MachineTestPeer::replay_budget(a) > 0) ++bulk_calls;
    a.run_for(intervals[it % 5]);
    step_to(b, a);
    expect_machines_identical(a, b, it);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
    if (it % 9 == 0) {  // policies actuate between intervals, not within
      const unsigned core = static_cast<unsigned>(rng.below(a.num_cores()));
      const WayMask mask =
          WayMask::span(0, 1 + static_cast<unsigned>(rng.below(ways)));
      a.set_fill_mask(core, mask);
      b.set_fill_mask(core, mask);
    }
  }
  const double target = a.time_sec() + 3.33;
  if (MachineTestPeer::replay_budget(a) > 0) ++bulk_calls;
  a.run_until(target);
  while (b.time_sec() < target - 1e-9) b.step();
  expect_machines_identical(a, b, 999);
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_GT(bulk_calls, 60u);
  std::uint64_t completions = 0;
  for (unsigned c = 0; c < a.num_cores(); ++c) {
    completions += a.telemetry(c).completions;
  }
  EXPECT_GT(completions, 0u);  // whole-run restarts were crossed
  EXPECT_GT(a.solver_stats().invalidations_fingerprint, 0u);  // and phases
}

TEST(MachineEquivalence, StepsBetweenIntervalsSpendTheBudget) {
  // A replayed step() spends one quantum of the replay budget, so a
  // machine advanced by a mix of step() calls and bulk run_for/run_until
  // intervals must still stop every bulk commit short of each phase
  // boundary. Long step() stretches make a budget that was not spent
  // overrun the boundary by hundreds of quanta.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }

  unsigned bulk_calls = 0;
  for (std::uint64_t it = 1; it <= 60; ++it) {
    for (std::uint64_t q = 0; q < (it % 4) * 40; ++q) a.step();
    if (MachineTestPeer::replay_budget(a) > 0) ++bulk_calls;
    if (it % 2 == 0) {
      a.run_for(0.37);
    } else {
      a.run_until(a.time_sec() + 0.61);
    }
    step_to(b, a);
    expect_machines_identical(a, b, it);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_GT(bulk_calls, 50u);
  EXPECT_GT(a.telemetry(0).completions, 1u);
}

TEST(MachineEquivalence, RunForAndRunUntilMatchSerialRounding) {
  // run_for advances max(1, ceil(seconds / quantum - 1e-9)) quanta;
  // run_until steps while time_sec() < t - 1e-9, so it never overshoots
  // and a boundary already reached is a no-op. Both must hold with the
  // bulk path active.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  const double dt = a.config().quantum_sec;
  for (int q = 0; q < 100; ++q) {  // settle until the solve cache arms
    a.step();
    b.step();
  }

  unsigned bulk_calls = 0;
  for (const double span : {0.25, 0.001, 0.10000000000000001, 1.0, 0.5}) {
    if (MachineTestPeer::replay_budget(a) > 0) ++bulk_calls;
    a.run_for(span);
    const auto quanta = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(span / dt - 1e-9)), 1);
    for (std::uint64_t q = 0; q < quanta; ++q) b.step();
    ASSERT_EQ(a.time_sec(), b.time_sec()) << "span " << span;
    ASSERT_EQ(a.solver_stats().quanta, b.solver_stats().quanta)
        << "span " << span;
  }
  double t = a.time_sec();
  for (const double ahead : {0.5, 0.0, 0.123, 1.0}) {
    t += ahead;  // 0.0: the boundary just reached, a no-op
    if (MachineTestPeer::replay_budget(a) > 0) ++bulk_calls;
    a.run_until(t);
    while (b.time_sec() < t - 1e-9) b.step();
    ASSERT_EQ(a.time_sec(), b.time_sec()) << "t " << t;
    EXPECT_LT(a.time_sec(), t + dt - 1e-9) << "t " << t;
  }
  expect_machines_identical(a, b, a.solver_stats().quanta);
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_GE(bulk_calls, 8u);
}

}  // namespace
}  // namespace dicer::sim
