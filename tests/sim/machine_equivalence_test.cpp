// Equivalence tests for the Machine's speed paths, each checked against a
// slower reference with exact floating-point equality — never NEAR: the
// sweep cache, the golden figures and the fleet exports pin bytes.
//   - Replay of converged solves vs a reference machine that runs the
//     full fixed point every quantum, under arbitrary actuator churn and
//     at the memory link's knee, where the solve is hardest.
//   - run_until, whose bulk replay commits extend every core's run by a
//     whole stretch of quanta at once, vs a twin machine advanced by
//     step() — across actuator churn, phase boundaries and whole-run
//     restarts. Each bulk test also proves the bulk path ran (replay room
//     when run_until is entered, and calls that add replays but no solve),
//     so it cannot pass vacuously.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/cache/way_mask.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"
#include "support/machine_test_peer.hpp"
#include "util/rng.hpp"

namespace dicer::sim {
namespace {

void expect_machines_identical(Machine& a, Machine& b, std::uint64_t step) {
  ASSERT_EQ(a.quantum(), b.quantum()) << "step " << step;
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
/// `target`'s quantum.
void step_to(Machine& twin, const Machine& target) {
  while (twin.quantum() < target.quantum()) twin.step();
}

/// run_until(a.quantum() + quanta) that reports whether it took the bulk
/// path: it entered with replay room (and no kQuantum subscriber listens,
/// as none does here).
bool run_ahead(Machine& a, std::uint64_t quanta) {
  const bool bulk = MachineTestPeer::replay_room(a, quanta) > 0;
  a.run_until(a.quantum() + quanta);
  return bulk;
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

    // Settle long enough for the fixed point to converge and the
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
  // must enter run_until with replay room, and every byte must still match
  // the step()-driven twin — also across whole-run restarts, which return
  // each app to the phase its armed solve was computed for and so start a
  // new run without a re-solve.
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
    if (run_ahead(a, 50)) {
      ++bulk_intervals;
      if (restarted) ++bulk_after_restart;
    }
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
  // A machine driven in control intervals through run_until and a twin
  // driven by step() go through the same randomized attach/detach, mask
  // and MBA churn, one mutation between intervals as a policy would make
  // it. Multi-phase catalog apps keep phases drifting underneath, so runs
  // keep ending at phase boundaries; churn keeps disarming the solve
  // cache, so the step() quanta inside run_until get exercised too.
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

  const std::uint64_t intervals[] = {10, 100, 5, 37, 250};
  unsigned bulk_intervals = 0;
  for (std::uint64_t it = 1; it <= 150; ++it) {
    churn_once(rng, occupied, a, b);
    if (run_ahead(a, intervals[it % 5])) ++bulk_intervals;
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
  // and whole-run restarts, then one long run_until. The bulk-committed
  // machine must match the step()-driven twin bit for bit after every
  // call.
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
  const std::uint64_t intervals[] = {10, 100, 5, 37, 250};
  unsigned bulk_calls = 0;
  for (std::uint64_t it = 1; it <= 120; ++it) {
    if (run_ahead(a, intervals[it % 5])) ++bulk_calls;
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
  if (run_ahead(a, 333)) ++bulk_calls;
  step_to(b, a);
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

TEST(MachineEquivalence, StepsBetweenIntervalsMatchSerialExactly) {
  // Replayed step() calls extend the same runs a bulk commit extends, so
  // a machine advanced by a mix of step() stretches and bulk run_until
  // intervals must still stop every bulk commit at each phase boundary and
  // match the step()-driven twin bit for bit.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }

  unsigned bulk_calls = 0;
  for (std::uint64_t it = 1; it <= 60; ++it) {
    for (std::uint64_t q = 0; q < (it % 4) * 40; ++q) a.step();
    if (run_ahead(a, it % 2 == 0 ? 37 : 61)) ++bulk_calls;
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

TEST(MachineEquivalence, RunUntilLandsWhereTheStepLoopLands) {
  // run_until(q) is the loop `while (quantum() < q) step()`: it lands on
  // quantum q exactly, and a target already reached is a no-op. Every call
  // here enters with replay room and must land on the twin's quantum,
  // committed in one bulk pass: replays but no solve.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  for (int q = 0; q < 100; ++q) {  // settle until the solve cache arms
    a.step();
    b.step();
  }

  unsigned bulk_calls = 0;
  const std::uint64_t aheads[] = {25, 1, 10, 50, 0, 12, 2, 100, 37};
  for (const std::uint64_t ahead : aheads) {
    const std::uint64_t target = a.quantum() + ahead;
    const SolverStats before = a.solver_stats();
    if (MachineTestPeer::replay_room(a, ahead) == ahead && ahead > 0) {
      ++bulk_calls;
    }
    a.run_until(target);
    a.run_until(target - ahead);  // already past: a no-op
    while (b.quantum() < target) b.step();
    ASSERT_EQ(a.quantum(), target);
    ASSERT_EQ(a.time_sec(), b.time_sec()) << "target " << target;
    EXPECT_EQ(a.solver_stats().quanta - before.quanta, ahead);
    EXPECT_EQ(a.solver_stats().replays - before.replays, ahead);
    EXPECT_EQ(a.solver_stats().solves, before.solves);
  }
  expect_machines_identical(a, b, a.solver_stats().quanta);
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_EQ(bulk_calls, 8u);
}

TEST(MachineEquivalence, BulkCommitRunsUpToThePhaseBoundary) {
  // The first whole-run restart ends a run: a probe twin finds the quantum
  // that crosses it. One run_until to the quantum before it is one bulk
  // commit — the room reaches right up to the boundary, with no margin —
  // and the crossing quantum itself, which goes through step(), matches
  // the step() loop bit for bit.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}}, probe{MachineConfig{}};
  for (Machine* m : {&a, &b, &probe}) {
    for (unsigned c = 0; c < 10; ++c) m->attach(c, &profiles[c]);
  }
  const auto completions = [](const Machine& m) {
    std::uint64_t n = 0;
    for (unsigned c = 0; c < m.num_cores(); ++c) {
      n += m.telemetry(c).completions;
    }
    return n;
  };
  while (completions(probe) == 0) probe.step();
  const std::uint64_t crossing = probe.quantum();
  for (int q = 0; q < 100; ++q) {  // settle until the solve cache arms
    a.step();
    b.step();
  }
  ASSERT_GT(crossing, a.quantum() + 1);

  const std::uint64_t ahead = crossing - 1 - a.quantum();
  EXPECT_EQ(MachineTestPeer::replay_room(a, ahead + 1), ahead);
  const SolverStats before = a.solver_stats();
  a.run_until(crossing - 1);
  EXPECT_EQ(a.solver_stats().replays - before.replays, ahead);
  EXPECT_EQ(a.solver_stats().solves, before.solves);
  EXPECT_EQ(completions(a), 0u);
  step_to(b, a);
  expect_machines_identical(a, b, a.quantum());

  EXPECT_EQ(MachineTestPeer::replay_room(a, 1), 0u);
  a.run_until(crossing);
  b.step();
  expect_machines_identical(a, b, a.quantum());
  EXPECT_EQ(completions(a), 1u);
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
}

TEST(MachineEquivalence, ClockIsTheQuantumCountTimesTheQuantum) {
  // Time is a quantum count, so after any mix of step() and run_until the
  // clock reads count x quantum_sec exactly — 240 s after 24,000 quanta,
  // where a running sum of 10 ms additions reads 239.9999999999267.
  const auto profiles = single_phase_profiles();
  Machine m{MachineConfig{}};
  for (unsigned c = 0; c < 4; ++c) m.attach(c, &profiles[c]);
  util::Xoshiro256 rng(0x71AE5ULL);
  const double dt = m.config().quantum_sec;
  while (m.quantum() < 23'000) {
    if (rng.below(2) == 0) {
      for (std::uint64_t q = rng.below(30); q > 0; --q) m.step();
    } else {
      m.run_until(m.quantum() + rng.below(700));
    }
    ASSERT_EQ(m.time_sec(), static_cast<double>(m.quantum()) * dt);
  }
  m.run_until(24'000);
  EXPECT_EQ(m.quantum(), 24'000u);
  EXPECT_EQ(m.time_sec(), 240.0);
}

TEST(MachineEquivalence, StreamingBesAtTheLinkKneeConverge) {
  // An HP isolated on 19 ways and nine identical streaming BEs on the
  // remaining way, loaded onto the steep rho^8 knee of the link's latency
  // curve (rho ~0.93): an iteration that only damps its updates cycles
  // here forever. Every solve must converge, replaying must stay
  // bit-identical to re-solving every quantum, and tightening the
  // tolerance a thousandfold must move no output by more than 1e-8.
  AppProfile be;
  be.name = "knee_streamer";
  AppPhase phase;
  phase.instructions = 1e12;
  phase.cpi_core = 0.5;
  phase.api = 0.024;
  phase.mrc = MissRatioCurve::streaming(0.9);
  phase.mlp = 4.0;
  be.phases.push_back(phase);

  Machine a{MachineConfig{}}, b{MachineConfig{}}, tight{MachineConfig{}};
  MachineTestPeer::tolerance(tight) = MachineTestPeer::tolerance(a) / 1000.0;
  for (Machine* m : {&a, &b, &tight}) {
    m->attach(0, &default_catalog().by_name("omnetpp1"));
    m->set_fill_mask(0, WayMask::high(19, 20));
    for (unsigned c = 1; c < 10; ++c) {
      m->attach(c, &be);
      m->set_fill_mask(c, WayMask::low(1));
    }
  }

  auto near = [](double x, double y) {
    return std::fabs(x - y) <= 1e-8 * std::max(std::fabs(x), std::fabs(y));
  };
  for (std::uint64_t q = 1; q <= 300; ++q) {
    if (q % 100 == 0) {  // re-solve from a warm start after an actuation
      const double fraction = q == 100 ? 0.7 : 1.0;
      for (Machine* m : {&a, &b, &tight}) m->set_mem_throttle(4, fraction);
    }
    a.step();
    MachineTestPeer::step_without_replay(b);
    tight.step();
    expect_machines_identical(a, b, q);
    EXPECT_TRUE(near(a.last_link_utilisation(),
                     tight.last_link_utilisation()))
        << "step " << q;
    for (unsigned c = 0; c < a.num_cores(); ++c) {
      EXPECT_TRUE(near(a.telemetry(c).last_quantum_ipc,
                       tight.telemetry(c).last_quantum_ipc))
          << "core " << c << " step " << q;
      EXPECT_TRUE(near(a.telemetry(c).occupancy_bytes,
                       tight.telemetry(c).occupancy_bytes))
          << "core " << c << " step " << q;
    }
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  EXPECT_GT(a.last_link_utilisation(), 0.9);
  EXPECT_LT(a.last_link_utilisation(), 1.0);
  for (Machine* m : {&a, &b, &tight}) {
    const auto& s = m->solver_stats();
    EXPECT_EQ(s.unstable_solves, 0u);
    EXPECT_EQ(s.stable_solves, s.solves);
  }
  EXPECT_EQ(a.solver_stats().solves, 3u);  // the start and two actuations
  EXPECT_EQ(b.solver_stats().solves, 300u);
}

}  // namespace
}  // namespace dicer::sim
