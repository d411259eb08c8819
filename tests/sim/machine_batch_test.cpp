// MachineBatch contract tests: a lane stepped through a batch must be
// bit-indistinguishable from the same machine stepped serially — for every
// telemetry field, every quantum, under randomized actuator churn — while
// actually taking the fused path (a batch that never fuses would pass
// equivalence vacuously). Mirrors the solver-shortcut equivalence suite:
// exact floating-point equality, never NEAR, because the sweep cache and
// the fleet exports pin bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/cache/way_mask.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"
#include "sim/machine_batch.hpp"
#include "util/rng.hpp"

namespace dicer::sim {
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

TEST(MachineBatch, SteadyStateFusesAndStaysBitIdentical) {
  // Single-phase apps settle into permanent replay: nearly every batched
  // quantum must take the fused path, and every byte must still match the
  // serially-stepped twin.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}};
  Machine b{MachineConfig{}};
  MachineBatch batch;
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  const unsigned lane = batch.add(a);

  for (std::uint64_t q = 1; q <= 600; ++q) {
    batch.step(lane);
    b.step();
    expect_machines_identical(a, b, q);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  EXPECT_GT(batch.stats().fused_quanta, 500u);
  EXPECT_GT(batch.stats().snapshots, 0u);
  // One PhaseConst per distinct phase, not per core.
  EXPECT_EQ(batch.shared_phase_count(), 10u);
}

TEST(MachineBatch, TwoLanesShareThePhaseTable) {
  // Two lanes running the same apps resolve through one PhaseConst each —
  // the dedup the shared table exists for — and both replay serially.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  Machine ra{MachineConfig{}}, rb{MachineConfig{}};
  MachineBatch batch;
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    ra.attach(c, &profiles[c]);
    b.attach(c, &profiles[(c + 3) % 10]);
    rb.attach(c, &profiles[(c + 3) % 10]);
  }
  const unsigned la = batch.add(a);
  const unsigned lb = batch.add(b);

  // Interleave the lanes — batches don't require lane-major driving.
  for (std::uint64_t q = 1; q <= 300; ++q) {
    batch.step(la);
    batch.step(lb);
    ra.step();
    rb.step();
    expect_machines_identical(a, ra, q);
    expect_machines_identical(b, rb, q);
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
  }
  // 10 distinct phases across 20 lane-cores.
  EXPECT_EQ(batch.shared_phase_count(), 10u);
  EXPECT_GT(batch.stats().fused_quanta, 0u);
}

TEST(MachineBatch, BitIdenticalUnderRandomActuatorChurn) {
  // The satellite suite's core property: a batched machine and a serial
  // machine driven through the same randomized attach/detach, mask and MBA
  // churn schedule agree on every telemetry field every quantum, and on
  // the full solver-stat vector at the end. Multi-phase catalog apps keep
  // phases drifting underneath, so snapshots keep going stale and being
  // retaken; churn keeps disarming the solve cache, so the fallback path
  // is exercised too.
  const auto& catalog = default_catalog();
  Machine a{MachineConfig{}};
  Machine b{MachineConfig{}};
  MachineBatch batch;
  const unsigned lane = batch.add(a);
  const unsigned cores = a.num_cores();
  const unsigned ways = a.num_ways();

  util::Xoshiro256 rng(0xBA7C42ULL);
  std::vector<bool> occupied(cores, false);
  for (unsigned c = 0; c < 4; ++c) {
    const AppProfile* app = &catalog.at(c * 7);
    a.attach(c, app);
    b.attach(c, app);
    occupied[c] = true;
  }

  std::uint64_t steps = 0;
  for (int round = 0; round < 40; ++round) {
    const unsigned core = static_cast<unsigned>(rng.below(cores));
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
      case 1: {  // repartition
        const unsigned width = 1 + static_cast<unsigned>(rng.below(ways));
        const unsigned shift =
            static_cast<unsigned>(rng.below(ways - width + 1));
        const WayMask mask = WayMask::span(shift, width);
        a.set_fill_mask(core, mask);
        b.set_fill_mask(core, mask);
        break;
      }
      case 2: {  // MBA throttle
        const double fraction =
            rng.below(3) == 0 ? 1.0 : rng.uniform(0.2, 1.0);
        a.set_mem_throttle(core, fraction);
        b.set_mem_throttle(core, fraction);
        break;
      }
      default:
        break;  // extra-long settle stretch
    }

    const std::uint64_t quanta = 50 + rng.below(250);
    for (std::uint64_t q = 0; q < quanta; ++q) {
      batch.step(lane);
      b.step();
      ++steps;
      expect_machines_identical(a, b, steps);
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure()) {
        return;  // first divergence pinpoints the step; don't spam
      }
    }
  }

  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  // The schedule must have exercised both batch paths.
  EXPECT_GT(batch.stats().fused_quanta, 0u);
  EXPECT_GT(batch.stats().fallback_steps, 0u);
  EXPECT_GT(batch.stats().snapshots, 1u);
}

TEST(MachineBatch, AddingAMachineTwiceThrows) {
  Machine m{MachineConfig{}};
  MachineBatch batch;
  batch.add(m);
  EXPECT_THROW(batch.add(m), std::logic_error);
  MachineBatch other;
  EXPECT_THROW(other.add(m), std::logic_error);
}

TEST(MachineBatch, MachineIsReusableAfterBatchDies) {
  // The destructor unhooks the shared phase table: the machine must keep
  // stepping (and keep matching a serial twin) after its batch is gone.
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  {
    MachineBatch batch;
    const unsigned lane = batch.add(a);
    for (int q = 0; q < 100; ++q) {
      batch.step(lane);
      b.step();
    }
  }
  MachineBatch second;
  const unsigned lane = second.add(a);  // re-enrollable once unhooked
  for (std::uint64_t q = 1; q <= 100; ++q) {
    second.step(lane);
    b.step();
    expect_machines_identical(a, b, q);
  }
  // Enrolled mid-life with an armed cache: fuses without a fallback step.
  EXPECT_EQ(second.stats().fused_quanta, 100u);
}

TEST(MachineBatch, BulkIntervalCommitsMatchSerialExactly) {
  // run_for/run_until commit whole within-budget chunks through fused_run
  // (register-resident accumulators, no per-quantum boundary checks) — the
  // call shape both the sweep and the fleet data plane drive. A batched
  // machine advanced one control interval at a time must match a serial
  // machine advanced identically, across phase boundaries, whole-run
  // restarts and interval-edge actuations, bit for bit.
  const auto& catalog = default_catalog();
  Machine a{MachineConfig{}};
  Machine b{MachineConfig{}};
  MachineBatch batch;
  const unsigned lane = batch.add(a);
  const unsigned ways = a.num_ways();
  for (unsigned c = 0; c < a.num_cores(); ++c) {
    const AppProfile* app = &catalog.at((c * 3) % 59);
    a.attach(c, app);
    b.attach(c, app);
  }

  util::Xoshiro256 rng(0x0B51D1AULL);
  const double intervals[] = {0.1, 1.0, 0.05, 0.37, 2.5};
  for (int it = 0; it < 120; ++it) {
    const double interval = intervals[it % 5];
    batch.run_for(lane, interval);
    b.run_for(interval);
    expect_machines_identical(a, b, static_cast<std::uint64_t>(it));
    if (::testing::Test::HasFatalFailure() ||
        ::testing::Test::HasNonfatalFailure()) {
      return;
    }
    if (it % 9 == 0) {  // policies actuate between intervals, not within
      const unsigned core = static_cast<unsigned>(rng.below(a.num_cores()));
      const unsigned width = 1 + static_cast<unsigned>(rng.below(ways));
      const WayMask mask = WayMask::span(0, width);
      a.set_fill_mask(core, mask);
      b.set_fill_mask(core, mask);
    }
  }
  // run_until across the same machinery, to an interval-unaligned target.
  const double target = a.time_sec() + 3.33;
  batch.run_until(lane, target);
  b.run_until(target);
  expect_machines_identical(a, b, 999);
  expect_solver_stats_equal(a.solver_stats(), b.solver_stats());
  // The schedule must actually ride the fused fast path (multi-phase
  // catalog apps plus interval-edge actuations keep the fallback path
  // busy too, so this is a floor, not a ratio).
  EXPECT_GT(batch.stats().fused_quanta, 1000u);
}

TEST(MachineBatch, RunForAndRunUntilMatchSerialRounding) {
  const auto profiles = single_phase_profiles();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  MachineBatch batch;
  for (unsigned c = 0; c < 10; ++c) {
    a.attach(c, &profiles[c]);
    b.attach(c, &profiles[c]);
  }
  const unsigned lane = batch.add(a);

  // Fractional / sub-quantum / exact spans all round like Machine::run_for.
  for (const double span : {0.25, 0.001, 0.10000000000000001, 1.0}) {
    batch.run_for(lane, span);
    b.run_for(span);
    ASSERT_EQ(a.time_sec(), b.time_sec()) << "span " << span;
    ASSERT_EQ(a.solver_stats().quanta, b.solver_stats().quanta)
        << "span " << span;
  }
  // run_until never overshoots; a boundary already reached is a no-op.
  for (const double t :
       {a.time_sec() + 0.5, a.time_sec() + 0.5, a.time_sec() + 0.123}) {
    batch.run_until(lane, t);
    b.run_until(t);
    ASSERT_EQ(a.time_sec(), b.time_sec()) << "t " << t;
  }
  expect_machines_identical(a, b, a.solver_stats().quanta);
}

}  // namespace
}  // namespace dicer::sim
