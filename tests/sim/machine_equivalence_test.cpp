// Property test for the convergence shortcuts: a Machine with the
// steady-state replay + bit-stable early exit must be bit-indistinguishable
// from a reference machine that runs the full fixed point every quantum,
// under arbitrary actuator churn. Two machines are driven through the same
// randomized schedule of attach/detach, fill-mask changes, MBA throttles
// and long settle stretches (so phases drift underneath), and every
// quantum's telemetry is compared with exact floating-point equality —
// not NEAR: the shortcuts' contract is byte-identity, and the sweep cache
// and golden figures depend on it.
#include <gtest/gtest.h>

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

TEST(MachineEquivalence, ShortcutsAreBitIdenticalUnderRandomChurn) {
  const auto& catalog = default_catalog();
  Machine a{MachineConfig{}}, b{MachineConfig{}};
  const unsigned cores = a.num_cores();
  const unsigned ways = a.num_ways();

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
    // One random actuator mutation, applied to both machines.
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

}  // namespace
}  // namespace dicer::sim
