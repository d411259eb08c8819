// Golden equivalence tests for the allocation-free simulator hot path.
//
// The pinned values were first harvested (printf %.17g) from the
// implementation before the scratch-state / cached-region-decomposition /
// warm-started occupancy optimisation (commit 0d2c1dc), so these tests
// proved the optimised step() byte-identical to the original, not merely
// close: every comparison is exact double equality. They were re-harvested
// when the quantum solve began to converge (exact occupancy and an
// accelerated fixed point): the damped iteration before it lagged its
// fixed point, so every value moved, by up to ~3e-5 relative here. And
// again when Newton's method replaced Anderson mixing: both stop within
// 1e-9 of the same fixed point, so values moved by at most ~1e-9
// relative. And when settled stretches began to commit in closed form
// (base + k * increment instead of k additions): instructions and memory
// bytes moved by at most ~5e-15 relative. If an intentional model change
// ever lands, re-harvest the
// constants and say so in the change description.
//
// The companion invalidation tests pin the *caching contract*: the region
// decomposition cache must track every actuator path (set_fill_mask,
// attach, detach) exactly, and stale occupancy state (the solver's layout
// cache, a replayed solution) must never survive a mask change.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include "sim/cache/occupancy_model.hpp"
#include "sim/core/catalog.hpp"

namespace dicer::sim {
namespace {

const AppProfile& app(const char* name) {
  return default_catalog().by_name(name);
}

struct GoldenCore {
  unsigned core;
  double instructions;
  double mem_bytes;
  double occupancy_bytes;
  double last_quantum_ipc;
};

void expect_core_exact(const Machine& m, const GoldenCore& g) {
  const auto& t = m.telemetry(g.core);
  EXPECT_EQ(t.instructions, g.instructions) << "core " << g.core;
  EXPECT_EQ(t.mem_bytes, g.mem_bytes) << "core " << g.core;
  EXPECT_EQ(t.occupancy_bytes, g.occupancy_bytes) << "core " << g.core;
  EXPECT_EQ(t.last_quantum_ipc, g.last_quantum_ipc) << "core " << g.core;
}

TEST(MachineGolden, UnmanagedMelee) {
  // milc1 + 9x gcc_base3, 2 s, no masks: the paper's UM baseline shape.
  Machine m{MachineConfig{}};
  m.attach(0, &app("milc1"));
  for (unsigned c = 1; c < 10; ++c) m.attach(c, &app("gcc_base3"));
  m.run_until(m.quantum() + 200);
  EXPECT_EQ(m.last_link_utilisation(), 0.36068346817633717);
  EXPECT_EQ(m.last_link_traffic(), 3079335109.5554786);
  expect_core_exact(m, {0, 3048604388.0918131, 2814756409.683815,
                        4458651.2983159609, 0.58663891557585146});
  expect_core_exact(m, {1, 4380048284.0369921, 257197171.90009499,
                        2417305.4112982266, 0.99324373427916679});
}

TEST(MachineGolden, StaticPartition) {
  // CT-shaped layout: omnetpp1 isolated on 19 ways, 9x gcc_base3 on 1.
  Machine m{MachineConfig{}};
  m.attach(0, &app("omnetpp1"));
  for (unsigned c = 1; c < 10; ++c) m.attach(c, &app("gcc_base3"));
  m.set_fill_mask(0, WayMask::high(19, 20));
  for (unsigned c = 1; c < 10; ++c) m.set_fill_mask(c, WayMask::low(1));
  m.run_until(m.quantum() + 200);
  EXPECT_EQ(m.last_link_utilisation(), 0.50350295372774934);
  EXPECT_EQ(m.last_link_traffic(), 4298656467.4506598);
  expect_core_exact(m, {0, 2798931850.0677552, 175309467.96841303,
                        24903680, 0.63612087501539893});
  expect_core_exact(m, {1, 2758351878.5964942, 935778162.99254525,
                        145635.5555555555, 0.62689815422647599});
}

TEST(MachineGolden, ActuatorChurnMidRun) {
  // Every actuator path mid-run: repartition, throttle, detach, re-attach.
  Machine m{MachineConfig{}};
  m.attach(0, &app("omnetpp1"));
  m.attach(1, &app("lbm1"));
  m.attach(2, &app("gcc_base3"));
  m.run_until(m.quantum() + 50);
  m.set_fill_mask(0, WayMask::high(10, 20));
  m.set_fill_mask(1, WayMask::low(10));
  m.set_mem_throttle(1, 0.5);
  m.run_until(m.quantum() + 50);
  m.detach(2);
  m.run_until(m.quantum() + 50);
  m.attach(2, &app("bzip22"));
  m.set_fill_mask(2, WayMask::low(10));
  m.run_until(m.quantum() + 50);
  EXPECT_EQ(m.last_link_utilisation(), 0.29559828260518456);
  EXPECT_EQ(m.last_link_traffic(), 2523670337.7417631);
  expect_core_exact(m, {0, 2567339546.8691702, 500002628.88433695,
                        13107200.000000002, 0.58959061167284432});
  expect_core_exact(m, {1, 2685230604.8300076, 3472933200.068718,
                        9758438.9070250317, 0.34332902823186678});
  expect_core_exact(m, {2, 3302893157.1584401, 180291834.6369091,
                        3348761.0929749697, 0.93985270418451627});
}

// --- region-decomposition cache invalidation ------------------------------

/// The oracle: decompose the active cores' masks from scratch and require
/// the machine's cached decomposition to match it exactly.
void expect_regions_fresh(Machine& m) {
  std::vector<WayMask> masks;
  for (unsigned c = 0; c < m.num_cores(); ++c) {
    if (m.occupied(c)) masks.push_back(m.fill_mask(c));
  }
  std::vector<CacheRegion> fresh(m.num_ways());
  fresh.resize(
      decompose_regions(masks, m.num_ways(), m.config().way_bytes(), fresh));
  const auto cached = m.current_regions();
  ASSERT_EQ(cached.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(cached[i].capacity_bytes, fresh[i].capacity_bytes) << i;
    EXPECT_EQ(cached[i].sharers.bits, fresh[i].sharers.bits) << i;
  }
}

TEST(MachineRegionCache, TracksEveryActuatorPath) {
  Machine m{MachineConfig{}};
  expect_regions_fresh(m);  // empty machine: no regions

  m.attach(0, &app("omnetpp1"));
  expect_regions_fresh(m);
  m.attach(1, &app("gcc_base3"));
  m.attach(2, &app("gcc_base3"));
  expect_regions_fresh(m);
  m.step();

  m.set_fill_mask(0, WayMask::high(15, 20));
  expect_regions_fresh(m);
  m.step();
  m.set_fill_mask(1, WayMask::low(5));
  m.set_fill_mask(2, WayMask::low(5));
  expect_regions_fresh(m);
  m.step();

  // No-op mask write: still consistent (and must not disturb results).
  m.set_fill_mask(1, WayMask::low(5));
  expect_regions_fresh(m);
  m.step();

  m.detach(1);
  expect_regions_fresh(m);
  m.step();
  m.attach(1, &app("lbm1"));
  expect_regions_fresh(m);
  m.step();
  m.detach(0);
  m.detach(2);
  expect_regions_fresh(m);
  m.step();
  expect_regions_fresh(m);
}

TEST(MachineRegionCache, StaleOccupancyNeverSurvivesShrink) {
  // Drive a cache-hungry app to a large steady-state occupancy, then
  // shrink its partition: the next quanta must confine it to the new
  // region's capacity. A stale decomposition, layout cache or replayed
  // solution would keep reporting the old ~20 MB holding.
  Machine m{MachineConfig{}};
  m.attach(0, &app("omnetpp1"));
  m.run_until(m.quantum() + 100);
  const double way = m.config().way_bytes();
  EXPECT_GT(m.telemetry(0).occupancy_bytes, 4 * way);
  m.set_fill_mask(0, WayMask::low(2));
  m.run_until(m.quantum() + 20);
  EXPECT_LE(m.telemetry(0).occupancy_bytes, 2 * way * 1.001);
}

TEST(MachineRegionCache, RedundantMaskWritesDoNotChangeResults) {
  // A controller that re-asserts the same masks every period must produce
  // exactly the run it would with a single write.
  auto run = [](bool redundant_writes) {
    Machine m{MachineConfig{}};
    m.attach(0, &app("omnetpp1"));
    for (unsigned c = 1; c < 6; ++c) m.attach(c, &app("gcc_base3"));
    m.set_fill_mask(0, WayMask::high(15, 20));
    for (unsigned c = 1; c < 6; ++c) m.set_fill_mask(c, WayMask::low(5));
    for (int period = 0; period < 5; ++period) {
      if (redundant_writes) {
        m.set_fill_mask(0, WayMask::high(15, 20));
        for (unsigned c = 1; c < 6; ++c) m.set_fill_mask(c, WayMask::low(5));
      }
      m.run_until(m.quantum() + 20);
    }
    return m.telemetry(0).instructions;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace dicer::sim
