// Pins what a machine costs in heap: allocations and live bytes per booted
// machine of a churn-shaped fleet, its first epoch's allocations, and that
// stepping allocates nothing once a machine's blocks are sized — an
// HP-alone machine from its second epoch on, and a machine whose BEs
// attach one allocation per growth of its solver block (and one more the
// first time its masks overlap).
//
// The counts come from a replacement global operator new that counts
// calls and keeps every block's requested size in a header, so live bytes
// are exact and deterministic (no allocator overhead). A sanitizer runtime
// replaces operator new itself, so under ASan or TSan this executable
// keeps the standard one and every test skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "fleet/cluster.hpp"
#include "policy/factory.hpp"
#include "policy/host.hpp"
#include "sim/core/catalog.hpp"
#include "sim/machine.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DICER_FOOTPRINT_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DICER_FOOTPRINT_SANITIZED 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

}  // namespace

#ifndef DICER_FOOTPRINT_SANITIZED

namespace {

/// Room before each block for its requested size, keeping the block at
/// malloc's alignment.
constexpr std::size_t kHeader = 16;

void* counted_new(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = n;
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(n),
                         std::memory_order_relaxed);
  return static_cast<char*>(raw) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(raw)),
      std::memory_order_relaxed);
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

#endif  // DICER_FOOTPRINT_SANITIZED

namespace dicer {
namespace {

#ifdef DICER_FOOTPRINT_SANITIZED
#define SKIP_UNDER_SANITIZER() \
  GTEST_SKIP() << "a sanitizer runtime owns operator new"
#else
#define SKIP_UNDER_SANITIZER() (void)0
#endif

/// Heap activity since construction.
struct HeapDelta {
  std::uint64_t allocations0 = g_allocations.load();
  std::int64_t bytes0 = g_live_bytes.load();

  std::uint64_t allocations() const {
    return g_allocations.load() - allocations0;
  }
  std::int64_t bytes() const { return g_live_bytes.load() - bytes0; }
};

const sim::AppProfile& app(const char* name) {
  return sim::default_catalog().by_name(name);
}

// Measured on x86-64 with libstdc++: 7.20 allocations per booted machine,
// 1.60 per machine in the first epoch and 4,146 live bytes per machine
// after it (fleet-wide state included). A machine that kept its per-core
// and solver state in separate vectors read 22.20, 23.41 and 4,571. The
// bounds leave a little room for standard-library differences and fail
// if a per-machine vector comes back.
constexpr double kBootAllocationsPerMachine = 7.5;
constexpr double kBytesPerMachine = 4200.0;
constexpr double kFirstEpochAllocationsPerMachine = 2.0;

TEST(Footprint, ChurnFleetBootAndFirstEpoch) {
  SKIP_UNDER_SANITIZER();
  // A churn-shaped fleet (fleet_churn_10k at a tenth of its size: ~0.3
  // tenants per machine), stepped on the calling thread.
  constexpr unsigned kMachines = 1000;
  fleet::FleetConfig fc;
  fc.num_machines = kMachines;
  fc.seed = 1;
  fc.jobs = 1;
  fc.churn.arrival_rate_per_sec = 40.0;
  fc.churn.mean_lifetime_sec = 8.0;
  fc.churn.seed = 2;
  const sim::AppCatalog& catalog = sim::default_catalog();

  const HeapDelta boot;
  fleet::Cluster cluster(fc, catalog);
  const double boot_allocations =
      static_cast<double>(boot.allocations()) / kMachines;

  const HeapDelta first;
  cluster.step_epoch();
  const double first_allocations =
      static_cast<double>(first.allocations()) / kMachines;
  // Everything the fleet holds once each machine has stepped.
  const double bytes = static_cast<double>(boot.bytes()) / kMachines;

  std::printf("per machine: boot %.2f allocations, first epoch %.2f; "
              "%.0f live bytes after it\n",
              boot_allocations, first_allocations, bytes);
  EXPECT_LE(boot_allocations, kBootAllocationsPerMachine);
  EXPECT_LE(first_allocations, kFirstEpochAllocationsPerMachine);
  EXPECT_LE(bytes, kBytesPerMachine);
}

TEST(Footprint, HpAloneMachineStepsWithoutAllocating) {
  SKIP_UNDER_SANITIZER();
  policy::Host host({}, app("milc1"));
  auto dicer = policy::make_policy("DICER");
  dicer->setup(host.context());
  const std::uint64_t epoch = host.machine().config().quanta(1.0);
  host.run_until(*dicer, epoch);  // the first epoch may warm thread-locals

  const HeapDelta later;
  host.run_until(*dicer, 20 * epoch);
  EXPECT_EQ(later.allocations(), 0u);
  EXPECT_GT(host.machine().solver_stats().solves, 1u);
}

TEST(Footprint, AttachAllocatesOncePerSlotGrowth) {
  SKIP_UNDER_SANITIZER();
  const sim::AppProfile& hp = app("milc1");  // builds the catalog
  const sim::AppProfile& be = app("gcc_base3");
  sim::Machine m;
  {
    const HeapDelta attach;
    m.attach(0, &hp);
    EXPECT_EQ(attach.allocations(), 1u) << "the first slot";
  }
  m.run_until(100);
  for (unsigned core = 1; core < 4; ++core) {
    const HeapDelta attach;
    m.attach(core, &be);
    EXPECT_LE(attach.allocations(), 1u) << "core " << core;
  }
  // A CT-style split: the HP's partition, and one the BEs share.
  m.set_fill_mask(0, sim::WayMask::high(19, m.num_ways()));
  for (unsigned core = 1; core < 4; ++core) {
    m.set_fill_mask(core, sim::WayMask::low(1));
  }
  {
    const HeapDelta step;
    m.run_until(m.quantum() + 500);
    EXPECT_EQ(step.allocations(), 0u) << "stepping";
  }
  // A departure and a new tenant within the slots held, re-associated
  // to the BE partition as a fleet does: no growth.
  m.detach(2);
  {
    const HeapDelta reattach;
    m.attach(2, &be);
    m.set_fill_mask(2, sim::WayMask::low(1));
    m.run_until(m.quantum() + 500);
    EXPECT_EQ(reattach.allocations(), 0u);
  }
  // Overlapping partitions need more region room: one growth, then none.
  m.set_fill_mask(2, sim::WayMask::low(2));
  {
    const HeapDelta overlap;
    m.run_until(m.quantum() + 500);
    EXPECT_EQ(overlap.allocations(), 1u);
  }
  m.set_fill_mask(2, sim::WayMask::low(1));
  m.set_fill_mask(2, sim::WayMask::low(2));
  {
    const HeapDelta again;
    m.run_until(m.quantum() + 500);
    EXPECT_EQ(again.allocations(), 0u);
  }
}

}  // namespace
}  // namespace dicer
