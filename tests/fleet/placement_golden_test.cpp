// Golden pins for every placement engine on a fleet large enough that the
// indexed engines' caching and tie-breaking matter. Each case runs a
// seeded 1,500-machine fleet — arrivals, SLO-triggered migrations and
// rejections — and folds three of its outputs into FNV-1a hashes: every
// placement-log record, the per-epoch CSV rows and the Prometheus export
// of the run's metrics registry. The `mrc` log hash was harvested from the
// linear-scan `mrc` engine, so it guards that any faster resolution of the
// same argmax returns the same decision, bit for bit; the other values
// pin the tenancy bookkeeping behind every export. The CSV and Prometheus
// hashes were re-harvested when the quantum solve began to converge (the
// simulated IPCs behind them moved, and the solver counter's help text
// changed) and when Newton's method replaced Anderson mixing (IPCs moved
// within 1e-9 relative), and again when time became an integer quantum
// count with settled stretches committed in closed form (IPCs moved at
// ULP level), and for `mrc` when the Newton step became a structured
// solve and the miss-ratio curves stopped calling pow() (ULP level
// again); every decision and the log hashes stayed the same each time.
// Re-harvest only for an intentional change to the placement model, the
// simulator, the churn or an export format, and say so in the change
// description.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "fleet/cluster.hpp"
#include "sim/core/catalog.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/trace.hpp"

namespace dicer::fleet {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) {
    // Little-endian byte order, independent of the host's.
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    bytes(b, sizeof b);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

struct Golden {
  std::size_t decisions;
  std::uint64_t log;
  std::uint64_t csv;
  std::uint64_t prometheus;
};

/// Runs the golden fleet under `engine` and checks its hashes.
void expect_golden(const std::string& engine, const Golden& want) {
  FleetConfig fc;
  fc.num_machines = 1500;
  fc.cores_used = 3;  // two BE slots: the fleet fills, arrivals get rejected
  fc.placement = engine;
  fc.slo_norm = 0.97;
  fc.migrate_after = 1;
  fc.churn.arrival_rate_per_sec = 900.0;
  fc.churn.mean_lifetime_sec = 20.0;
  fc.churn.seed = 5;
  fc.seed = 4;
  fc.jobs = 0;
  // A run-local tracer feeds the registry's actuation counters, as
  // fleet_sim's global one does.
  trace::Tracer tracer;
  telemetry::Registry registry;
  auto sink = std::make_shared<telemetry::TraceCounterSink>(registry);
  tracer.add_sink(sink);
  fc.tracer = &tracer;
  fc.metrics = &registry;
  Cluster cluster(fc, sim::default_catalog());
  Fnv1a csv;
  for (const auto& row : cluster.run(6)) csv.str(epoch_csv_row(row));
  tracer.remove_sink(sink);

  Fnv1a log;
  std::uint64_t migrations = 0, rejections = 0;
  for (const auto& rec : cluster.placement_log()) {
    log.u64(rec.tenant_id);
    log.str(rec.app);
    log.u64(rec.machine);
    log.u64(rec.core);
    log.u64(rec.migration ? 1 : 0);
    log.u64(rec.accepted ? 1 : 0);
    migrations += rec.migration ? 1 : 0;
    rejections += rec.accepted ? 0 : 1;
  }
  Fnv1a prometheus;
  prometheus.str(telemetry::to_prometheus(registry));

  // The settings exercise every kind of decision.
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(rejections, 0u);
  EXPECT_EQ(cluster.placement_log().size(), want.decisions);
  EXPECT_EQ(log.h, want.log) << std::hex << log.h;
  EXPECT_EQ(csv.h, want.csv) << std::hex << csv.h;
  EXPECT_EQ(prometheus.h, want.prometheus) << std::hex << prometheus.h;
}

TEST(PlacementGolden, RandomExportsOn1500Machines) {
  expect_golden("random", {6896, 0x6b94655563e69e1aull, 0x1b36032ead3f555eull,
                          0x62e1d2fd87cb51e6ull});
}

TEST(PlacementGolden, LeastLoadedExportsOn1500Machines) {
  expect_golden("least-loaded",
                {6955, 0x112c629c8e433e64ull, 0x61cec6d9411e77d1ull,
                 0x950733a359328cefull});
}

TEST(PlacementGolden, MrcDecisionsOn1500MachinesMatchTheLinearScan) {
  expect_golden("mrc", {7054, 0xe57db112b6139548ull, 0xa2ebd0f1573c6ce4ull,
                       0x187751493974e1a0ull});
}

}  // namespace
}  // namespace dicer::fleet
