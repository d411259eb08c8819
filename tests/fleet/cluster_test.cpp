#include "fleet/cluster.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/core/catalog.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::fleet {
namespace {

FleetConfig small_config() {
  FleetConfig fc;
  fc.num_machines = 16;
  fc.cores_used = 4;
  fc.churn.arrival_rate_per_sec = 6.0;
  fc.churn.mean_lifetime_sec = 4.0;
  fc.churn.seed = 17;
  fc.seed = 11;
  fc.jobs = 1;
  return fc;
}

std::string run_csv(const FleetConfig& fc, std::uint64_t epochs) {
  Cluster cluster(fc, sim::default_catalog());
  std::string csv = epoch_csv_header() + "\n";
  for (const auto& row : cluster.run(epochs)) {
    csv += epoch_csv_row(row) + "\n";
  }
  return csv;
}

/// A small fleet with multi-arrival epochs and eager migrations, so every
/// decision path (arrivals, excluded migration sources) runs.
FleetConfig churny_config(const std::string& placement) {
  FleetConfig fc = small_config();
  fc.num_machines = 64;
  fc.placement = placement;
  fc.migrate_after = 1;
  fc.churn.arrival_rate_per_sec = 30.0;
  fc.churn.mean_lifetime_sec = 3.0;
  return fc;
}

/// The per-epoch CSV followed by the full placement log.
std::string run_outputs(const FleetConfig& fc, std::uint64_t epochs) {
  Cluster cluster(fc, sim::default_catalog());
  std::string out;
  for (const auto& row : cluster.run(epochs)) out += epoch_csv_row(row) + '\n';
  for (const auto& r : cluster.placement_log()) {
    out += std::to_string(r.tenant_id) + ',' + std::to_string(r.epoch) +
           ',' + r.app + ',' + (r.accepted ? '1' : '0') + ',' +
           (r.migration ? '1' : '0') + ',' + std::to_string(r.machine) +
           ',' + std::to_string(r.core) + '\n';
  }
  return out;
}

TEST(Cluster, ValidatesConfig) {
  const auto& catalog = sim::default_catalog();
  FleetConfig fc = small_config();
  fc.num_machines = 0;
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
  fc = small_config();
  fc.cores_used = 1;  // no room for any BE
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
  fc = small_config();
  fc.cores_used = 99;  // more than the machine has
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
  fc = small_config();
  fc.epoch_sec = 0.001;  // shorter than one 10 ms quantum
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
  fc = small_config();
  fc.placement = "bogus";
  EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument);
}

TEST(Cluster, EpochInvariants) {
  Cluster cluster(small_config(), sim::default_catalog());
  std::uint64_t placed = 0, rejected = 0, departed = 0;
  for (int e = 0; e < 6; ++e) {
    const auto m = cluster.step_epoch();
    EXPECT_EQ(m.epoch, static_cast<std::uint64_t>(e));
    EXPECT_DOUBLE_EQ(m.t_sec, (e + 1) * small_config().epoch_sec);
    EXPECT_LE(m.rejected, m.arrivals);
    EXPECT_LE(m.occupied_machines, cluster.num_machines());
    EXPECT_GT(m.fleet_efu, 0.0);
    // Normalised IPCs can transiently top 1 (warm-up vs the steady-state
    // solo reference), so the bound is loose, not exactly 1.
    EXPECT_LT(m.fleet_efu, 1.5);
    EXPECT_GT(m.hp_norm_mean, 0.0);
    EXPECT_LE(m.slo_violation_rate, 1.0);
    placed += m.arrivals - m.rejected;
    rejected += m.rejected;
    departed += m.departures;
    // Conservation: everyone placed either departed or is still running.
    EXPECT_EQ(cluster.tenants_running(), placed - departed);
  }
  EXPECT_EQ(cluster.epochs_done(), 6u);
  // The per-BE-core capacity bounds what can ever run at once.
  EXPECT_LE(cluster.tenants_running(),
            cluster.num_machines() * (small_config().cores_used - 1));
}

TEST(Cluster, PlacementLogMatchesMetrics) {
  Cluster cluster(small_config(), sim::default_catalog());
  std::uint64_t arrivals = 0, migrations = 0;
  for (int e = 0; e < 6; ++e) {
    const auto m = cluster.step_epoch();
    arrivals += m.arrivals;
    migrations += m.migrations;
  }
  std::uint64_t log_arrivals = 0, log_migrations = 0;
  for (const auto& rec : cluster.placement_log()) {
    if (rec.migration) {
      log_migrations += rec.accepted ? 1u : 0u;
    } else {
      ++log_arrivals;
      if (rec.accepted) {
        EXPECT_LT(rec.machine, cluster.num_machines());
        EXPECT_GE(rec.core, 1u);
        EXPECT_LT(rec.core, small_config().cores_used);
      }
    }
  }
  EXPECT_EQ(log_arrivals, arrivals);
  EXPECT_EQ(log_migrations, migrations);
}

// The tentpole determinism contract: same (config, seed) => byte-identical
// per-epoch CSV at any worker count.
TEST(Cluster, CsvIsByteIdenticalAcrossJobCounts) {
  FleetConfig fc = small_config();
  fc.jobs = 1;
  const std::string serial = run_csv(fc, 5);
  fc.jobs = 8;
  const std::string sharded = run_csv(fc, 5);
  EXPECT_EQ(serial, sharded);
  fc.jobs = 3;
  EXPECT_EQ(serial, run_csv(fc, 5));
}

// The same contract across data-plane batch slicings: the fleet carves
// clamp(N / (jobs * 4), 1, 32) machines per MachineBatch, so jobs and the
// machine count pick the slicing — and never a result byte.
TEST(Cluster, CsvIsByteIdenticalAcrossBatchStepping) {
  FleetConfig fc = small_config();
  fc.num_machines = 18;
  fc.jobs = 1;  // 18 / 4 -> 4,4,4,4,2: an uneven last slice
  const std::string uneven = run_csv(fc, 5);
  fc.jobs = 8;  // 18 / 32 -> 1: one machine per batch
  EXPECT_EQ(uneven, run_csv(fc, 5));
  fc.jobs = 2;  // 18 / 8 -> 2: nine even slices, run on two workers
  EXPECT_EQ(uneven, run_csv(fc, 5));
}

// Churn replay: a fixed seed pins every placement decision, so two fleets
// built from the same config agree on the full decision log.
TEST(Cluster, ChurnReplayPinsPlacementDecisions) {
  const auto& catalog = sim::default_catalog();
  FleetConfig fc = small_config();
  Cluster a(fc, catalog);
  fc.jobs = 4;  // worker count must not leak into decisions either
  Cluster b(fc, catalog);
  a.run(5);
  b.run(5);
  const auto& la = a.placement_log();
  const auto& lb = b.placement_log();
  ASSERT_EQ(la.size(), lb.size());
  ASSERT_GT(la.size(), 0u);
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la[i].tenant_id, lb[i].tenant_id);
    EXPECT_EQ(la[i].epoch, lb[i].epoch);
    EXPECT_EQ(la[i].app, lb[i].app);
    EXPECT_EQ(la[i].accepted, lb[i].accepted);
    EXPECT_EQ(la[i].migration, lb[i].migration);
    EXPECT_EQ(la[i].machine, lb[i].machine);
    EXPECT_EQ(la[i].core, lb[i].core);
  }
}

// Every engine's decisions live on the serial control plane, so the data
// plane's worker count never reaches them: the CSV and the placement log,
// migrations included, are identical at any `jobs`.
TEST(Cluster, EveryEngineIsJobsInvariant) {
  for (const auto& engine : known_placements()) {
    FleetConfig fc = churny_config(engine);
    const std::string serial = run_outputs(fc, 5);
    fc.jobs = 8;
    EXPECT_EQ(serial, run_outputs(fc, 5)) << engine;
  }
}

// The control-plane timers: the parent scope survives (profile
// continuity) and the three phase children record alongside it.
TEST(Cluster, PhaseTimersRecorded) {
  auto count_of = [](const std::string& label) {
    for (const auto& [name, stat] : trace::TimerRegistry::global().snapshot()) {
      if (name == label) return stat.count;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t parent = count_of("fleet.placement");
  const std::uint64_t departures = count_of("fleet.departures");
  const std::uint64_t migrations = count_of("fleet.migrations");
  const std::uint64_t arrivals = count_of("fleet.arrivals");

  FleetConfig fc = churny_config("mrc");
  fc.num_machines = 16;
  Cluster cluster(fc, sim::default_catalog());
  cluster.step_epoch();

  EXPECT_EQ(count_of("fleet.placement"), parent + 1);
  EXPECT_EQ(count_of("fleet.departures"), departures + 1);
  EXPECT_EQ(count_of("fleet.migrations"), migrations + 1);
  EXPECT_EQ(count_of("fleet.arrivals"), arrivals + 1);
}

TEST(Cluster, SeedChangesTheFleet) {
  FleetConfig fc = small_config();
  const std::string a = run_csv(fc, 3);
  fc.seed = fc.seed + 1;
  fc.churn.seed = fc.churn.seed + 1;
  const std::string b = run_csv(fc, 3);
  EXPECT_NE(a, b);
}

// The headline acceptance check: MRC-aware placement beats random on
// aggregate EFU under a load where placement quality matters.
TEST(Cluster, MrcPlacementBeatsRandomOnFleetEfu) {
  const auto& catalog = sim::default_catalog();
  FleetConfig fc = small_config();
  fc.num_machines = 32;
  fc.cores_used = 6;
  fc.churn.arrival_rate_per_sec = 25.0;
  fc.churn.mean_lifetime_sec = 8.0;

  fc.placement = "random";
  Cluster random_fleet(fc, catalog);
  const double random_efu = Cluster::mean_efu(random_fleet.run(10));

  fc.placement = "mrc";
  Cluster mrc_fleet(fc, catalog);
  const double mrc_efu = Cluster::mean_efu(mrc_fleet.run(10));

  EXPECT_GT(mrc_efu, random_efu);
}

TEST(Cluster, RejectsWhenEveryCoreIsBusy) {
  FleetConfig fc = small_config();
  fc.num_machines = 2;
  fc.cores_used = 2;  // one BE slot per machine
  fc.churn.arrival_rate_per_sec = 20.0;
  fc.churn.mean_lifetime_sec = 60.0;  // effectively nobody leaves
  Cluster cluster(fc, sim::default_catalog());
  std::uint64_t rejected = 0;
  for (int e = 0; e < 3; ++e) rejected += cluster.step_epoch().rejected;
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(cluster.tenants_running(), 2u);
}

// The control run: a zero arrival rate leaves every HP alone for the
// whole run — no arrivals, no tenants, no placement decisions.
TEST(Cluster, IdleFleetRunsWithoutTenants) {
  FleetConfig fc = small_config();
  fc.churn.arrival_rate_per_sec = 0.0;
  Cluster cluster(fc, sim::default_catalog());
  const auto rows = cluster.run(5);
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.arrivals, 0u);
    EXPECT_EQ(row.tenants, 0u);
    EXPECT_EQ(row.occupied_machines, 0u);
    EXPECT_GT(row.hp_norm_mean, 0.0);
  }
  EXPECT_EQ(cluster.tenants_running(), 0u);
  EXPECT_TRUE(cluster.placement_log().empty());
}

TEST(Cluster, CsvRowRoundTripsShape) {
  EpochMetrics m;
  m.epoch = 3;
  m.t_sec = 4.0;
  m.fleet_efu = 0.875;
  const auto row = epoch_csv_row(m);
  // Same column count as the header.
  const auto count = [](const std::string& s) {
    std::size_t n = 1;
    for (char c : s) n += c == ',' ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count(row), count(epoch_csv_header()));
  EXPECT_EQ(row.substr(0, 4), "3,4,");
}

}  // namespace
}  // namespace dicer::fleet
