#include "fleet/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/core/catalog.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
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

/// The full placement log, one line per decision.
std::string placement_lines(const Cluster& cluster) {
  std::string out;
  for (const auto& r : cluster.placement_log()) {
    out += std::to_string(r.tenant_id) + ',' + std::to_string(r.epoch) +
           ',' + r.app + ',' + (r.accepted ? '1' : '0') + ',' +
           (r.migration ? '1' : '0') + ',' + std::to_string(r.machine) +
           ',' + std::to_string(r.core) + '\n';
  }
  return out;
}

/// The per-epoch CSV followed by the full placement log.
std::string run_outputs(const FleetConfig& fc, std::uint64_t epochs) {
  Cluster cluster(fc, sim::default_catalog());
  std::string out;
  for (const auto& row : cluster.run(epochs)) out += epoch_csv_row(row) + '\n';
  return out + placement_lines(cluster);
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

TEST(Cluster, RejectsSloOutsideTheUnitInterval) {
  // slo_norm 2 would mark every machine as violating, -1 none.
  const auto& catalog = sim::default_catalog();
  for (const double slo : {2.0, -1.0, 0.0, 1.0000001}) {
    FleetConfig fc = small_config();
    fc.slo_norm = slo;
    EXPECT_THROW(Cluster(fc, catalog), std::invalid_argument) << slo;
  }
  FleetConfig fc = small_config();
  fc.slo_norm = 1.0;  // "never slower than alone" is a legal SLO
  EXPECT_NO_THROW(Cluster(fc, catalog));
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

// The same contract across data-plane step shards: the fleet steps
// clamp(N / (jobs * 4), 1, 32) contiguous machines per shard, so jobs and
// the machine count pick the slicing — and never a result byte.
TEST(Cluster, CsvIsByteIdenticalAcrossStepShards) {
  FleetConfig fc = small_config();
  fc.num_machines = 18;
  fc.jobs = 1;  // 18 / 4 -> 4,4,4,4,2: an uneven last slice
  const std::string uneven = run_csv(fc, 5);
  fc.jobs = 8;  // 18 / 32 -> 1: one machine per shard
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

std::vector<std::uint64_t> tenant_ids(std::span<const Tenant> tenants) {
  std::vector<std::uint64_t> ids;
  for (const Tenant& t : tenants) ids.push_back(t.sig ? t.id : 0);
  return ids;
}

struct SaturatedRun {
  std::string exports;  ///< CSV, placement log, Prometheus, epoch JSONL
  std::uint64_t untouchable = 0;
  std::uint64_t final_machines = 0;  ///< Cluster::final_machine_epochs()
  /// The recount of final machine-epochs by kind, over the whole run.
  std::uint64_t closed_after_migrations = 0;
  std::uint64_t closed_by_arrival = 0;
  std::uint64_t migrations = 0;
};

/// Runs a small fleet held at every BE slot under a tight SLO (migrations
/// fire every epoch, many machines are closed with nobody leaving),
/// checking every epoch that the machines the touchability rule (restated
/// here) calls untouchable are counted, keep their tenants, and are
/// neither a placement destination nor a migration source; and that the
/// final machines are counted: the untouchable ones, those closed once
/// migrations were over (closed at the epoch's end without an arrival)
/// and those an arrival closed.
SaturatedRun run_saturated(unsigned jobs, std::uint64_t epochs) {
  FleetConfig fc = small_config();
  fc.num_machines = 40;
  fc.cores_used = 3;
  fc.slo_norm = 0.97;
  fc.migrate_after = 1;
  fc.churn.arrival_rate_per_sec = 40.0;
  fc.churn.mean_lifetime_sec = 8.0;
  fc.jobs = jobs;
  trace::Tracer tracer;
  telemetry::Registry registry;
  auto counts = std::make_shared<telemetry::TraceCounterSink>(registry);
  auto events = std::make_shared<trace::MemorySink>();
  tracer.add_sink(counts);
  tracer.add_sink(events);
  fc.tracer = &tracer;
  fc.metrics = &registry;
  Cluster cluster(fc, sim::default_catalog());
  const PlacementIndex& index = *cluster.placement_index();
  std::vector<bool> violated(fc.num_machines, false);
  SaturatedRun run;
  std::string jsonl;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    // Closed, nobody departing, and (migrate_after 1) no SLO violation in
    // the last epoch.
    const double start = static_cast<double>(e) * fc.epoch_sec;
    std::vector<unsigned> untouchable;
    std::vector<std::vector<std::uint64_t>> before;
    for (unsigned m = 0; m < fc.num_machines; ++m) {
      bool departing = false;
      for (const Tenant& t : index.tenants(m)) {
        departing |= t.sig && t.depart_t_sec <= start;
      }
      if (index.is_open(m) || departing || violated[m]) continue;
      untouchable.push_back(m);
      before.push_back(tenant_ids(index.tenants(m)));
    }
    const std::uint64_t counted = cluster.untouchable_machine_epochs();
    const std::uint64_t counted_final = cluster.final_machine_epochs();
    const std::size_t decisions = cluster.placement_log().size();
    events->take();
    const EpochMetrics row = cluster.step_epoch();
    EXPECT_EQ(cluster.untouchable_machine_epochs() - counted,
              untouchable.size())
        << "epoch " << e;
    const auto& log = cluster.placement_log();
    // Arrivals only close machines, so a machine closed at the epoch's
    // end was closed after migrations, or by an arrival placed on it.
    std::vector<bool> arrived(fc.num_machines, false);
    for (std::size_t d = decisions; d < log.size(); ++d) {
      if (log[d].accepted && !log[d].migration) arrived[log[d].machine] = true;
    }
    std::uint64_t after_migrations = 0;
    std::uint64_t by_arrival = 0;
    for (unsigned m = 0; m < fc.num_machines; ++m) {
      if (index.is_open(m)) continue;
      if (arrived[m]) {
        ++by_arrival;
      } else if (std::find(untouchable.begin(), untouchable.end(), m) ==
                 untouchable.end()) {
        ++after_migrations;
      }
    }
    EXPECT_EQ(cluster.final_machine_epochs() - counted_final,
              untouchable.size() + after_migrations + by_arrival)
        << "epoch " << e;
    run.closed_after_migrations += after_migrations;
    run.closed_by_arrival += by_arrival;
    for (std::size_t k = 0; k < untouchable.size(); ++k) {
      const unsigned m = untouchable[k];
      EXPECT_EQ(tenant_ids(index.tenants(m)), before[k]) << "machine " << m;
      for (std::size_t d = decisions; d < log.size(); ++d) {
        EXPECT_FALSE(log[d].accepted && log[d].machine == m)
            << "machine " << m << " placed into in epoch " << e;
      }
      for (const trace::Event& ev : events->events()) {
        if (ev.kind != trace::Kind::kMigration) continue;
        EXPECT_NE(trace::field_uint(ev, "from"), m) << "epoch " << e;
      }
    }
    for (unsigned m = 0; m < fc.num_machines; ++m) {
      violated[m] = cluster.last_epoch_stats()[m].slo_violated;
    }
    run.exports += epoch_csv_row(row) + '\n';
    jsonl += epoch_jsonl_row(row) + '\n';
    run.migrations += row.migrations;
  }
  tracer.remove_sink(counts);
  tracer.remove_sink(events);
  run.exports += placement_lines(cluster) +
                 telemetry::to_prometheus(registry) + jsonl;
  run.untouchable = cluster.untouchable_machine_epochs();
  run.final_machines = cluster.final_machine_epochs();
  return run;
}

// The overlap of the data plane with the control plane: machines no
// decision can reach step while the main thread places, and so do the
// machines closed once migrations are over and those an arrival closes.
// Every kind occurs, each epoch's counts match run_saturated's recount,
// and the exports and both counts are the same at any worker count (no
// pool at jobs 1, where each shard runs inline where it is submitted).
TEST(Cluster, UntouchableMachinesStepAlongsideTheControlPlane) {
  const SaturatedRun serial = run_saturated(1, 12);
  EXPECT_GT(serial.untouchable, 0u);
  EXPECT_GT(serial.closed_after_migrations, 0u);
  EXPECT_GT(serial.closed_by_arrival, 0u);
  EXPECT_GT(serial.migrations, 0u);
  for (const unsigned jobs : {2u, 4u, 8u}) {
    const SaturatedRun sharded = run_saturated(jobs, 12);
    EXPECT_EQ(sharded.exports, serial.exports) << "jobs " << jobs;
    EXPECT_EQ(sharded.untouchable, serial.untouchable) << "jobs " << jobs;
    EXPECT_EQ(sharded.final_machines, serial.final_machines)
        << "jobs " << jobs;
  }
}

/// A churny fleet's CSV and every dicer_events_*_total line, counted by a
/// TraceCounterSink alone or, if `record`, beside a recording MemorySink.
std::string counted_exports(unsigned jobs, bool record) {
  FleetConfig fc = churny_config("mrc");
  fc.jobs = jobs;
  trace::Tracer tracer;
  telemetry::Registry registry;
  auto events = std::make_shared<trace::MemorySink>();
  tracer.add_sink(std::make_shared<telemetry::TraceCounterSink>(registry));
  if (record) tracer.add_sink(events);
  fc.tracer = &tracer;
  fc.metrics = &registry;
  std::string out = run_csv(fc, 12);
  tracer.clear_sinks();
  EXPECT_GT(tracer.events_counted(), 0u);
  EXPECT_EQ(tracer.events_built(), record ? tracer.events_counted() : 0u);
  EXPECT_EQ(events->events().size(), tracer.events_built());
  std::istringstream prom(telemetry::to_prometheus(registry));
  for (std::string line; std::getline(prom, line);) {
    if (line.rfind("dicer_events_", 0) == 0) out += line + '\n';
  }
  return out;
}

// Counting events without building them changes no export: a recording
// sink beside the counter leaves the CSV and every event count as they
// were, at any worker count.
TEST(Cluster, CountedEventsMatchRecordedEvents) {
  const std::string counted = counted_exports(1, false);
  EXPECT_NE(counted.find("dicer_events_period_total "), std::string::npos);
  EXPECT_EQ(counted.find("dicer_events_period_total 0\n"), std::string::npos);
  EXPECT_EQ(counted_exports(4, false), counted);
  EXPECT_EQ(counted_exports(1, true), counted);
  EXPECT_EQ(counted_exports(4, true), counted);
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
