// Jobs-invariance of the observability exports: the same fleet run must
// produce byte-identical Prometheus text and per-epoch JSONL at any worker
// count — the CSV determinism contract extended to the metrics layer.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fleet/cluster.hpp"
#include "sim/core/catalog.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
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

struct RunOutput {
  std::string prometheus;
  std::string jsonl;
  std::vector<EpochMetrics> rows;
};

RunOutput run_config_with_metrics(FleetConfig fc, std::uint64_t epochs = 5) {
  // A run-local tracer + counter sink: actuation counters come from the
  // policies' existing event emission, fully isolated from other tests.
  trace::Tracer tracer;
  telemetry::Registry registry;
  auto sink = std::make_shared<telemetry::TraceCounterSink>(registry);
  tracer.add_sink(sink);
  fc.tracer = &tracer;
  fc.metrics = &registry;
  Cluster cluster(fc, sim::default_catalog());
  RunOutput out;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    out.rows.push_back(cluster.step_epoch());
    out.jsonl += epoch_jsonl_row(out.rows.back()) + "\n";
  }
  tracer.remove_sink(sink);
  out.prometheus = telemetry::to_prometheus(registry);
  return out;
}

RunOutput run_with_metrics(unsigned jobs, std::uint64_t epochs = 5) {
  FleetConfig fc = small_config();
  fc.jobs = jobs;
  return run_config_with_metrics(fc, epochs);
}

TEST(FleetMetricsExport, ByteIdenticalAcrossWorkerCounts) {
  const RunOutput serial = run_with_metrics(1);
  const RunOutput parallel8 = run_with_metrics(8);
  EXPECT_EQ(serial.prometheus, parallel8.prometheus);
  EXPECT_EQ(serial.jsonl, parallel8.jsonl);
  // The registry actually saw the run (not trivially-empty equality).
  EXPECT_NE(serial.prometheus.find("dicer_fleet_machine_efu_count"),
            std::string::npos);
  EXPECT_NE(serial.prometheus.find("dicer_events_period_total"),
            std::string::npos);
}

TEST(FleetMetricsExport, ByteIdenticalAcrossStepShards) {
  // The sharded data plane (shards of clamp(N / (jobs * 4), 1, 32)
  // contiguous machines) must leave every export — Prometheus text
  // (including the dicer_solver_* counters the bulk replay commits feed)
  // and per-epoch JSONL — byte-identical at any shard slicing.
  FleetConfig fc = small_config();
  fc.num_machines = 18;
  fc.jobs = 1;  // 18 / 4 -> 4,4,4,4,2: an uneven last slice
  const RunOutput uneven = run_config_with_metrics(fc);

  fc.jobs = 8;  // 18 / 32 -> 1: one machine per shard, on 8 workers
  const RunOutput single = run_config_with_metrics(fc);
  EXPECT_EQ(uneven.prometheus, single.prometheus);
  EXPECT_EQ(uneven.jsonl, single.jsonl);

  fc.jobs = 2;  // 18 / 8 -> 2: nine slices of two, on 2 workers
  const RunOutput pairs = run_config_with_metrics(fc);
  EXPECT_EQ(uneven.prometheus, pairs.prometheus);
  EXPECT_EQ(uneven.jsonl, pairs.jsonl);

  // Replayed quanta were counted (not a vacuous comparison).
  EXPECT_NE(uneven.prometheus.find("dicer_solver_replays_total"),
            std::string::npos);
}

TEST(FleetMetricsExport, SolverCountersAccumulate) {
  trace::Tracer tracer;
  telemetry::Registry registry;
  FleetConfig fc = small_config();
  fc.tracer = &tracer;
  fc.metrics = &registry;
  Cluster cluster(fc, sim::default_catalog());
  cluster.run(3);
  // Every machine steps ~epoch/quantum times per epoch; the folded deltas
  // must reflect that scale, and solves + replays partition the quanta.
  const auto quanta = registry.counter("dicer_solver_quanta_total").value();
  const auto solves = registry.counter("dicer_solver_solves_total").value();
  const auto replays = registry.counter("dicer_solver_replays_total").value();
  EXPECT_GT(quanta, 0u);
  EXPECT_EQ(quanta, solves + replays);
  EXPECT_EQ(registry.counter("dicer_fleet_epochs_total").value(), 3u);
}

TEST(FleetMetricsExport, PercentileColumnsAreOrderedAndPresent) {
  FleetConfig fc = small_config();
  Cluster cluster(fc, sim::default_catalog());
  const auto rows = cluster.run(4);
  for (const auto& m : rows) {
    EXPECT_LE(m.efu_p50, m.efu_p95 + 1e-12);
    EXPECT_LE(m.efu_p95, m.efu_p99 + 1e-12);
    EXPECT_LE(m.hp_slowdown_p50, m.hp_slowdown_p95 + 1e-12);
    EXPECT_LE(m.hp_slowdown_p95, m.hp_slowdown_p99 + 1e-12);
    EXPECT_LE(m.hp_slowdown_p99, m.hp_slowdown_max + 1e-12);
    EXPECT_GT(m.efu_p50, 0.0);
    EXPECT_GE(m.slo_violation_rate_occupied, 0.0);
    EXPECT_LE(m.slo_violation_rate_occupied, 1.0);
  }
}

TEST(FleetMetricsExport, CsvAndJsonlShapesAgree) {
  FleetConfig fc = small_config();
  Cluster cluster(fc, sim::default_catalog());
  const EpochMetrics m = cluster.step_epoch();

  const std::string header = epoch_csv_header();
  const std::string row = epoch_csv_row(m);
  const auto count_ch = [](const std::string& s, char c) {
    std::size_t n = 0;
    for (char x : s) n += x == c;
    return n;
  };
  // Same column count in header and row, and the new columns are there.
  EXPECT_EQ(count_ch(header, ','), count_ch(row, ','));
  EXPECT_NE(header.find("efu_p99"), std::string::npos);
  EXPECT_NE(header.find("hp_slowdown_max"), std::string::npos);
  EXPECT_NE(header.find("slo_violation_rate_occupied"), std::string::npos);
  // Historical columns stay (comparability with pre-existing CSVs).
  EXPECT_NE(header.find("slo_violation_rate,"), std::string::npos);

  // The JSONL row carries exactly the CSV columns as keys.
  const std::string json = epoch_jsonl_row(m);
  std::istringstream cols(header);
  std::string col;
  while (std::getline(cols, col, ',')) {
    EXPECT_NE(json.find("\"" + col + "\":"), std::string::npos) << col;
  }
}

TEST(FleetMetricsExport, LastEpochStatsMatchRow) {
  FleetConfig fc = small_config();
  Cluster cluster(fc, sim::default_catalog());
  EXPECT_TRUE(cluster.last_epoch_stats().empty());
  const EpochMetrics m = cluster.step_epoch();
  const auto& stats = cluster.last_epoch_stats();
  ASSERT_EQ(stats.size(), cluster.num_machines());
  double efu_sum = 0.0;
  std::uint64_t violations = 0, occupied = 0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].machine, static_cast<unsigned>(i));
    EXPECT_NE(stats[i].hp, nullptr);
    efu_sum += stats[i].efu;
    violations += stats[i].slo_violated;
    occupied += stats[i].tenants > 0;
  }
  EXPECT_DOUBLE_EQ(m.fleet_efu,
                   efu_sum / static_cast<double>(stats.size()));
  EXPECT_EQ(m.slo_violations, violations);
  EXPECT_EQ(m.occupied_machines, occupied);
}

}  // namespace
}  // namespace dicer::fleet
