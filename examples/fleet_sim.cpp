// Fleet-scale consolidation: a datacenter of DICER machines under tenant
// churn, driven by a pluggable placement engine.
//
//   ./fleet_sim [--machines 500] [--epochs 20] [--placement mrc]
//               [--policy DICER] [--cores 10] [--arrival-rate 40]
//               [--mean-lifetime 8] [--slo 0.9] [--migrate-after 3]
//               [--seed 42] [--jobs 0] [--catalog default|trace]
//               [--csv fleet.csv]
//               [--metrics-out metrics.prom] [--metrics-jsonl epochs.jsonl]
//               [--trace fleet.jsonl] [--log-level info] [--profile]
//               [--compare]
//
// --placement is random, least-loaded or mrc. --jobs sets the data-plane
// stepping workers (0 = one per hardware thread); placement decisions run
// serially on the control plane. Count flags (--machines, --cores,
// --migrate-after, --jobs, --epochs) reject negative values, --cores
// anything outside [2, machine cores] and --epochs 0. An
// --arrival-rate of 0 runs an idle fleet: HPs alone, no tenants.
//
// Emits one CSV row per epoch (stdout, or --csv FILE) with the fleet
// aggregates: tenant count, arrivals/departures/rejections/migrations,
// fleet EFU, mean HP QoS, SLO-violation rate, mean link utilisation, plus
// the EFU / HP-slowdown tail percentiles. Same seed + config =>
// byte-identical CSV at any --jobs.
//
// --metrics-out writes the end-of-run telemetry registry (fleet
// distributions, actuation counters, solver stats) in Prometheus text
// format, atomically; --metrics-jsonl writes the per-epoch rows as a JSONL
// time series. Both exports inherit the CSV's determinism contract.
//
// --compare re-runs the identical churn sequence under every placement
// engine and prints a mean-EFU-vs-cost scoreboard — the "does MRC-aware
// placement beat random, and what does each decision cost?" answer in one
// table. A decision's cost is its wall-clock time (arrivals and
// migrations, the one non-deterministic pair of cells) and its
// predict_efu() evaluations.
//
// --profile also prints the placement index's deterministic work counts:
// decisions, index mutations, predict_efu() evaluations, live classes
// read by best-fit scans, and the placement classes live at the end and
// created in all; then how many machine-epochs stepped alongside the
// whole control plane (machines no placement could touch that epoch) and
// how many were final before arrivals ended (those, plus the machines
// closed once migrations were over or closed by an arrival: each goes to
// the step pool as soon as the control plane is done with it); then how
// many trace events the run counted and how many of them were built
// (none, unless --trace records them). A second line says how many
// data-plane step shards the main thread ran while it waited at the epoch
// barrier; that count follows wall-clock timing, like the timers, so no
// export carries it.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <ostream>

#include "fleet_common.hpp"
#include "fleet/cluster.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace_counter_sink.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/observability.hpp"
#include "util/table.hpp"

/// Wall-clock milliseconds spent deciding placements so far (arrivals and
/// migrations, from the control plane's scoped timers).
static double decision_ms() {
  double ms = 0.0;
  for (const auto& [label, stat] :
       dicer::trace::TimerRegistry::global().snapshot()) {
    if (label == "fleet.arrivals" || label == "fleet.migrations") {
      ms += stat.total_ms;
    }
  }
  return ms;
}

static int run(int argc, char** argv) {
  using namespace dicer;

  const util::CliArgs args(argc, argv);
  const std::uint64_t epochs = args.get_count("epochs", 20, 1);
  const std::string csv_path = args.get_or("csv", "");
  const std::string metrics_path = args.get_or("metrics-out", "");
  const std::string jsonl_path = args.get_or("metrics-jsonl", "");

  const sim::AppCatalog catalog = examples::catalog_from(args);
  util::ObservabilityFlags env(args);
  fleet::FleetConfig fc = examples::fleet_config_from(args);

  if (args.get_bool("compare", false)) {
    // Same churn + same fleet, one run per engine: the placement engine is
    // the only variable.
    util::TextTable table;
    table.set_header({"placement", "mean EFU", "HP norm", "rejected",
                      "migrations", "SLO viol rate", "wall ms/epoch",
                      "us/decision", "efu evals/decision"});
    for (const auto& name : fleet::known_placements()) {
      fc.placement = name;
      fleet::Cluster cluster(fc, catalog);
      const double decision_ms0 = decision_ms();
      const auto t0 = std::chrono::steady_clock::now();
      const auto rows = cluster.run(epochs);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
      const auto decisions = static_cast<double>(
          std::max<std::size_t>(1, cluster.placement_log().size()));
      const double us_per_decision =
          (decision_ms() - decision_ms0) * 1e3 / decisions;
      const double evals_per_decision =
          static_cast<double>(cluster.placement_index()->efu_predictions()) /
          decisions;
      std::uint64_t rejected = 0, migrations = 0;
      double hp_norm = 0.0, viol = 0.0;
      for (const auto& r : rows) {
        rejected += r.rejected;
        migrations += r.migrations;
        hp_norm += r.hp_norm_mean;
        viol += r.slo_violation_rate;
      }
      const auto n = static_cast<double>(rows.size());
      table.add_row({name, util::fmt_fixed(fleet::Cluster::mean_efu(rows), 4),
                     util::fmt_fixed(hp_norm / n, 4),
                     std::to_string(rejected), std::to_string(migrations),
                     util::fmt_fixed(viol / n, 4),
                     util::fmt_fixed(wall_ms / n, 2),
                     util::fmt_fixed(us_per_decision, 1),
                     util::fmt_fixed(evals_per_decision, 1)});
    }
    std::cout << "Fleet of " << fc.num_machines << " machines, " << epochs
              << " epochs, " << fc.policy << " policy:\n\n";
    table.print();
    return 0;
  }

  // A run-local registry keeps exports self-contained; the trace-counter
  // sink turns the policies' existing event emission (allocations,
  // sampling passes, donations, resets, placements, migrations) into
  // actuation counters without touching the policy code. It only counts,
  // so no event is built unless --trace records them too.
  telemetry::Registry registry;
  auto counter_sink =
      std::make_shared<telemetry::TraceCounterSink>(registry);
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.add_sink(counter_sink);
  fc.metrics = &registry;

  fleet::Cluster cluster(fc, catalog);

  std::ofstream file;
  if (!csv_path.empty()) {
    file.open(csv_path);
    if (!file) {
      throw std::runtime_error("cannot open --csv file '" + csv_path + "'");
    }
  }
  std::ostream& out = csv_path.empty() ? std::cout : file;

  std::ofstream jsonl;
  if (!jsonl_path.empty()) {
    jsonl.open(jsonl_path);
    if (!jsonl) {
      throw std::runtime_error("cannot open --metrics-jsonl file '" +
                               jsonl_path + "'");
    }
  }

  out << fleet::epoch_csv_header() << '\n';
  std::vector<fleet::EpochMetrics> rows;
  rows.reserve(epochs);
  for (std::uint64_t e = 0; e < epochs; ++e) {
    rows.push_back(cluster.step_epoch());
    out << fleet::epoch_csv_row(rows.back()) << '\n';
    if (jsonl.is_open()) {
      jsonl << fleet::epoch_jsonl_row(rows.back()) << '\n';
    }
  }
  tracer.remove_sink(counter_sink);

  if (!metrics_path.empty()) {
    telemetry::write_prometheus(registry, metrics_path);
    std::cout << "wrote " << registry.size() << " metrics to "
              << metrics_path << '\n';
  }
  if (!jsonl_path.empty()) {
    std::cout << "wrote " << epochs << " epoch rows to " << jsonl_path
              << '\n';
  }
  if (!csv_path.empty()) {
    std::cout << "wrote " << epochs << " epochs to " << csv_path << '\n';
  }
  std::cout << "fleet: " << fc.num_machines << " machines ("
            << fc.placement << " placement), mean EFU "
            << util::fmt_fixed(fleet::Cluster::mean_efu(rows), 4) << ", "
            << cluster.tenants_running() << " tenants running, "
            << cluster.placement_log().size() << " placement decisions\n";
  if (env.profile) {
    const auto* index = cluster.placement_index();
    const std::uint64_t machine_epochs =
        cluster.epochs_done() * cluster.num_machines();
    std::cerr << "placement work: " << cluster.placement_log().size()
              << " decisions, " << index->mutations()
              << " index mutations, " << index->efu_predictions()
              << " predict_efu evaluations, " << index->class_scans()
              << " classes scanned, " << index->live_classes()
              << " live classes, " << index->classes_created()
              << " classes created; " << cluster.untouchable_machine_epochs()
              << " of " << machine_epochs
              << " machine-epochs stepped alongside the control plane, "
              << cluster.final_machine_epochs() << " of " << machine_epochs
              << " machine-epochs final before arrivals ended; "
              << tracer.events_counted() << " trace events counted, "
              << tracer.events_built() << " built\n";
    std::cerr << "data plane: " << cluster.step_shards_run_by_waiter()
              << " of " << cluster.step_shards()
              << " step shards run by the waiting thread\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  // One-line "program: error: ..." + non-zero exit for bad flag values.
  return dicer::util::cli_main_guard(argv[0], [&] { return run(argc, argv); });
}
