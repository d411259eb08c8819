// Shared plumbing for the fleet front-ends (fleet_sim, fleet_top): the
// common --machines/--cores/... -> FleetConfig mapping plus the standard
// observability flags, matching bench_common.hpp:
//
//   --log-level L      debug|info|warn|error|off (same as DICER_LOG; the
//                      flag wins over the env var)
//   --trace PATH       record structured trace events to PATH — JSONL, or
//                      CSV when PATH ends in .csv (same as DICER_TRACE)
//   --profile          print the scoped-timer profile (fleet.epoch /
//                      fleet.placement / fleet.step / fleet.reduce) to
//                      stderr on exit
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "fleet/cluster.hpp"
#include "sim/core/trace_apps.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace dicer::examples {

/// The fleet-shape flags shared by every fleet front-end. Defaults match
/// fleet_sim's documented ones; callers override per-binary defaults by
/// passing them through `args`.
inline fleet::FleetConfig fleet_config_from(const util::CliArgs& args) {
  fleet::FleetConfig fc;
  fc.num_machines = args.get_count("machines", 500);
  fc.cores_used = args.get_count("cores", 10, 2, fc.machine.num_cores);
  fc.policy = args.get_or("policy", "DICER");
  fc.placement = args.get_or("placement", "mrc");
  fc.epoch_sec = args.get_double("epoch", 1.0);
  fc.slo_norm = args.get_fraction("slo", 0.90);
  fc.migrate_after = args.get_count("migrate-after", 3);
  fc.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  fc.jobs = args.get_count("jobs", 0);
  // Default churn: ~40 arrivals/s across the fleet with ~8 s lifetimes
  // holds a 500-machine fleet around 320 concurrent tenants — busy enough
  // that placement quality shows, loose enough that nothing is rejected
  // wholesale.
  fc.churn.arrival_rate_per_sec = args.get_double("arrival-rate", 40.0);
  fc.churn.mean_lifetime_sec = args.get_double("mean-lifetime", 8.0);
  fc.churn.seed = fc.seed + 1;
  return fc;
}

/// The app catalog behind --catalog default|trace (throws CliError on
/// anything else).
inline sim::AppCatalog catalog_from(const util::CliArgs& args) {
  const std::string name = args.get_or("catalog", "default");
  if (name != "default" && name != "trace") {
    throw util::CliError("invalid value for --catalog: '" + name +
                         "' (expected default or trace)");
  }
  return name == "trace" ? sim::trace_augmented_catalog()
                         : sim::AppCatalog();
}

/// RAII for the observability flags: applies --log-level, attaches a
/// --trace/DICER_TRACE file sink to the global tracer, and prints the
/// scoped-timer profile on destruction under --profile.
struct FleetEnv {
  bool profile = false;
  std::shared_ptr<trace::Sink> trace_sink;
  std::string trace_path;

  explicit FleetEnv(const util::CliArgs& args) {
    profile = args.get_bool("profile", false);
    if (const auto level = args.get("log-level")) {
      util::set_log_threshold(util::parse_log_level(*level));
    }
    trace_path = args.get_or("trace", "");
    if (trace_path.empty()) {
      if (const char* env = std::getenv("DICER_TRACE")) trace_path = env;
    }
    if (!trace_path.empty()) {
      trace_sink = trace::make_file_sink(trace_path);
      trace::Tracer::global().add_sink(trace_sink);
    }
  }

  FleetEnv(const FleetEnv&) = delete;
  FleetEnv& operator=(const FleetEnv&) = delete;

  ~FleetEnv() {
    if (trace_sink) {
      trace::Tracer::global().remove_sink(trace_sink);  // flushes
      std::cerr << "trace: " << trace_path << "\n";
    }
    if (profile) {
      const std::string table = trace::TimerRegistry::global().format();
      if (!table.empty()) std::cerr << "\n" << table;
    }
  }
};

}  // namespace dicer::examples
