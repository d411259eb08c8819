// Shared plumbing for the fleet front-ends (fleet_sim, fleet_top): the
// common --machines/--cores/... -> FleetConfig mapping. The observability
// flags come from util/observability.hpp, as in the benches; --profile
// prints fleet.epoch / fleet.placement / fleet.step / fleet.reduce.
#pragma once

#include <string>

#include "fleet/cluster.hpp"
#include "sim/core/trace_apps.hpp"
#include "util/cli.hpp"

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

}  // namespace dicer::examples
