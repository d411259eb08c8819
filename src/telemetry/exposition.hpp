// Prometheus text exposition of a telemetry::Registry.
//
// Prometheus text exposition, version 0.0.4: `# HELP` / `# TYPE` preamble
// per metric, cumulative `_bucket{le="..."}` series plus `_sum`/`_count`
// for histograms. Deterministic by construction: metrics walk in name
// order, boundaries are pure functions of the histogram spec, and doubles
// render as %.17g — so a byte-compare of two exports is a semantic
// compare (the fleet's jobs-invariance tests rely on exactly this).
#pragma once

#include <string>

#include "telemetry/registry.hpp"

namespace dicer::telemetry {

/// The whole registry as Prometheus text exposition.
std::string to_prometheus(const Registry& registry);

/// Write `to_prometheus(registry)` to `path` atomically
/// (util::write_file_atomic), so a scraper
/// or interrupted run never sees a torn file. Throws std::runtime_error
/// when the file cannot be written.
void write_prometheus(const Registry& registry, const std::string& path);

}  // namespace dicer::telemetry
