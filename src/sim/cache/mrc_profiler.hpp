// MRC profiler: measures an empirical miss-ratio curve for an address
// stream, one point per way count from 1..geometry.ways.
//
// There is one profiler, the set-aware single-pass `ReuseProfiler`: one
// pass over the stream yields every way count at once. `sample_rate`
// selects its SHARDS set sampling: 1 (the default) profiles every set and
// is bit-identical to replaying the stream through a trace-driven LRU
// cache once per way count (that replay is the test oracle,
// tests/support/mrc_oracle.hpp); below 1 it profiles only a hash fraction
// of the sets, for a miss-ratio error validated at <= 0.02.
//
// Each run times itself into trace::TimerRegistry::global()
// ("mrc.profile") and tallies a "profiler.*" counter group (accesses,
// sampled accesses, distinct blocks, sample rate) surfaced by the bench
// harness under --profile.
#pragma once

#include <cstdint>

#include "sim/cache/address_stream.hpp"
#include "sim/cache/cache_geometry.hpp"
#include "sim/cache/mrc.hpp"

namespace dicer::sim {

struct MrcProfilerConfig {
  CacheGeometry geometry{};
  std::uint64_t warmup_accesses = 200'000;   ///< discarded (state only)
  std::uint64_t measure_accesses = 400'000;  ///< counted
  /// Fraction of sets profiled, in (0, 1]; 1 is exact.
  double sample_rate = 1.0;
};

/// Profile `stream` (warmup, then measure accesses drawn from it) into an
/// empirical MRC with one point per way count 1..geometry.ways.
EmpiricalMrc profile_mrc(const MrcProfilerConfig& config,
                         AddressStream& stream);

}  // namespace dicer::sim
