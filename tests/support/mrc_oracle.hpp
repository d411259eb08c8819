// The exact per-way MRC oracle: replay a fresh, identically-seeded stream
// through the trace-driven `SetAssocCache` once per way count, restricted
// to the `ways` lowest ways. It is the ground truth `sim::profile_mrc` is
// checked against: at sample rate 1 the single-pass profiler must match
// it bit for bit, and sampled rates must stay within tolerance.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/cache/address_stream.hpp"
#include "sim/cache/mrc.hpp"
#include "sim/cache/mrc_profiler.hpp"
#include "sim/cache/way_mask.hpp"
#include "support/set_assoc_cache.hpp"

namespace dicer::test {

using StreamFactory = std::function<std::unique_ptr<sim::AddressStream>()>;

/// `config.geometry` and both windows of `config` (its sample rate is
/// ignored: the oracle is always exact); `make_stream` is called once per
/// way count.
inline sim::EmpiricalMrc exact_replay_mrc(const sim::MrcProfilerConfig& config,
                                          const StreamFactory& make_stream) {
  std::vector<std::pair<double, double>> points;
  for (unsigned ways = 1; ways <= config.geometry.ways; ++ways) {
    SetAssocCache cache(config.geometry, /*num_owners=*/1);
    const sim::WayMask mask = sim::WayMask::low(ways);
    auto stream = make_stream();
    for (std::uint64_t i = 0; i < config.warmup_accesses; ++i) {
      cache.access(stream->next(), 0, mask);
    }
    cache.reset_stats();
    for (std::uint64_t i = 0; i < config.measure_accesses; ++i) {
      cache.access(stream->next(), 0, mask);
    }
    points.emplace_back(
        static_cast<double>(config.geometry.way_bytes()) * ways,
        cache.stats(0).miss_ratio());
  }
  return sim::EmpiricalMrc(std::move(points));
}

/// `sim::profile_mrc` on a fresh stream from the same factory.
inline sim::EmpiricalMrc profile(const sim::MrcProfilerConfig& config,
                                 const StreamFactory& make_stream) {
  return sim::profile_mrc(config, *make_stream());
}

}  // namespace dicer::test
