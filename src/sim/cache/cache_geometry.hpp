// Geometry of a set-associative cache: the machine's LLC and the address
// stream profiler's simulated cache are described by it.
#pragma once

#include <cstdint>

namespace dicer::sim {

/// Geometry of a set-associative cache.
struct CacheGeometry {
  std::uint64_t size_bytes = 25ull * 1024 * 1024;  ///< total capacity
  unsigned ways = 20;                              ///< associativity
  unsigned line_bytes = 64;                        ///< cache line size

  std::uint64_t num_sets() const noexcept {
    return size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes);
  }
  std::uint64_t way_bytes() const noexcept { return size_bytes / ways; }
};

}  // namespace dicer::sim
