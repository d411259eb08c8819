// Trace-driven, way-partitioned, set-associative LLC simulator: a test
// oracle.
//
// This is the "ground truth" cache the exact per-way MRC replay
// (support/mrc_oracle.hpp) runs on, which checks the reuse-distance
// profiler, and it exercises the CAT semantics the paper relies on:
//  - way-granular partitioning via per-CLOS capacity bitmasks,
//  - allocation changes leave resident lines untouched (paper §3.3: "the
//    contents of the LLC are not affected; they remain intact until they
//    are evicted by future LLC misses"),
//  - true LRU replacement restricted to the requester's allowed ways.
//
// It is deliberately simple (no inclusion games, no prefetchers): the paper's
// controller never observes anything finer than occupancy and miss counts.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache/cache_geometry.hpp"
#include "sim/cache/way_mask.hpp"

namespace dicer::test {

/// Result of a single access.
struct AccessResult {
  bool hit = false;
  bool evicted = false;          ///< a valid line was evicted
  std::uint16_t victim_owner = 0;  ///< owner id of the evicted line (if any)
};

/// Per-owner counters. "Owner" is an RMID-like small integer tag attached to
/// every line so the simulator can report CMT-style occupancy.
struct OwnerStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions_suffered = 0;  ///< lines of this owner evicted
  std::uint64_t lines_resident = 0;      ///< current occupancy in lines

  double miss_ratio() const noexcept {
    return accesses ? static_cast<double>(misses) /
                          static_cast<double>(accesses)
                    : 0.0;
  }
  std::uint64_t occupancy_bytes(unsigned line_bytes) const noexcept {
    return lines_resident * line_bytes;
  }
};

/// The cache. Owners access with a WayMask constraining which ways they may
/// *allocate into*; hits are honoured in any way (CAT semantics: the mask
/// restricts fills, not lookups).
class SetAssocCache {
 public:
  /// Throws std::invalid_argument for degenerate geometry (0 sets, >kMaxWays).
  explicit SetAssocCache(const sim::CacheGeometry& geometry,
                         std::uint16_t num_owners = 16);

  const sim::CacheGeometry& geometry() const noexcept { return geom_; }

  /// Access `address` on behalf of `owner`, allowed to fill into
  /// `alloc_mask`. Empty masks are rejected (throws std::invalid_argument).
  AccessResult access(std::uint64_t address, std::uint16_t owner,
                      sim::WayMask alloc_mask);

  /// CMT-style occupancy (bytes) currently held by `owner`.
  std::uint64_t occupancy_bytes(std::uint16_t owner) const;

  const OwnerStats& stats(std::uint16_t owner) const;
  void reset_stats();
  /// Invalidate all lines (does not clear counters).
  void flush();

  /// Total valid lines (for invariants in tests).
  std::uint64_t valid_lines() const noexcept { return valid_lines_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< access stamp; smaller == older
    std::uint16_t owner = 0;
    bool valid = false;
  };

  Line& line_at(std::uint64_t set, unsigned way) noexcept {
    return lines_[set * geom_.ways + way];
  }
  const Line& line_at(std::uint64_t set, unsigned way) const noexcept {
    return lines_[set * geom_.ways + way];
  }

  sim::CacheGeometry geom_;
  std::uint64_t set_mask_ = 0;
  unsigned set_bits_ = 0;  ///< popcount(set_mask_), hoisted out of access()
  unsigned line_shift_ = 0;
  std::uint64_t stamp_ = 0;
  std::uint64_t valid_lines_ = 0;
  std::vector<Line> lines_;
  std::vector<OwnerStats> stats_;
};

}  // namespace dicer::test
