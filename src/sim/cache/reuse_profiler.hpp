// Single-pass reuse-distance MRC profiling.
//
// An exact per-way MRC replays the address stream once per way count (20
// warmup+measure replays on the paper geometry). `ReuseProfiler` gets
// every way count from ONE pass:
//
//  * A set-aware Mattson stack profiler. Every cache set keeps its blocks
//    in LRU order; an access at per-set stack distance d hits a w-way
//    partition iff d < w (the LRU inclusion property, applied per set
//    exactly as a true-LRU set-associative cache evicts). One pass
//    therefore yields the miss count of *every* way count simultaneously,
//    and at sample rate 1 the resulting EmpiricalMrc is bit-identical to
//    the per-way replay (the oracle in tests/support/mrc_oracle.hpp).
//    Distances saturate at the associativity (deeper is a miss at every
//    way count), so the stack walk is O(min(d, ways)).
//
//  * SHARDS-style spatial hash sampling over SETS: below rate 1 a set is
//    profiled iff hash(set) < rate * 2^64, so the sample is chosen
//    spatially, never by behaviour. The standard sampled-count correction
//    (SHARDS-adj) shifts the difference between expected and actual
//    sampled references into the distance-0 bucket. Rate 1 profiles every
//    set, and the correction is then exactly zero.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache/cache_geometry.hpp"
#include "sim/cache/mrc.hpp"

namespace dicer::sim {

struct ReuseProfilerStats {
  std::uint64_t accesses = 0;        ///< stream accesses consumed in total
  std::uint64_t measured = 0;        ///< accesses inside the measure window
  std::uint64_t sampled = 0;         ///< measured accesses in sampled sets
  std::uint64_t distinct_blocks = 0; ///< tracked blocks (stack entries) at the end
  std::uint64_t sets = 0;            ///< total sets of the geometry
  std::uint64_t sampled_sets = 0;    ///< sets in the sample
  double sample_rate = 1.0;          ///< sampled_sets / sets
};

/// Set-aware single-pass reuse-distance profiler (see file comment).
class ReuseProfiler {
 public:
  /// Profiles the sets whose hash falls below `sample_rate` (all of them
  /// at 1; at least one, however small the rate). Throws
  /// std::invalid_argument for a way count outside [1, kMaxWays], a line
  /// size or set count that is not a power of two, and a rate outside
  /// (0, 1].
  explicit ReuseProfiler(const CacheGeometry& geometry,
                         double sample_rate = 1.0);

  /// Feed one byte address.
  void access(std::uint64_t address);

  /// End the warmup window: accesses so far only warmed the stacks; from
  /// now on distances are recorded.
  void begin_measurement() noexcept { measuring_ = true; }

  /// Empirical MRC with one point per way count 1..geometry.ways.
  /// At rate 1, bit-identical to the exact per-way replay.
  EmpiricalMrc mrc() const;

  /// Sampled-count-corrected distance histogram: bucket d < ways holds
  /// measured accesses at per-set stack distance d; bucket [ways] holds
  /// deeper-or-cold accesses (a miss at every way count).
  std::vector<double> histogram() const;

  ReuseProfilerStats stats() const;

 private:
  static constexpr std::int32_t kUntouched = -1;  ///< sampled, no slot yet
  static constexpr std::int32_t kUnsampled = -2;  ///< outside the sample

  /// Raw (uncorrected) histogram plus its total.
  void raw_histogram(std::vector<std::uint64_t>& hist,
                     std::uint64_t& total) const;
  double sample_rate() const;

  CacheGeometry geom_;
  std::uint64_t set_mask_ = 0;
  unsigned line_shift_ = 0;
  unsigned ways_ = 0;
  bool measuring_ = false;

  std::uint64_t sampled_sets_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t measured_ = 0;
  std::uint64_t tracked_blocks_ = 0;

  std::vector<std::int32_t> set_slot_;    ///< per set: slot or a k* marker
  std::vector<std::uint64_t> stack_;      ///< slot-major, `ways_` blocks each
  std::vector<std::uint8_t> depth_;       ///< per slot
  std::vector<std::uint64_t> hist_;       ///< per slot, ways_+1 buckets
};

}  // namespace dicer::sim
