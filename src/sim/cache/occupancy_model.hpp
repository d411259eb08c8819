// Analytic shared-cache occupancy model (Che's approximation).
//
// Within a set of ways that several applications may fill (a "region"),
// steady-state LRU occupancy is well described by the characteristic-time
// approximation [Che et al.]: a cache line survives iff it is re-referenced
// within the cache's characteristic time T_c, so application i occupies the
// unique bytes it touches within T_c:
//
//     occ_i(T) = min(reuse_rate_i * T, footprint_i) + stream_rate_i * T
//
// where reuse_rate is the touch rate of its re-used data (capped by its
// working-set footprint — a hot 1 MB set never holds more than 1 MB, and
// conversely is fully resident once T_c covers it, which is why an
// L2-resident app keeps its data even next to nine miss-storming
// neighbours), and stream_rate is compulsory/streaming traffic whose
// lines are unique forever. T_c solves sum_i occ_i(T_c) = capacity. The
// sum is continuous, non-decreasing and piecewise linear in T, with one
// breakpoint per reuse component (where T covers its footprint), so T_c is
// solved exactly: sort the breakpoints, find the segment that crosses the
// capacity, and solve its line. The machine's outer fixed point converges
// to 1e-9 relative, which a grid search over T could not resolve on a
// one-way region.
//
// This reproduces the paper's UM observations (milc left unmanaged "gains
// control of around 26% of the LLC" against nine gcc BEs) and the crucial
// classification physics: isolating a small-footprint HP with CAT buys it
// nothing (CT-Thwarted), while isolating a cache-hungry HP against
// cache-aggressive BEs buys a lot (CT-Favoured).
//
// CAT masks generalise the model: ways are decomposed into maximal regions
// whose eligible-sharer sets are identical (an isolated partition is a
// region with one sharer), each region solves its own T_c, and an app
// eligible for several regions splits its rates across them in proportion
// to region capacity.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/cache/way_mask.hpp"

namespace dicer::sim {

/// One re-used working set of an application, as seen by the occupancy
/// model: a touch rate and the footprint it covers. Splitting an app's
/// reuse into components matters because coverage is rate-proportional —
/// a hot 1 MB set touched constantly is fully resident long before a
/// lukewarm 20 MB tail gets anywhere, so the tail cannot dilute the hot
/// set's stickiness.
struct ReuseComponent {
  double rate_bytes_per_sec = 0.0;
  double footprint_bytes = 0.0;
};

/// Per-application cache demand for one solver call. The components live
/// in the caller's storage (a machine keeps every slot's back to back).
struct CacheDemand {
  std::span<const ReuseComponent> reuse;  ///< re-used working sets
  double stream_bytes_per_sec = 0.0;      ///< compulsory/streaming fill rate
};

/// A set of app indices below 64, as a bitmask; iterates ascending.
struct SharerSet {
  std::uint64_t bits = 0;

  struct iterator {
    std::uint64_t rest = 0;
    std::size_t operator*() const noexcept {
      return static_cast<std::size_t>(std::countr_zero(rest));
    }
    iterator& operator++() noexcept {
      rest &= rest - 1;
      return *this;
    }
    bool operator==(const iterator&) const noexcept = default;
  };
  iterator begin() const noexcept { return {bits}; }
  iterator end() const noexcept { return {}; }
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::popcount(bits));
  }
  bool operator==(const SharerSet&) const noexcept = default;
};

/// A contiguous-capacity region of the LLC and the apps eligible to fill it.
struct CacheRegion {
  double capacity_bytes = 0.0;
  SharerSet sharers;
};

/// Decompose per-app way masks into maximal regions with identical sharer
/// sets, written into the front of `regions`; returns their count. They
/// come ordered by ascending sharer set, at most one per way, so
/// `total_ways` entries always suffice. Ways eligible to no app are
/// dropped (their capacity is unused). Throws std::invalid_argument past
/// 64 apps or kMaxWays ways, std::length_error when `regions` is too
/// short.
std::size_t decompose_regions(std::span<const WayMask> masks,
                              unsigned total_ways, double way_bytes,
                              std::span<CacheRegion> regions);

struct OccupancySolverConfig {
  /// Upper bound on the characteristic time (seconds). Past this the cache
  /// is considered not filling (all footprints resident, spare unused).
  double max_characteristic_time_sec = 1e3;
};

/// Working state of solve_occupancy, as views of storage the caller owns
/// (a machine carves them from its solver block): one per solver stream
/// and solver config. The layout-derived state (per-app eligible
/// capacity, per-region capacity fractions) is rebuilt after invalidate()
/// or when the region/app counts change; every call solves each region
/// afresh and keeps its characteristic time and its sharers'
/// sensitivities. Results are byte-identical with or without scratch
/// reuse.
///
/// The sensitivity of the last solve, d occ_i / d ln s_k with s_k scaling
/// every rate of app k (streaming and reuse) alike, is a sum over the
/// regions both apps share: inside a region a sharer holds beta_i * T_c
/// plus its saturated footprints, beta_i being its streaming rate plus
/// its unsaturated reuse rates (capacity-scaled), so scaling app k grows
/// its own holding by g_k = beta_k * T_c (`growth`) and, in a region that
/// fills (T_c < t_max), shortens T_c by the share g_k / sum_j g_j
/// (`fill_total` = that sum) for every sharer:
///
///     d occ_i / d ln s_k = sum_R  g_i [i == k] - g_i g_k / fill_total_R
///
/// — a diagonal plus one rank-one term per filling region. Exact away
/// from the kinks where a component saturates or a region starts to fill.
struct OccupancyScratch {
  struct Sharer {
    double frac = 0.0;    ///< capacity fraction (layout)
    double growth = 0.0;  ///< beta_k * T_c of the last solve
  };
  struct RegionState {
    double t_c = 0.0;  ///< characteristic time of the last solve
    double fill_total = 0.0;  ///< sum of growth if the region fills, else 0
    std::span<Sharer> sharers;  ///< parallel to CacheRegion::sharers
  };
  /// One reuse component of the region being solved, at its saturation
  /// breakpoint t = fp / rate (rate and footprint scaled by the sharer's
  /// capacity fraction). Once sorted by t, `rate` becomes the summed rate
  /// of this knot and every later one.
  struct Knot {
    double t;
    double rate;
    double fp;
  };

  // Storage, each at least as long as the solves need: `avail` one entry
  // per app, `regions` one per region, `sharers` the regions' sharer
  // counts summed, `knots` the apps' reuse components summed.
  std::span<double> avail;         ///< per-app total eligible capacity
  std::span<RegionState> regions;  ///< parallel to the region list
  std::span<Sharer> sharers;       ///< the regions' sharer states, in order
  std::span<Knot> knots;
  /// The app and region counts the layout state was built for.
  std::size_t layout_apps = 0;
  std::size_t layout_regions = 0;
  bool layout_valid = false;

  /// Must be called whenever the region decomposition changes shape or
  /// content (mask change, app attach/detach). Equal-sized but different
  /// layouts are NOT auto-detected.
  void invalidate() noexcept { layout_valid = false; }
};

/// Solve the characteristic-time fixed point: per-app effective cache
/// bytes into `occ` (one entry per demand); an app sharing no region gets
/// 0. Works in `scratch`'s storage and allocates nothing; throws
/// std::length_error if that storage is too short.
void solve_occupancy(std::span<const CacheRegion> regions,
                     std::span<const CacheDemand> demand,
                     const OccupancySolverConfig& config,
                     OccupancyScratch& scratch, std::span<double> occ);

}  // namespace dicer::sim
