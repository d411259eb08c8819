#include "sim/cache/occupancy_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace dicer::sim {

std::size_t decompose_regions(std::span<const WayMask> masks,
                              unsigned total_ways, double way_bytes,
                              std::span<CacheRegion> regions) {
  // Group ways by the exact set of apps eligible to fill them. Encode the
  // sharer set as a bitmask over apps (supports up to 64 apps; the machine
  // has at most 10 cores). Regions come back ordered by ascending sharer
  // set — callers (and the sweep's determinism invariant) rely on that.
  if (masks.size() > 64) {
    throw std::invalid_argument("decompose_regions: more than 64 apps");
  }
  if (total_ways > kMaxWays) {
    throw std::invalid_argument("decompose_regions: more ways than kMaxWays");
  }
  std::array<std::uint64_t, kMaxWays> sharers_of_way{};
  for (std::size_t a = 0; a < masks.size(); ++a) {
    std::uint32_t bits = masks[a].bits();
    while (bits != 0) {
      const unsigned w = static_cast<unsigned>(std::countr_zero(bits));
      bits &= bits - 1;
      if (w < total_ways) sharers_of_way[w] |= (1ull << a);
    }
  }

  // Sort the per-way sharer sets; each run of equal values is one region.
  std::array<std::uint64_t, kMaxWays> sets;
  unsigned n = 0;
  for (unsigned w = 0; w < total_ways; ++w) {
    if (sharers_of_way[w] != 0) sets[n++] = sharers_of_way[w];
  }
  std::sort(sets.begin(), sets.begin() + n);

  std::size_t count = 0;
  for (unsigned i = 0; i < n;) {
    unsigned j = i;
    while (j < n && sets[j] == sets[i]) ++j;
    if (count == regions.size()) {
      throw std::length_error("decompose_regions: region storage too short");
    }
    regions[count++] = {way_bytes * (j - i), {sets[i]}};
    i = j;
  }
  return count;
}

namespace {

/// The characteristic time at which a region that fills before t_max
/// holds exactly its capacity. Its total occupancy
///     total(t) = S*t + sum_j min(r_j*t, fp_j)
/// (S the summed streaming rate, r_j/fp_j each reuse component's rate and
/// footprint, all scaled by the sharer's capacity fraction) is continuous,
/// piecewise linear and non-decreasing, with a breakpoint where each
/// component saturates at t = fp_j/r_j. Walking the sorted breakpoints
/// finds the segment that crosses the capacity, and t_c solves that
/// segment's line exactly: no grid, so the result is accurate to a few
/// ulps however narrow the region.
double fill_time(const CacheRegion& r, const OccupancyScratch::RegionState& rs,
                 std::span<const CacheDemand> demand,
                 std::span<OccupancyScratch::Knot> knots) {
  std::size_t m = 0;
  double stream = 0.0;
  const OccupancyScratch::Sharer* sharer = rs.sharers.data();
  for (const std::size_t a : r.sharers) {
    const auto& d = demand[a];
    const double f = (sharer++)->frac;
    stream += d.stream_bytes_per_sec * f;
    for (const auto& c : d.reuse) {
      const double rate = c.rate_bytes_per_sec * f;
      // A component that is never touched holds nothing at any t.
      if (rate > 0.0) {
        if (m == knots.size()) {
          throw std::length_error("solve_occupancy: knot storage too short");
        }
        const double fp = c.footprint_bytes * f;
        knots[m++] = {fp / rate, rate, fp};
      }
    }
  }
  std::sort(knots.begin(), knots.begin() + static_cast<std::ptrdiff_t>(m),
            [](const OccupancyScratch::Knot& a,
               const OccupancyScratch::Knot& b) { return a.t < b.t; });
  // Past knot k-1 the slope is stream + (rates of knots k..end) and the
  // intercept the footprints of knots 0..k-1. The rates are turned into
  // suffix sums in place, summed afresh backwards rather than updated by
  // subtraction, which would cancel catastrophically next to a dominant
  // rate.
  for (std::size_t k = m; k-- > 1;) knots[k - 1].rate += knots[k].rate;
  const double cap = r.capacity_bytes;
  double held = 0.0;  // footprints of the knots already passed
  double lo = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const double slope = stream + knots[k].rate;  // > 0: rate > 0
    if (slope * knots[k].t + held >= cap) {
      // The crossing lies on [lo, knots[k].t]; clamp away the rounding
      // that could place the line's root just outside its segment.
      return std::clamp((cap - held) / slope, lo, knots[k].t);
    }
    held += knots[k].fp;
    lo = knots[k].t;
  }
  // Past the last knot only the streams still grow. The caller checked
  // that the region fills by t_max, so stream > 0 unless rounding put the
  // footprints' sum just below the capacity.
  return stream > 0.0 ? std::max((cap - held) / stream, lo) : lo;
}

}  // namespace

void solve_occupancy(std::span<const CacheRegion> regions,
                     std::span<const CacheDemand> demand,
                     const OccupancySolverConfig& config,
                     OccupancyScratch& scratch, std::span<double> occ) {
  const std::size_t num_apps = demand.size();
  if (occ.size() != num_apps) {
    throw std::length_error("solve_occupancy: one occupancy per demand");
  }
  std::fill(occ.begin(), occ.end(), 0.0);

  if (!scratch.layout_valid || scratch.layout_apps != num_apps ||
      scratch.layout_regions != regions.size()) {
    // An app eligible for several regions splits its rates proportionally
    // to region capacity; both the per-app totals and the resulting
    // per-region fractions depend only on the layout, so they are computed
    // once per decomposition, not once per solve.
    std::size_t entries = 0;
    for (const auto& r : regions) entries += r.sharers.size();
    if (scratch.avail.size() < num_apps ||
        scratch.regions.size() < regions.size() ||
        scratch.sharers.size() < entries) {
      throw std::length_error("solve_occupancy: layout storage too short");
    }
    std::fill_n(scratch.avail.begin(), num_apps, 0.0);
    for (const auto& r : regions) {
      for (std::size_t a : r.sharers) scratch.avail[a] += r.capacity_bytes;
    }
    std::size_t next = 0;
    for (std::size_t ri = 0; ri < regions.size(); ++ri) {
      const auto& r = regions[ri];
      auto& rs = scratch.regions[ri];
      rs.sharers = scratch.sharers.subspan(next, r.sharers.size());
      next += r.sharers.size();
      rs.fill_total = 0.0;
      std::size_t k = 0;
      for (const std::size_t a : r.sharers) {
        rs.sharers[k++] = {
            scratch.avail[a] > 0.0 ? r.capacity_bytes / scratch.avail[a] : 0.0,
            0.0};
      }
    }
    scratch.layout_apps = num_apps;
    scratch.layout_regions = regions.size();
    scratch.layout_valid = true;
  }

  for (std::size_t ri = 0; ri < regions.size(); ++ri) {
    const auto& r = regions[ri];
    if (r.sharers.bits == 0 || r.capacity_bytes <= 0.0) continue;
    auto& rs = scratch.regions[ri];
    // Total occupancy the region would hold at characteristic time t.
    auto total_at_inline = [&](double t) {
      double sum = 0.0;
      std::size_t k = 0;
      for (const std::size_t a : r.sharers) {
        const auto& d = demand[a];
        const double f = rs.sharers[k++].frac;
        double app_occ = d.stream_bytes_per_sec * f * t;
        for (const auto& c : d.reuse) {
          app_occ +=
              std::min(c.rate_bytes_per_sec * f * t, c.footprint_bytes * f);
        }
        sum += app_occ;
      }
      return sum;
    };
    double t_c;
    const double t_max = config.max_characteristic_time_sec;
    if (total_at_inline(t_max) <= r.capacity_bytes) {
      // The region never fills: every sharer keeps its full (scaled)
      // footprint plus its entire streaming window. One evaluation, no
      // breakpoint sort.
      t_c = t_max;
    } else {
      t_c = std::min(fill_time(r, rs, demand, scratch.knots), t_max);
    }
    rs.t_c = t_c;

    // Each sharer's holding, and beta_k: how fast it grows with t at t_c,
    // i.e. its streaming rate plus the reuse rates min() leaves
    // unsaturated there.
    double total = 0.0;
    std::size_t k = 0;
    for (const std::size_t a : r.sharers) {
      const auto& d = demand[a];
      auto& sharer = rs.sharers[k++];
      const double f = sharer.frac;
      double beta = d.stream_bytes_per_sec * f;
      double app_occ = beta * t_c;
      for (const auto& c : d.reuse) {
        const double rate = c.rate_bytes_per_sec * f;
        const double fp = c.footprint_bytes * f;
        if (rate * t_c < fp) {
          app_occ += rate * t_c;
          beta += rate;
        } else {
          app_occ += fp;
        }
      }
      occ[a] += app_occ;
      sharer.growth = beta * t_c;
      total += sharer.growth;
    }
    rs.fill_total = t_c < t_max ? total : 0.0;
  }
}

}  // namespace dicer::sim
