#include "sim/cache/occupancy_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/rng.hpp"

namespace dicer::sim {
namespace {

constexpr double MB = 1024.0 * 1024.0;
constexpr double GBs = 1024.0 * 1024.0 * 1024.0;

double total(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// The regions of `masks`, decomposed into room for one per way.
std::vector<CacheRegion> regions_of(const std::vector<WayMask>& masks,
                                    unsigned total_ways, double way_bytes) {
  std::vector<CacheRegion> regions(total_ways);
  regions.resize(decompose_regions(masks, total_ways, way_bytes, regions));
  return regions;
}

/// An app's demand with its reuse components held by value (CacheDemand
/// views the caller's storage).
struct AppDemand {
  std::vector<ReuseComponent> reuse;
  double stream_bytes_per_sec = 0.0;
};

/// An OccupancyScratch over storage of its own, room for any test layout.
struct OwnedScratch : OccupancyScratch {
  OwnedScratch()
      : avail_(64), regions_(kMaxWays), sharers_(64 * kMaxWays),
        knots_(1024) {
    avail = avail_;
    regions = regions_;
    sharers = sharers_;
    knots = knots_;
  }
  OwnedScratch(const OwnedScratch&) = delete;
  OwnedScratch& operator=(const OwnedScratch&) = delete;

 private:
  std::vector<double> avail_;
  std::vector<RegionState> regions_;
  std::vector<Sharer> sharers_;
  std::vector<Knot> knots_;
};

std::vector<double> solve_with_scratch(const std::vector<CacheRegion>& regions,
                                       const std::vector<AppDemand>& demand,
                                       OccupancyScratch& scratch) {
  std::vector<CacheDemand> views;
  for (const auto& d : demand) {
    views.push_back({d.reuse, d.stream_bytes_per_sec});
  }
  std::vector<double> occ(demand.size());
  solve_occupancy(regions, views, OccupancySolverConfig{}, scratch, occ);
  return occ;
}

/// One solve through a fresh scratch.
std::vector<double> solve(const std::vector<CacheRegion>& regions,
                          const std::vector<AppDemand>& demand) {
  OwnedScratch scratch;
  return solve_with_scratch(regions, demand, scratch);
}

TEST(DecomposeRegions, SingleSharedRegion) {
  std::vector<WayMask> masks(3, WayMask::full(20));
  const auto regions = regions_of(masks, 20, MB);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_DOUBLE_EQ(regions[0].capacity_bytes, 20 * MB);
  EXPECT_EQ(regions[0].sharers.bits, 0b111u);
  EXPECT_EQ(regions[0].sharers.size(), 3u);
}

TEST(DecomposeRegions, DisjointPartitions) {
  std::vector<WayMask> masks = {WayMask::high(19, 20), WayMask::low(1),
                                WayMask::low(1)};
  const auto regions = regions_of(masks, 20, MB);
  ASSERT_EQ(regions.size(), 2u);
  // Region order: by sharer bitmask value — BE region {1,2} has mask 0b110,
  // HP region {0} has mask 0b001.
  double hp_cap = 0.0, be_cap = 0.0;
  for (const auto& r : regions) {
    if (r.sharers == SharerSet{0b001}) hp_cap = r.capacity_bytes;
    if (r.sharers == SharerSet{0b110}) be_cap = r.capacity_bytes;
  }
  EXPECT_DOUBLE_EQ(hp_cap, 19 * MB);
  EXPECT_DOUBLE_EQ(be_cap, 1 * MB);
}

TEST(DecomposeRegions, OverlappingMasksSplit) {
  // App 0: ways 0-9; app 1: ways 5-14 -> three regions.
  std::vector<WayMask> masks = {WayMask::span(0, 10), WayMask::span(5, 10)};
  const auto regions = regions_of(masks, 20, MB);
  ASSERT_EQ(regions.size(), 3u);
  double cap_sum = 0.0;
  for (const auto& r : regions) cap_sum += r.capacity_bytes;
  EXPECT_DOUBLE_EQ(cap_sum, 15 * MB);  // ways 15-19 unused, dropped
}

TEST(DecomposeRegions, UnusedWaysDropped) {
  std::vector<WayMask> masks = {WayMask::low(4)};
  const auto regions = regions_of(masks, 20, MB);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_DOUBLE_EQ(regions[0].capacity_bytes, 4 * MB);
}

TEST(DecomposeRegions, TooManyAppsThrows) {
  std::vector<WayMask> masks(65, WayMask::full(20));
  EXPECT_THROW(regions_of(masks, 20, MB), std::invalid_argument);
}

// The in-place rebuild overwrites whatever the storage held — more
// regions, fewer, stale sharers — and leaves exactly what decomposing
// into fresh storage leaves.
TEST(DecomposeRegions, InPlaceRebuildMatchesFreshDecomposition) {
  const std::vector<std::vector<WayMask>> layouts = {
      {WayMask::span(0, 10), WayMask::span(5, 10)},             // 3 regions
      {WayMask::full(20)},                                      // 1 region
      {WayMask::high(19, 20), WayMask::low(1), WayMask::low(1)},  // 2
      {},                                                       // none
      {WayMask::low(4), WayMask::span(2, 6), WayMask::high(3, 20)},
  };
  std::vector<CacheRegion> regions(20);
  for (const auto& masks : layouts) {
    const std::size_t count = decompose_regions(masks, 20, MB, regions);
    const auto fresh = regions_of(masks, 20, MB);
    ASSERT_EQ(count, fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(regions[i].capacity_bytes, fresh[i].capacity_bytes) << i;
      EXPECT_EQ(regions[i].sharers.bits, fresh[i].sharers.bits) << i;
    }
  }
}

TEST(DecomposeRegions, ShortStorageThrows) {
  std::vector<WayMask> masks = {WayMask::span(0, 10), WayMask::span(5, 10)};
  std::vector<CacheRegion> regions(2);
  EXPECT_THROW(decompose_regions(masks, 20, MB, regions), std::length_error);
}

AppDemand reuse_app(double rate, double footprint) {
  AppDemand d;
  d.reuse = {{rate, footprint}};
  return d;
}

AppDemand stream_app(double rate) {
  AppDemand d;
  d.stream_bytes_per_sec = rate;
  return d;
}

TEST(SolveOccupancy, LoneStreamerFillsRegion) {
  std::vector<WayMask> masks = {WayMask::full(20)};
  const auto regions = regions_of(masks, 20, MB);
  const auto occ = solve(regions, {stream_app(1 * GBs)});
  EXPECT_NEAR(occ[0], 20 * MB, 0.01 * MB);
}

TEST(SolveOccupancy, LoneSmallFootprintDoesNotFill) {
  std::vector<WayMask> masks = {WayMask::full(20)};
  const auto regions = regions_of(masks, 20, MB);
  const auto occ = solve(regions, {reuse_app(1 * GBs, 3 * MB)});
  EXPECT_NEAR(occ[0], 3 * MB, 0.01 * MB);
}

TEST(SolveOccupancy, CapacityConserved) {
  std::vector<WayMask> masks(4, WayMask::full(20));
  const auto regions = regions_of(masks, 20, MB);
  std::vector<AppDemand> demand = {
      stream_app(2 * GBs), reuse_app(1 * GBs, 40 * MB),
      reuse_app(0.5 * GBs, 10 * MB), stream_app(1 * GBs)};
  const auto occ = solve(regions, demand);
  EXPECT_NEAR(total(occ), 20 * MB, 0.05 * MB);
  for (double o : occ) EXPECT_GE(o, 0.0);
}

TEST(SolveOccupancy, HotSmallSetStaysResidentNextToStorm) {
  // The physics that makes CT-Thwarted workloads exist: an L2-resident
  // victim keeps its working set even next to nine streaming aggressors.
  std::vector<WayMask> masks(10, WayMask::full(20));
  const auto regions = regions_of(masks, 20, MB);
  std::vector<AppDemand> demand;
  demand.push_back(reuse_app(0.5 * GBs, 1 * MB));  // hot victim
  for (int i = 0; i < 9; ++i) demand.push_back(stream_app(3 * GBs));
  const auto occ = solve(regions, demand);
  EXPECT_GT(occ[0], 0.3 * MB);  // victim retains a useful fraction
}

TEST(SolveOccupancy, HigherRateEarnsMoreCache) {
  std::vector<WayMask> masks(2, WayMask::full(20));
  const auto regions = regions_of(masks, 20, MB);
  const auto occ = solve(
      regions, {reuse_app(4 * GBs, 100 * MB), reuse_app(1 * GBs, 100 * MB)});
  EXPECT_GT(occ[0], occ[1]);
  EXPECT_NEAR(occ[0] / occ[1], 4.0, 0.2);
}

TEST(SolveOccupancy, IsolatedPartitionUnaffectedByNeighbourStorm) {
  std::vector<WayMask> masks = {WayMask::high(19, 20), WayMask::low(1)};
  const auto regions = regions_of(masks, 20, MB);
  const auto occ =
      solve(regions, {reuse_app(1 * GBs, 5 * MB), stream_app(50 * GBs)});
  EXPECT_NEAR(occ[0], 5 * MB, 0.05 * MB);  // full footprint, protected
  EXPECT_NEAR(occ[1], 1 * MB, 0.05 * MB);  // storm confined to one way
}

TEST(SolveOccupancy, ZeroDemandGetsZero) {
  std::vector<WayMask> masks(2, WayMask::full(20));
  const auto regions = regions_of(masks, 20, MB);
  const auto occ = solve(regions, {reuse_app(1 * GBs, 50 * MB), AppDemand{}});
  EXPECT_DOUBLE_EQ(occ[1], 0.0);
}

TEST(SolveOccupancy, MultiComponentHotFillsBeforeTail) {
  std::vector<WayMask> masks(2, WayMask::full(4));
  const auto regions = regions_of(masks, 4, MB);  // 4 MB total
  AppDemand app;
  app.reuse = {{1 * GBs, 1 * MB},      // hot: covered fast
               {0.05 * GBs, 20 * MB}}; // lukewarm tail
  const auto occ = solve(regions, {app, stream_app(2 * GBs)});
  // The hot MB should be (nearly) fully covered despite the streamer.
  EXPECT_GT(occ[0], 0.9 * MB);
}

// --- scratch / warm-start solver ------------------------------------------

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(OccupancyScratchSolver, RepeatedSolveReproducesColdSolve) {
  std::vector<WayMask> masks(4, WayMask::full(20));
  const auto regions = regions_of(masks, 20, MB);
  const std::vector<AppDemand> demand = {
      stream_app(2 * GBs), reuse_app(1 * GBs, 40 * MB),
      reuse_app(0.5 * GBs, 10 * MB), stream_app(1 * GBs)};
  OwnedScratch scratch;
  const auto cold = solve_with_scratch(regions, demand, scratch);
  // A second call with identical inputs through the same scratch.
  expect_bitwise_equal(solve_with_scratch(regions, demand, scratch), cold);
  // A one-ulp nudge of a single rate must match a fresh solve of the
  // nudged demand, not reproduce the previous one.
  auto nudged = demand;
  nudged[1].reuse[0].rate_bytes_per_sec =
      std::nextafter(nudged[1].reuse[0].rate_bytes_per_sec, 2e18);
  expect_bitwise_equal(solve_with_scratch(regions, nudged, scratch),
                       solve(regions, nudged));
}

TEST(OccupancyScratchSolver, InvalidateTracksLayoutChange) {
  OwnedScratch scratch;
  const std::vector<AppDemand> demand = {reuse_app(1 * GBs, 30 * MB),
                                           stream_app(5 * GBs)};
  // Same region count, same app count, different capacities: the scratch
  // cannot auto-detect this — invalidate() is the caller's contract.
  std::vector<WayMask> shared = {WayMask::high(19, 20), WayMask::low(1)};
  std::vector<WayMask> even = {WayMask::high(10, 20), WayMask::low(10)};
  const auto regions_a = regions_of(shared, 20, MB);
  const auto regions_b = regions_of(even, 20, MB);
  expect_bitwise_equal(solve_with_scratch(regions_a, demand, scratch),
                       solve(regions_a, demand));
  scratch.invalidate();
  expect_bitwise_equal(solve_with_scratch(regions_b, demand, scratch),
                       solve(regions_b, demand));
}

TEST(OccupancyScratchSolver, ShapeChangeDetectedWithoutInvalidate) {
  // Region-count and app-count changes are auto-detected even if the
  // caller forgets invalidate().
  OwnedScratch scratch;
  std::vector<WayMask> one = {WayMask::full(20)};
  std::vector<WayMask> three = {WayMask::high(19, 20), WayMask::low(1),
                                WayMask::low(1)};
  const auto regions_one = regions_of(one, 20, MB);
  const auto regions_three = regions_of(three, 20, MB);
  const std::vector<AppDemand> d1 = {stream_app(1 * GBs)};
  const std::vector<AppDemand> d3 = {reuse_app(1 * GBs, 5 * MB),
                                       stream_app(2 * GBs),
                                       stream_app(3 * GBs)};
  expect_bitwise_equal(solve_with_scratch(regions_one, d1, scratch),
                       solve(regions_one, d1));
  expect_bitwise_equal(solve_with_scratch(regions_three, d3, scratch),
                       solve(regions_three, d3));
}

// --- exact fill time vs a long double bisection oracle --------------------

/// Reference occupancies: each region's characteristic time by 200 steps
/// of long double bisection over [0, t_max] — far past the precision of
/// either type — then every sharer's holding at that time, with the same
/// never-fills convention as the solver.
std::vector<long double> oracle_occupancy(
    const std::vector<CacheRegion>& regions,
    const std::vector<AppDemand>& demand) {
  const long double t_max =
      OccupancySolverConfig{}.max_characteristic_time_sec;
  std::vector<long double> avail(demand.size(), 0.0L);
  std::vector<long double> occ(demand.size(), 0.0L);
  for (const auto& r : regions) {
    for (std::size_t a : r.sharers) avail[a] += r.capacity_bytes;
  }
  for (const auto& r : regions) {
    const long double cap = r.capacity_bytes;
    auto held = [&](std::size_t a, long double t) {
      const long double f = cap / avail[a];
      const auto& d = demand[a];
      long double h = d.stream_bytes_per_sec * f * t;
      for (const auto& c : d.reuse) {
        h += std::min<long double>(c.rate_bytes_per_sec * f * t,
                                   c.footprint_bytes * f);
      }
      return h;
    };
    auto total_at = [&](long double t) {
      long double sum = 0.0L;
      for (std::size_t a : r.sharers) sum += held(a, t);
      return sum;
    };
    long double t = t_max;
    if (total_at(t_max) > cap) {
      long double lo = 0.0L, hi = t_max;
      for (int i = 0; i < 200; ++i) {
        const long double mid = 0.5L * (lo + hi);
        if (total_at(mid) < cap) lo = mid;
        else hi = mid;
      }
      t = 0.5L * (lo + hi);
    }
    for (std::size_t a : r.sharers) occ[a] += held(a, t);
  }
  return occ;
}

/// Every app's occupancy within 1e-12 of the LLC's capacity of the
/// oracle's. A grid search over [0, t_max] misses this by orders of
/// magnitude on a one-way region, where t_c is ~1e-4 s.
void expect_matches_oracle(const std::vector<CacheRegion>& regions,
                           const std::vector<AppDemand>& demand) {
  const auto occ = solve(regions, demand);
  const auto want = oracle_occupancy(regions, demand);
  for (std::size_t a = 0; a < demand.size(); ++a) {
    EXPECT_NEAR(occ[a], static_cast<double>(want[a]), 1e-12 * 20 * MB)
        << "app " << a;
  }
}

/// An app shaped like MissRatioCurve::streaming's: nearly all traffic is
/// compulsory, plus a token 512 KB reuse component.
AppDemand streamer(double rate) {
  AppDemand d;
  d.stream_bytes_per_sec = 0.95 * rate;
  d.reuse = {{0.05 * rate, 0.5 * MB}};
  return d;
}

TEST(OccupancyOracle, OneWayStreamerRegion) {
  // The CT layout: an HP alone on 19 ways, nine streaming BEs sharing
  // one. The BE region fills in ~1e-4 s.
  std::vector<WayMask> masks = {WayMask::high(19, 20)};
  std::vector<AppDemand> demand = {reuse_app(2 * GBs, 30 * MB)};
  for (int i = 0; i < 9; ++i) {
    masks.push_back(WayMask::low(1));
    demand.push_back(streamer((0.9 + 0.01 * i) * GBs));
  }
  expect_matches_oracle(regions_of(masks, 20, 1.25 * MB), demand);
}

TEST(OccupancyOracle, ComponentsSaturatingOnBothSidesOfTheCrossing) {
  // Hot sets saturate before t_c, lukewarm tails after it; a never-touched
  // component and an empty footprint hold nothing at any t.
  std::vector<WayMask> masks(4, WayMask::full(20));
  AppDemand multi;
  multi.reuse = {{1 * GBs, 1 * MB}, {0.05 * GBs, 20 * MB}, {0.0, 4 * MB}};
  AppDemand empty_fp;
  empty_fp.reuse = {{1 * GBs, 0.0}};
  empty_fp.stream_bytes_per_sec = 0.1 * GBs;
  expect_matches_oracle(regions_of(masks, 20, 1.25 * MB),
                        {multi, empty_fp, reuse_app(0.3 * GBs, 6 * MB),
                         stream_app(1.5 * GBs)});
}

TEST(OccupancyOracle, RegionThatNeverFills) {
  std::vector<WayMask> masks(2, WayMask::full(20));
  expect_matches_oracle(regions_of(masks, 20, 1.25 * MB),
                        {reuse_app(1 * GBs, 2 * MB), reuse_app(1 * GBs, 3 * MB)});
}

TEST(OccupancyOracle, RandomLayoutsAndDemands) {
  util::Xoshiro256 rng(0x0CC0ULL);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t apps = 1 + rng.below(10);
    std::vector<WayMask> masks;
    std::vector<AppDemand> demand;
    for (std::size_t a = 0; a < apps; ++a) {
      const unsigned width = 1 + static_cast<unsigned>(rng.below(20));
      const unsigned shift = static_cast<unsigned>(rng.below(21 - width));
      masks.push_back(WayMask::span(shift, width));
      AppDemand d;
      if (rng.below(2) == 0) d.stream_bytes_per_sec = rng.uniform(0.0, 3.0) * GBs;
      const std::uint64_t comps = rng.below(4);
      for (std::uint64_t c = 0; c < comps; ++c) {
        d.reuse.push_back({rng.uniform(0.0, 2.0) * GBs,
                           rng.uniform(0.0, 40.0) * MB});
      }
      demand.push_back(std::move(d));
    }
    SCOPED_TRACE(trial);
    expect_matches_oracle(regions_of(masks, 20, 1.25 * MB), demand);
  }
}

// --- sensitivity to each app's rates -------------------------------------

/// Every rate of `d` scaled by `s`.
AppDemand scaled(AppDemand d, double s) {
  d.stream_bytes_per_sec *= s;
  for (auto& c : d.reuse) c.rate_bytes_per_sec *= s;
  return d;
}

/// d occ_i / d ln s_k, row-major, from what the last solve left in
/// `scratch`: each region's growth on the diagonal, less one rank-one term
/// per filling region.
std::vector<double> sensitivity(const std::vector<CacheRegion>& regions,
                                const OccupancyScratch& scratch,
                                std::size_t apps) {
  std::vector<double> sens(apps * apps);
  for (std::size_t ri = 0; ri < regions.size(); ++ri) {
    std::vector<std::size_t> sharers;
    for (const std::size_t a : regions[ri].sharers) sharers.push_back(a);
    const auto& rs = scratch.regions[ri];
    for (std::size_t k = 0; k < sharers.size(); ++k) {
      const std::size_t i = sharers[k];
      sens[i * apps + i] += rs.sharers[k].growth;
      if (!(rs.fill_total > 0.0)) continue;
      for (std::size_t l = 0; l < sharers.size(); ++l) {
        sens[i * apps + sharers[l]] -=
            rs.sharers[k].growth * rs.sharers[l].growth / rs.fill_total;
      }
    }
  }
  return sens;
}

TEST(OccupancySensitivity, MatchesCentralDifferences) {
  // d occ_i / d ln s_k, as the scratch's growth and fill totals give it,
  // against central differences in ln s_k, on random layouts: filling and
  // non-filling regions, overlapping masks, saturated and unsaturated
  // components.
  util::Xoshiro256 rng(0x5E45ULL);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t apps = 1 + rng.below(10);
    std::vector<WayMask> masks;
    std::vector<AppDemand> demand;
    for (std::size_t a = 0; a < apps; ++a) {
      const unsigned width = 1 + static_cast<unsigned>(rng.below(20));
      const unsigned shift = static_cast<unsigned>(rng.below(21 - width));
      masks.push_back(WayMask::span(shift, width));
      AppDemand d;
      d.stream_bytes_per_sec = rng.uniform(0.0, 0.3) * GBs;
      for (int c = 0; c < 3; ++c) {
        d.reuse.push_back({rng.uniform(0.01, 2.0) * GBs,
                           rng.uniform(0.1, 20.0) * MB});
      }
      demand.push_back(std::move(d));
    }
    const auto regions = regions_of(masks, 20, 1.25 * MB);
    OwnedScratch scratch;
    solve_with_scratch(regions, demand, scratch);
    const auto sens = sensitivity(regions, scratch, apps);
    SCOPED_TRACE(trial);
    const double h = 1e-7;
    for (std::size_t k = 0; k < apps; ++k) {
      auto up = demand, down = demand;
      up[k] = scaled(demand[k], 1.0 + h);
      down[k] = scaled(demand[k], 1.0 - h);
      const auto occ_up = solve(regions, up);
      const auto occ_down = solve(regions, down);
      for (std::size_t i = 0; i < apps; ++i) {
        const double fd = (occ_up[i] - occ_down[i]) /
                          (std::log1p(h) - std::log1p(-h));
        EXPECT_NEAR(sens[i * apps + k], fd, 1e-5 * MB)
            << "d occ_" << i << " / d ln s_" << k;
      }
    }
  }
}

// Conservation holds across arbitrary mask layouts.
class OccupancyConservation : public ::testing::TestWithParam<int> {};

TEST_P(OccupancyConservation, NeverExceedsEligibleCapacity) {
  const int layout = GetParam();
  std::vector<WayMask> masks;
  switch (layout) {
    case 0: masks = {WayMask::full(20), WayMask::full(20)}; break;
    case 1: masks = {WayMask::high(19, 20), WayMask::low(1)}; break;
    case 2: masks = {WayMask::span(0, 10), WayMask::span(5, 10)}; break;
    default: masks = {WayMask::low(2), WayMask::span(2, 2)}; break;
  }
  const auto regions = regions_of(masks, 20, MB);
  double capacity = 0.0;
  for (const auto& r : regions) capacity += r.capacity_bytes;
  const auto occ =
      solve(regions, {stream_app(20 * GBs), stream_app(10 * GBs)});
  EXPECT_LE(total(occ), capacity * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Layouts, OccupancyConservation,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace dicer::sim
