#include "support/set_assoc_cache.hpp"

#include <gtest/gtest.h>

namespace dicer::sim {
namespace {

using test::SetAssocCache;

// A tiny cache: 4 sets x 4 ways x 64 B = 1 KiB.
CacheGeometry tiny() { return {.size_bytes = 1024, .ways = 4, .line_bytes = 64}; }

std::uint64_t addr(std::uint64_t set, std::uint64_t tag) {
  return set * 64 + tag * 64 * 4;
}

TEST(CacheGeometry, DerivedQuantities) {
  const auto g = tiny();
  EXPECT_EQ(g.num_sets(), 4u);
  EXPECT_EQ(g.way_bytes(), 256u);
  CacheGeometry paper{25ull * 1024 * 1024, 20, 64};
  EXPECT_EQ(paper.num_sets(), 20480u);
  EXPECT_EQ(paper.way_bytes(), 1310720u);
}

TEST(SetAssocCache, RejectsDegenerateGeometry) {
  EXPECT_THROW(SetAssocCache({1024, 0, 64}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache({1024, 33, 64}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache({1024, 4, 0}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache({1024, 4, 48}), std::invalid_argument);
  // 3 sets is not a power of two: 4 ways * 64 B * 3.
  EXPECT_THROW(SetAssocCache({768, 4, 64}), std::invalid_argument);
}

TEST(SetAssocCache, ColdMissThenHit) {
  SetAssocCache c(tiny());
  const auto full = WayMask::full(4);
  EXPECT_FALSE(c.access(addr(0, 1), 0, full).hit);
  EXPECT_TRUE(c.access(addr(0, 1), 0, full).hit);
  EXPECT_EQ(c.stats(0).accesses, 2u);
  EXPECT_EQ(c.stats(0).misses, 1u);
}

TEST(SetAssocCache, SameLineDifferentByteOffsetsHit) {
  SetAssocCache c(tiny());
  const auto full = WayMask::full(4);
  c.access(addr(0, 1), 0, full);
  EXPECT_TRUE(c.access(addr(0, 1) + 63, 0, full).hit);
}

TEST(SetAssocCache, LruEvictionOrder) {
  SetAssocCache c(tiny());
  const auto full = WayMask::full(4);
  for (std::uint64_t t = 0; t < 4; ++t) c.access(addr(0, t), 0, full);
  // Touch tag 0 so tag 1 becomes LRU.
  c.access(addr(0, 0), 0, full);
  // Insert a fifth tag: must evict tag 1, not tag 0.
  EXPECT_TRUE(c.access(addr(0, 4), 0, full).evicted);
  EXPECT_TRUE(c.access(addr(0, 0), 0, full).hit);
  EXPECT_FALSE(c.access(addr(0, 1), 0, full).hit);
}

TEST(SetAssocCache, FillsRestrictedToMask) {
  SetAssocCache c(tiny());
  const auto way0 = WayMask::low(1);
  // With one allowed way, a second distinct tag evicts the first.
  c.access(addr(0, 1), 0, way0);
  c.access(addr(0, 2), 0, way0);
  EXPECT_FALSE(c.access(addr(0, 1), 0, way0).hit);
  // Lines in other ways are untouched: only 1 line valid per set.
  EXPECT_EQ(c.valid_lines(), 1u);
}

TEST(SetAssocCache, HitsAllowedOutsideMask) {
  // CAT semantics: the mask restricts fills, not lookups (paper 3.3: on
  // allocation change, resident contents stay until evicted).
  SetAssocCache c(tiny());
  c.access(addr(0, 1), 0, WayMask::low(2));
  // Now restrict owner to the high ways: its old line still hits.
  EXPECT_TRUE(c.access(addr(0, 1), 0, WayMask::span(2, 2)).hit);
}

TEST(SetAssocCache, VictimOwnerReported) {
  SetAssocCache c(tiny(), 2);
  const auto way0 = WayMask::low(1);
  c.access(addr(0, 1), 0, way0);
  const auto res = c.access(addr(0, 2), 1, way0);
  EXPECT_TRUE(res.evicted);
  EXPECT_EQ(res.victim_owner, 0u);
  EXPECT_EQ(c.stats(0).evictions_suffered, 1u);
}

TEST(SetAssocCache, OccupancyTracksResidency) {
  SetAssocCache c(tiny(), 2);
  const auto full = WayMask::full(4);
  c.access(addr(0, 1), 0, full);
  c.access(addr(1, 1), 0, full);
  c.access(addr(2, 1), 1, full);
  EXPECT_EQ(c.occupancy_bytes(0), 128u);
  EXPECT_EQ(c.occupancy_bytes(1), 64u);
  EXPECT_EQ(c.valid_lines(), 3u);
}

TEST(SetAssocCache, HitMigratesOwnership) {
  SetAssocCache c(tiny(), 2);
  const auto full = WayMask::full(4);
  c.access(addr(0, 1), 0, full);
  c.access(addr(0, 1), 1, full);  // owner 1 touches owner 0's line
  EXPECT_EQ(c.occupancy_bytes(0), 0u);
  EXPECT_EQ(c.occupancy_bytes(1), 64u);
}

TEST(SetAssocCache, EmptyMaskThrows) {
  SetAssocCache c(tiny());
  EXPECT_THROW(c.access(0, 0, WayMask()), std::invalid_argument);
}

TEST(SetAssocCache, MaskBeyondCacheWaysThrows) {
  SetAssocCache c(tiny());
  EXPECT_THROW(c.access(0, 0, WayMask::span(8, 2)), std::invalid_argument);
}

TEST(SetAssocCache, BadOwnerThrows) {
  SetAssocCache c(tiny(), 2);
  EXPECT_THROW(c.access(0, 5, WayMask::full(4)), std::out_of_range);
  EXPECT_THROW(c.stats(2), std::out_of_range);
}

TEST(SetAssocCache, ResetStatsKeepsResidency) {
  SetAssocCache c(tiny());
  const auto full = WayMask::full(4);
  c.access(addr(0, 1), 0, full);
  c.reset_stats();
  EXPECT_EQ(c.stats(0).accesses, 0u);
  EXPECT_EQ(c.stats(0).misses, 0u);
  EXPECT_EQ(c.occupancy_bytes(0), 64u);  // line still resident
  EXPECT_TRUE(c.access(addr(0, 1), 0, full).hit);
}

TEST(SetAssocCache, FlushInvalidatesEverything) {
  SetAssocCache c(tiny());
  const auto full = WayMask::full(4);
  c.access(addr(0, 1), 0, full);
  c.flush();
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_EQ(c.occupancy_bytes(0), 0u);
  EXPECT_FALSE(c.access(addr(0, 1), 0, full).hit);
}

TEST(SetAssocCache, MissRatioHelper) {
  SetAssocCache c(tiny());
  const auto full = WayMask::full(4);
  c.access(addr(0, 1), 0, full);
  c.access(addr(0, 1), 0, full);
  c.access(addr(0, 1), 0, full);
  c.access(addr(0, 2), 0, full);
  EXPECT_DOUBLE_EQ(c.stats(0).miss_ratio(), 0.5);
}

// Partition isolation: an aggressor confined to one way can never evict a
// victim's lines in the other ways — the CAT guarantee DICER relies on.
class PartitionIsolation : public ::testing::TestWithParam<unsigned> {};

TEST_P(PartitionIsolation, VictimLinesSurviveAggressorStorm) {
  const unsigned victim_ways = GetParam();
  SetAssocCache c({.size_bytes = 4096, .ways = 8, .line_bytes = 64}, 2);
  const auto victim_mask = WayMask::high(victim_ways, 8);
  const auto aggressor_mask = WayMask::low(8 - victim_ways);

  // Victim fills its partition in every set.
  const std::uint64_t sets = 8;
  for (std::uint64_t s = 0; s < sets; ++s) {
    for (unsigned t = 0; t < victim_ways; ++t) {
      c.access((1ull << 30) + s * 64 + t * 64 * sets, 0, victim_mask);
    }
  }
  const auto victim_occ = c.occupancy_bytes(0);

  // Aggressor storms through far more lines than the cache holds.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    c.access(i * 64, 1, aggressor_mask);
  }
  EXPECT_EQ(c.occupancy_bytes(0), victim_occ);
  EXPECT_EQ(c.stats(0).evictions_suffered, 0u);
}

INSTANTIATE_TEST_SUITE_P(VictimWays, PartitionIsolation,
                         ::testing::Values(1u, 2u, 4u, 7u));

TEST(SetAssocCache, InvalidAllowedWayBeatsOlderValidLines) {
  // Fill ways 0..2 (way 3 stays invalid), then miss with a full mask: the
  // victim must be the invalid way 3, not the older valid line in way 0 —
  // the merged lookup/victim scan must prefer invalid ways regardless of
  // where valid candidates appeared in mask order.
  SetAssocCache c(tiny());
  const auto low3 = WayMask::low(3);
  for (std::uint64_t t = 0; t < 3; ++t) c.access(addr(0, t), 0, low3);
  const auto res = c.access(addr(0, 9), 0, WayMask::full(4));
  EXPECT_FALSE(res.hit);
  EXPECT_FALSE(res.evicted);  // filled the invalid way, evicted nothing
  // All three previously-resident tags still hit.
  for (std::uint64_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(c.access(addr(0, t), 0, WayMask::full(4)).hit);
  }
}

TEST(SetAssocCache, FirstInvalidAllowedWayWins) {
  // Two invalid allowed ways: the scan must take the first one in way
  // order (the original early-break semantics), leaving the second
  // invalid until the next miss.
  SetAssocCache c(tiny());
  const auto full = WayMask::full(4);
  c.access(addr(0, 0), 0, full);  // way 0
  c.access(addr(0, 1), 0, full);  // way 1
  c.access(addr(0, 2), 0, full);  // way 2
  EXPECT_FALSE(c.access(addr(0, 3), 0, full).evicted);  // fills way 3
  // The set is now full; the next miss evicts true-LRU tag 0.
  EXPECT_TRUE(c.access(addr(0, 4), 0, full).evicted);
  EXPECT_FALSE(c.access(addr(0, 0), 0, full).hit);
}

TEST(SetAssocCache, HitOutsideAllocMaskStaysAHit) {
  // CAT semantics: the mask restricts fills, not lookups. A line resident
  // in way 0 must hit even when the requester may only allocate way 3.
  SetAssocCache c(tiny(), 2);
  c.access(addr(0, 5), 0, WayMask::low(1));  // fills way 0
  const auto res = c.access(addr(0, 5), 1, WayMask::high(1, 4));
  EXPECT_TRUE(res.hit);
  // The hit migrated ownership to the toucher.
  EXPECT_EQ(c.occupancy_bytes(1), 64u);
  EXPECT_EQ(c.occupancy_bytes(0), 0u);
}

}  // namespace
}  // namespace dicer::sim
