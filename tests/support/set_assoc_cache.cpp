#include "support/set_assoc_cache.hpp"

#include <bit>
#include <stdexcept>

namespace dicer::test {

SetAssocCache::SetAssocCache(const sim::CacheGeometry& geometry,
                             std::uint16_t num_owners)
    : geom_(geometry) {
  if (geom_.ways == 0 || geom_.ways > sim::kMaxWays) {
    throw std::invalid_argument("SetAssocCache: unsupported way count");
  }
  if (geom_.line_bytes == 0 || !std::has_single_bit(geom_.line_bytes)) {
    throw std::invalid_argument("SetAssocCache: line size must be 2^k > 0");
  }
  const std::uint64_t sets = geom_.num_sets();
  if (sets == 0 || !std::has_single_bit(sets)) {
    throw std::invalid_argument(
        "SetAssocCache: set count must be a power of two > 0");
  }
  set_mask_ = sets - 1;
  set_bits_ = static_cast<unsigned>(std::popcount(set_mask_));
  line_shift_ = static_cast<unsigned>(std::countr_zero(geom_.line_bytes));
  lines_.resize(sets * geom_.ways);
  stats_.resize(num_owners);
}

AccessResult SetAssocCache::access(std::uint64_t address, std::uint16_t owner,
                                   sim::WayMask alloc_mask) {
  if (alloc_mask.empty()) {
    throw std::invalid_argument("SetAssocCache::access: empty alloc mask");
  }
  if (owner >= stats_.size()) {
    throw std::out_of_range("SetAssocCache::access: owner id out of range");
  }
  const std::uint64_t block = address >> line_shift_;
  const std::uint64_t set = block & set_mask_;
  const std::uint64_t tag = block >> set_bits_;

  auto& st = stats_[owner];
  ++st.accesses;
  ++stamp_;

  // One combined pass over the set: the lookup spans *all* ways (CAT
  // restricts fills, not hits) while the victim candidate is tracked among
  // the allowed ways as we go. An invalid allowed way wins outright (and
  // freezes the victim, matching the old scan's early break); otherwise the
  // first way with the oldest stamp does.
  unsigned victim = sim::kMaxWays;
  std::uint64_t oldest = ~0ull;
  bool victim_invalid = false;
  for (unsigned w = 0; w < geom_.ways; ++w) {
    Line& ln = line_at(set, w);
    if (ln.valid && ln.tag == tag) {
      ln.lru = stamp_;
      // A hit migrates ownership of the line for occupancy accounting,
      // mirroring CMT's RMID-tagging of the last toucher.
      if (ln.owner != owner) {
        --stats_[ln.owner].lines_resident;
        ++st.lines_resident;
        ln.owner = owner;
      }
      return {.hit = true, .evicted = false, .victim_owner = 0};
    }
    if (victim_invalid || !alloc_mask.test(w)) continue;
    if (!ln.valid) {
      victim = w;
      victim_invalid = true;
    } else if (ln.lru < oldest) {
      oldest = ln.lru;
      victim = w;
    }
  }

  ++st.misses;
  if (victim == sim::kMaxWays) {
    // alloc_mask had no bit below geom_.ways.
    throw std::invalid_argument(
        "SetAssocCache::access: alloc mask selects no way of this cache");
  }

  Line& ln = line_at(set, victim);
  AccessResult res{.hit = false, .evicted = false, .victim_owner = 0};
  if (ln.valid) {
    res.evicted = true;
    res.victim_owner = ln.owner;
    --stats_[ln.owner].lines_resident;
    ++stats_[ln.owner].evictions_suffered;
  } else {
    ++valid_lines_;
  }
  ln.valid = true;
  ln.tag = tag;
  ln.lru = stamp_;
  ln.owner = owner;
  ++st.lines_resident;
  return res;
}

std::uint64_t SetAssocCache::occupancy_bytes(std::uint16_t owner) const {
  return stats(owner).occupancy_bytes(geom_.line_bytes);
}

const OwnerStats& SetAssocCache::stats(std::uint16_t owner) const {
  if (owner >= stats_.size()) {
    throw std::out_of_range("SetAssocCache::stats: owner id out of range");
  }
  return stats_[owner];
}

void SetAssocCache::reset_stats() {
  for (auto& st : stats_) {
    const std::uint64_t resident = st.lines_resident;
    st = OwnerStats{};
    st.lines_resident = resident;  // occupancy is state, not a counter
  }
}

void SetAssocCache::flush() {
  for (auto& ln : lines_) ln.valid = false;
  for (auto& st : stats_) st.lines_resident = 0;
  valid_lines_ = 0;
}

}  // namespace dicer::test
