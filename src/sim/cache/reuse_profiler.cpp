#include "sim/cache/reuse_profiler.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/cache/way_mask.hpp"

namespace dicer::sim {

namespace {

constexpr double kTwoPow64 = 18446744073709551616.0;

/// Seed of the spatial hash: the same geometry and rate always sample the
/// same sets.
constexpr std::uint64_t kShardsSeed = 0x5348415244ULL;

/// SplitMix64 finalizer: the spatial hash behind SHARDS sampling. The
/// sample is a pure function of the set id — never of access order —
/// which is what makes hash sampling unbiased for reuse.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ReuseProfiler::ReuseProfiler(const CacheGeometry& geometry, double sample_rate)
    : geom_(geometry) {
  if (geom_.ways == 0 || geom_.ways > kMaxWays) {
    throw std::invalid_argument("ReuseProfiler: unsupported way count");
  }
  if (geom_.line_bytes == 0 || !std::has_single_bit(geom_.line_bytes)) {
    throw std::invalid_argument("ReuseProfiler: line size must be 2^k > 0");
  }
  const std::uint64_t sets = geom_.num_sets();
  if (sets == 0 || !std::has_single_bit(sets)) {
    throw std::invalid_argument(
        "ReuseProfiler: set count must be a power of two > 0");
  }
  if (!(sample_rate > 0.0 && sample_rate <= 1.0)) {
    throw std::invalid_argument("ReuseProfiler: sample rate must be in (0, 1]");
  }
  set_mask_ = sets - 1;
  line_shift_ = static_cast<unsigned>(std::countr_zero(geom_.line_bytes));
  ways_ = geom_.ways;

  set_slot_.assign(sets, kUntouched);
  sampled_sets_ = sets;
  if (sample_rate == 1.0) return;
  // The sample is decided once, here: set s is in iff its hash is below
  // rate * 2^64. However small the rate, the set with the smallest hash
  // is forced in, so the curve always rests on at least one set.
  const auto threshold = static_cast<std::uint64_t>(sample_rate * kTwoPow64);
  std::uint64_t min_hash = ~0ull;
  std::uint64_t argmin = 0;
  sampled_sets_ = 0;
  for (std::uint64_t s = 0; s < sets; ++s) {
    const std::uint64_t hash = mix64(kShardsSeed ^ mix64(s));
    if (hash < threshold) {
      ++sampled_sets_;
    } else {
      set_slot_[s] = kUnsampled;
    }
    if (hash < min_hash) {
      min_hash = hash;
      argmin = s;
    }
  }
  if (sampled_sets_ == 0) {
    set_slot_[argmin] = kUntouched;
    sampled_sets_ = 1;
  }
}

void ReuseProfiler::access(std::uint64_t address) {
  ++accesses_;
  if (measuring_) ++measured_;
  const std::uint64_t block = address >> line_shift_;
  const std::uint64_t set = block & set_mask_;
  std::int32_t slot = set_slot_[set];
  if (slot < 0) {
    if (slot == kUnsampled) return;
    slot = static_cast<std::int32_t>(depth_.size());
    depth_.push_back(0);
    stack_.resize(stack_.size() + ways_);
    hist_.resize(hist_.size() + ways_ + 1, 0);
    set_slot_[set] = slot;
  }
  std::uint64_t* st = stack_.data() + static_cast<std::size_t>(slot) * ways_;
  const unsigned depth = depth_[static_cast<std::size_t>(slot)];
  unsigned d = 0;
  while (d < depth && st[d] != block) ++d;
  if (d < depth) {
    // Hit at per-set stack distance d: hits every partition of > d ways.
    for (unsigned i = d; i > 0; --i) st[i] = st[i - 1];
    st[0] = block;
    if (measuring_) {
      ++hist_[static_cast<std::size_t>(slot) * (ways_ + 1) + d];
    }
    return;
  }
  // Cold (or fallen off the ways_-deep stack): a miss at every way count.
  if (measuring_) {
    ++hist_[static_cast<std::size_t>(slot) * (ways_ + 1) + ways_];
  }
  unsigned shift = depth;
  if (depth == ways_) {
    shift = ways_ - 1;  // the LRU block falls off the tracked stack
  } else {
    depth_[static_cast<std::size_t>(slot)] =
        static_cast<std::uint8_t>(depth + 1);
    ++tracked_blocks_;
  }
  for (unsigned i = shift; i > 0; --i) st[i] = st[i - 1];
  st[0] = block;
}

void ReuseProfiler::raw_histogram(std::vector<std::uint64_t>& hist,
                                  std::uint64_t& total) const {
  hist.assign(ways_ + 1, 0);
  total = 0;
  const std::size_t slots = depth_.size();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const std::uint64_t* h = hist_.data() + slot * (ways_ + 1);
    for (unsigned d = 0; d <= ways_; ++d) {
      hist[d] += h[d];
      total += h[d];
    }
  }
}

double ReuseProfiler::sample_rate() const {
  return static_cast<double>(sampled_sets_) /
         static_cast<double>(set_mask_ + 1);
}

std::vector<double> ReuseProfiler::histogram() const {
  std::vector<std::uint64_t> raw;
  std::uint64_t total = 0;
  raw_histogram(raw, total);
  std::vector<double> out(raw.begin(), raw.end());
  // At rate 1 every measured access is in the histogram, so the
  // correction is exactly zero and the counts stay integral.
  const double expected = static_cast<double>(measured_) * sample_rate();
  const double diff = expected - static_cast<double>(total);
  out[0] = std::max(out[0] + diff, 0.0);
  return out;
}

EmpiricalMrc ReuseProfiler::mrc() const {
  std::vector<std::pair<double, double>> points;
  points.reserve(ways_);
  const double way_bytes = static_cast<double>(geom_.way_bytes());
  // At rate 1 the histogram holds integers that cover every measured
  // access, so each point is the replay's own single division of its
  // integer miss count by its access count, bit for bit.
  const std::vector<double> hist = histogram();
  double total = 0.0;
  for (double h : hist) total += h;
  double hits = 0.0;
  for (unsigned w = 1; w <= ways_; ++w) {
    hits += hist[w - 1];
    const double ratio =
        total > 0.0 ? std::clamp((total - hits) / total, 0.0, 1.0) : 0.0;
    points.emplace_back(way_bytes * w, ratio);
  }
  return EmpiricalMrc(std::move(points));
}

ReuseProfilerStats ReuseProfiler::stats() const {
  ReuseProfilerStats st;
  st.accesses = accesses_;
  st.measured = measured_;
  std::vector<std::uint64_t> hist;
  raw_histogram(hist, st.sampled);
  st.distinct_blocks = tracked_blocks_;
  st.sets = set_mask_ + 1;
  st.sampled_sets = sampled_sets_;
  st.sample_rate = sample_rate();
  return st;
}

}  // namespace dicer::sim
