#include "telemetry/histogram.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dicer::telemetry {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Lock-free monotone update: fold `value` into `slot` under `better`
/// (e.g. std::less for a running min).
template <typename Cmp>
void atomic_fold(std::atomic<double>& slot, double value, Cmp better) {
  double cur = slot.load(std::memory_order_relaxed);
  while (better(value, cur) &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(const HistogramSpec& spec)
    : spec_(spec), counts_(spec.buckets + 1) {
  if (!spec.valid()) {
    throw std::invalid_argument(
        "Histogram: spec needs first_bound > 0, growth > 1, buckets in "
        "[1, 4096]");
  }
  bounds_.reserve(spec_.buckets);
  double bound = spec_.first_bound;
  for (unsigned i = 0; i < spec_.buckets; ++i) {
    bounds_.push_back(bound);
    bound *= spec_.growth;
  }
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
}

unsigned Histogram::bucket_index(double value) const noexcept {
  // First boundary >= value; NaN and sub-first_bound values land in
  // bucket 0, values above the last finite boundary in the +Inf bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<unsigned>(it - bounds_.begin());
}

void Histogram::record(double value) noexcept {
  counts_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  atomic_fold(min_, value, std::less<double>{});
  atomic_fold(max_, value, std::greater<double>{});
}

void Histogram::record_all(std::span<const double> values) noexcept {
  if (values.empty()) return;
  // This batch's tally, on the stack. Zeroing all kMaxBuckets + 1
  // entries would cost more than a small batch, so only this histogram's
  // n_buckets are zeroed, and only they are read. Each touched bucket is
  // then added once.
  std::array<std::uint64_t, HistogramSpec::kMaxBuckets + 1> tally;
  const std::size_t n_buckets = counts_.size();
  std::fill_n(tally.begin(), n_buckets, 0);
  double lo = kInf;
  double hi = -kInf;
  for (const double v : values) {
    ++tally[bucket_index(v)];
    // The same comparisons as one fold per sample: NaN never wins, and
    // the first of equal extremes (-0.0 vs 0.0) stays.
    if (v < lo) lo = v;
    if (v > hi) hi = v;
  }
  for (std::size_t b = 0; b < n_buckets; ++b) {
    if (tally[b] != 0) {
      counts_[b].fetch_add(tally[b], std::memory_order_relaxed);
    }
  }
  count_.fetch_add(values.size(), std::memory_order_relaxed);
  // Add the batch onto the current sum in span order; a racing writer
  // makes the CAS fail and the batch is re-added onto its result.
  double cur = sum_.load(std::memory_order_relaxed);
  for (;;) {
    double next = cur;
    for (const double v : values) next += v;
    if (sum_.compare_exchange_weak(cur, next, std::memory_order_relaxed)) {
      break;
    }
  }
  atomic_fold(min_, lo, std::less<double>{});
  atomic_fold(max_, hi, std::greater<double>{});
}

void Histogram::reset() noexcept {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kInf, std::memory_order_relaxed);
  max_.store(-kInf, std::memory_order_relaxed);
}

double Histogram::upper_bound(unsigned i) const noexcept {
  return i < spec_.buckets ? bounds_[i] : kInf;
}

std::uint64_t Histogram::bucket_count(unsigned i) const noexcept {
  return i < counts_.size() ? counts_[i].load(std::memory_order_relaxed) : 0;
}

double Histogram::min() const noexcept {
  return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::max() const noexcept {
  return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // util::stats::percentile's rank convention on the (virtual) sorted
  // sample: the target sits at fractional index p/100 * (n-1).
  const double rank = p / 100.0 * static_cast<double>(n - 1);

  const double lo_sample = min();
  const double hi_sample = max();
  std::uint64_t before = 0;  // samples in buckets below `b`
  for (unsigned b = 0; b < counts_.size(); ++b) {
    const std::uint64_t in_bucket =
        counts_[b].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (rank < static_cast<double>(before + in_bucket)) {
      // Interpolate linearly inside the bucket, clamped to the observed
      // sample range so single-bucket distributions report exact values.
      double lo = b == 0 ? lo_sample : upper_bound(b - 1);
      double hi = b < spec_.buckets ? upper_bound(b) : hi_sample;
      lo = std::max(lo, lo_sample);
      hi = std::min(hi, hi_sample);
      if (hi <= lo) return lo;
      const double frac = in_bucket == 1
                              ? 0.0
                              : (rank - static_cast<double>(before)) /
                                    static_cast<double>(in_bucket - 1);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    before += in_bucket;
  }
  return hi_sample;  // p == 100 lands past the last counted sample
}

}  // namespace dicer::telemetry
